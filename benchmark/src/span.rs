//! In-memory spans for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into the
//! program's public functions; spans inside the program are a later
//! issue. They are kept in memory and written as JSON when the run ends.
//! A disabled recorder reads no clock, so the untraced run pays nothing.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers. `1` for an ordinary span; more for an
    /// aggregate, whose length is the summed time of `count` calls laid
    /// end to end from where the previous aggregate under the same parent
    /// ended (see [`Recorder::aggregate`]).
    pub count: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with where its next aggregate
    /// child starts.
    open: Vec<(u32, u64)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(p, _)| p),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        self.open.push((id, now));
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let (id, _) = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    /// Record `count` calls that together took `busy_ns` as one child of
    /// the innermost open span. The calls were interleaved with other
    /// kinds, so the aggregate has no single real interval: it is laid
    /// after the parent's previous aggregate (or at the parent's start),
    /// which keeps siblings disjoint and the parent's self time equal to
    /// what its children do not account for.
    pub fn aggregate(&mut self, name: &str, busy_ns: u64, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let (parent, cursor) = self.open.last_mut().expect("aggregate outside any span");
        let start = *cursor;
        *cursor += busy_ns;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(*parent),
            name: name.to_string(),
            start_ns: start,
            end_ns: start + busy_ns,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{}}}{}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.count,
                self_time_ns(&self.spans, s.id),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// A span's self time: its length minus the part of its interval that its
/// direct children cover. Overlapping children are merged first, so an
/// instant two children share is subtracted once.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let s = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|&(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_overlap_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, so
        // they cover 50 ns, not 60. A grandchild and a stranger change
        // nothing, and a child reaching past the parent is clipped.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(1), 12, 20),
            span(4, None, 0, 100),
            span(5, Some(0), 90, 130),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 8);
        assert_eq!(self_time_ns(&spans, 3), 8);
        assert_eq!(self_time_ns(&spans, 4), 100);
    }

    #[test]
    fn nested_enter_exit_sets_parents() {
        let mut r = Recorder::new(true);
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.exit();
        r.enter("next");
        r.exit();
        let s = r.spans();
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), None]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn aggregates_are_laid_end_to_end() {
        let mut r = Recorder::new(true);
        r.enter("window");
        r.aggregate("admit", 70, 7);
        r.aggregate("evict", 20, 4);
        r.aggregate("fault", 0, 0); // nothing happened: no span
        let start = r.spans()[0].start_ns;
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].start_ns, s[1].end_ns, s[1].count),
            (start, start + 70, 7)
        );
        assert_eq!((s[2].start_ns, s[2].end_ns), (start + 70, start + 90));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.enter("a");
        r.aggregate("b", 5, 1);
        r.exit();
        assert!(r.spans().is_empty());
        assert_eq!(r.to_json(), "[\n]");
    }
}
