//! The framing the two observation files share, `silo-trace-v1`
//! ([`crate::TraceLog`]) and `silo-telemetry-v1` ([`crate::TelemetryLog`]):
//! a header line whose `format` tag names the family, then one JSON
//! object per data row. Each family's module spells its own fields with
//! [`write`] and reads them back through [`read`] and [`Line`].

use silo_base::Json;

/// An observation file: line 1 is a header object, its `format` tag
/// naming the family and `fields` following in order, then one `rows`
/// object per line; every line ends in a newline.
pub fn write(
    tag: &str,
    fields: &[(&'static str, String)],
    rows: impl Iterator<Item = String>,
) -> String {
    let mut out = format!("{{\"format\":\"{tag}\"");
    for (name, value) in fields {
        out.push_str(&format!(",\"{name}\":{value}"));
    }
    out.push_str("}\n");
    for row in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// The `format` tag `text` opens with. A reader accepts only the writer's
/// spelling, which puts the tag first, so this names the only reader
/// that could accept `text` without parsing it.
pub fn format_tag(text: &str) -> Option<&str> {
    text.strip_prefix("{\"format\":\"")?.split('"').next()
}

/// `text`'s parsed header, whose `format` must be `tag`, and its parsed
/// data lines, skipping blank ones. The last line must end in a newline.
pub fn read<'a>(
    text: &'a str,
    tag: &str,
) -> Result<(Line<'a>, impl Iterator<Item = Result<Line<'a>, String>>), String> {
    if text.is_empty() {
        return Err("empty file".into());
    }
    let Some(body) = text.strip_suffix('\n') else {
        let last = text.split('\n').count();
        return Err(format!("line {last}: no newline at its end"));
    };
    let mut lines = body.split('\n').zip(1..);
    let header = Line::parse(lines.next().map_or("", |(l, _)| l), 1)?;
    match header.v.get("format").and_then(Json::as_str) {
        Some(t) if t == tag => {}
        other => return Err(format!("not a {tag} file (format: {other:?})")),
    }
    let rows = lines.filter(|(l, _)| !l.is_empty());
    Ok((header, rows.map(|(l, no)| Line::parse(l, no))))
}

/// One parsed line of an observation file, its text and its 1-based
/// number: every error a reader returns names the line.
pub struct Line<'a> {
    v: Json,
    text: &'a str,
    no: usize,
}

impl<'a> Line<'a> {
    fn parse(text: &'a str, no: usize) -> Result<Line<'a>, String> {
        let v = Json::parse(text).map_err(|e| format!("line {no}: {e}"))?;
        Ok(Line { v, text, no })
    }

    /// Whether the line has field `key`.
    pub fn has(&self, key: &str) -> bool {
        self.v.get(key).is_some()
    }

    pub fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("line {}: {msg}", self.no)
    }

    /// Field `key` read by `read`; missing, or refused by `read`, is an
    /// error naming the line, the field and the `ty` expected.
    pub fn get<'s, T>(
        &'s self,
        key: &str,
        ty: &str,
        read: impl FnOnce(&'s Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = (self.v.get(key)).ok_or_else(|| self.err(format!("missing {ty} field '{key}'")))?;
        read(v).ok_or_else(|| self.err(format!("{ty} field '{key}' mistyped or out of range")))
    }

    /// An integer field, `0..=2^53` ([`Json::as_u64`]); narrower types
    /// refuse what they cannot hold.
    pub fn u64<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.get(key, "integer", |v| v.as_u64()?.try_into().ok())
    }

    /// A signed integer field the writer spells `null` when it has no
    /// value (one out of range saturates, and `canonical` refuses it).
    pub fn opt(&self, key: &str) -> Result<Option<i64>, String> {
        self.get(key, "integer or null", |v| match *v {
            Json::Null => Some(None),
            Json::Num(n) if n.fract() == 0.0 => Some(Some(n as i64)),
            _ => None,
        })
    }

    /// A string field naming one of `all` by its `label`.
    pub fn label<T: Copy>(
        &self,
        key: &str,
        all: &[T],
        label: fn(T) -> &'static str,
    ) -> Result<T, String> {
        let s = self.get(key, "string", Json::as_str)?;
        let found = all.iter().copied().find(|&x| label(x) == s);
        found.ok_or_else(|| self.err(format!("unknown {key} '{s}'")))
    }

    /// An id field that must name one of the header's `n` tenants or ports.
    pub fn id(&self, key: &str, n: u64) -> Result<usize, String> {
        let id: u64 = self.u64(key)?;
        (id < n)
            .then_some(id as usize)
            .ok_or_else(|| self.err(format!("{key} {id} outside header's {n}")))
    }

    /// The header's tenant count: tenant ids are `u16`, so anything larger
    /// is a corrupt header, not a loop bound.
    pub fn tenants(&self) -> Result<usize, String> {
        let n: u64 = self.u64("tenants")?;
        (n <= u64::from(u16::MAX))
            .then_some(n as usize)
            .ok_or_else(|| format!("header: {n} tenants exceed the 16-bit tenant ids"))
    }

    /// The line must be `written`, the writer's spelling of what was read
    /// from it: every accepted file re-serializes to itself, and an
    /// integer above 2^53, which [`Json`] would round, is refused.
    pub fn canonical(&self, written: &str) -> Result<(), String> {
        (self.text == written)
            .then_some(())
            .ok_or_else(|| self.err(format!("not as the writer spells it: {written}")))
    }
}
