//! Deterministic parallel sweep execution.
//!
//! Every experiment in this crate is a *sweep*: a grid of independent
//! simulation cells (transport mode × tenant class × seed), each of which
//! builds its own `Sim` from plain inputs and returns plain outputs. The
//! runner fans cells across OS threads with [`run_cells`] and collects
//! results **in cell order**, so the output of a sweep is bit-identical
//! whether it ran on 1 thread or 64 — parallelism is purely a wall-clock
//! choice. (Each cell carries its own seeded RNG; nothing is shared, so
//! scheduling order cannot leak into results.)
//!
//! The runner also defines the `BENCH_*.json` reporting format: per-cell
//! wall-clock, simulator events/sec, and peak event-queue depth, plus the
//! machine context (core count, thread count) needed to read the numbers
//! honestly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Threads to use when the caller does not pin a count: one per available
/// core, capped by the number of cells (spawning idle workers is free but
/// pointless).
pub fn auto_threads(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cells.max(1))
}

/// A cell's result plus how long that cell took on its worker thread.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    pub result: R,
    pub wall: Duration,
}

/// Run `f` over every cell on `threads` worker threads and return the
/// results **in cell order**, each with its wall-clock time.
///
/// Work is claimed dynamically (an atomic cursor), so stragglers don't
/// serialize the sweep; determinism comes from cells being self-contained
/// and results being re-ordered by index, never from scheduling.
pub fn run_cells_timed<T, R, F>(cells: &[T], threads: usize, f: F) -> Vec<Timed<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, cells.len().max(1));
    if threads <= 1 {
        // One worker (or one cell): run inline on the caller thread.
        // Spawning a scoped worker here costs a thread create/join plus a
        // mutex round-trip per sweep for zero parallelism.
        return cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let t0 = Instant::now();
                let result = f(i, c);
                Timed {
                    result,
                    wall: t0.elapsed(),
                }
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Timed<R>)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, Timed<R>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let t0 = Instant::now();
                    let result = f(i, &cells[i]);
                    local.push((
                        i,
                        Timed {
                            result,
                            wall: t0.elapsed(),
                        },
                    ));
                }
                done.lock().expect("no worker panicked").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("no worker panicked");
    assert_eq!(done.len(), cells.len(), "every cell produced a result");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// [`run_cells_timed`] without the timing wrapper.
pub fn run_cells<T, R, F>(cells: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_cells_timed(cells, threads, f)
        .into_iter()
        .map(|t| t.result)
        .collect()
}

// ----------------------------------------------------------------------
// BENCH_*.json reporting
// ----------------------------------------------------------------------

/// One line of a `BENCH_*.json` report: what a cell was and what it cost.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// `"<mode>/<workload-or-class>/seed<k>"`-style identifier.
    pub label: String,
    /// Worker-thread wall-clock for this cell, seconds.
    pub wall_s: f64,
    /// Simulator events dispatched inside the cell.
    pub events: u64,
    /// Peak pending-event queue depth inside the cell.
    pub peak_event_queue: u64,
}

impl BenchCell {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A machine-readable benchmark report (hand-rolled JSON: the workspace
/// is deliberately dependency-free).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name; written to `BENCH_<name>.json`.
    pub name: String,
    /// Free-form notes (measurement caveats belong here, e.g. the core
    /// count the numbers were taken on).
    pub notes: String,
    /// Cores the machine exposed and threads the sweep used.
    pub host_cores: usize,
    pub threads: usize,
    /// Wall-clock for the whole sweep (includes thread orchestration).
    pub total_wall_s: f64,
    pub cells: Vec<BenchCell>,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl BenchReport {
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Sum of per-cell wall-clocks — the serial-equivalent cost, so
    /// `cell_wall_s / total_wall_s` is the realized parallel speedup.
    pub fn cell_wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.cells.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", esc(&self.name)));
        out.push_str(&format!("  \"notes\": \"{}\",\n", esc(&self.notes)));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"total_wall_s\": {:.6},\n", self.total_wall_s));
        out.push_str(&format!(
            "  \"cell_wall_s\": {:.6},\n  \"speedup\": {:.3},\n",
            self.cell_wall_s(),
            if self.total_wall_s > 0.0 {
                self.cell_wall_s() / self.total_wall_s
            } else {
                0.0
            }
        ));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"wall_s\": {:.6}, \"events\": {}, \"events_per_sec\": {:.0}, \"peak_event_queue\": {}}}{}\n",
                esc(&c.label),
                c.wall_s,
                c.events,
                c.events_per_sec(),
                c.peak_event_queue,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `dir` and return the path.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_order_for_any_thread_count() {
        let cells: Vec<u64> = (0..97).collect();
        let serial = run_cells(&cells, 1, |i, &c| (i as u64) * 1_000 + c * c);
        for threads in [2, 3, 8, 64] {
            let par = run_cells(&cells, threads, |i, &c| (i as u64) * 1_000 + c * c);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn timed_results_carry_positive_wall() {
        let cells = [10_000u64, 20_000];
        let timed = run_cells_timed(&cells, 2, |_, &n| {
            (0..n).map(|x| x.wrapping_mul(x)).sum::<u64>()
        });
        assert_eq!(timed.len(), 2);
        for t in &timed {
            assert!(t.wall.as_nanos() > 0);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let r = BenchReport {
            name: "unit".into(),
            notes: "a \"quoted\" note".into(),
            host_cores: 8,
            threads: 2,
            total_wall_s: 1.5,
            cells: vec![BenchCell {
                label: "Silo/seed1".into(),
                wall_s: 0.5,
                events: 1000,
                peak_event_queue: 42,
            }],
        };
        let j = r.to_json();
        assert!(j.contains("\"events_per_sec\": 2000"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"speedup\": 0.333"));
        assert!(j.ends_with("}\n"));
    }
}
