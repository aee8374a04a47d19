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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Threads to use when the caller does not pin a count: one per available
/// core, capped by the number of cells (spawning idle workers is free but
/// pointless).
pub fn auto_threads(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cells.max(1))
}

/// Run `f` over every cell on `threads` worker threads and return the
/// results **in cell order**.
///
/// Work is claimed dynamically (an atomic cursor), so stragglers don't
/// serialize the sweep; determinism comes from cells being self-contained
/// and results being re-ordered by index, never from scheduling.
pub fn run_cells<T, R, F>(cells: &[T], threads: usize, f: F) -> Vec<R>
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
        return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    local.push((i, f(i, &cells[i])));
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
}
