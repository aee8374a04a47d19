//! Coverage signatures: what makes a fault schedule *interesting*.
//!
//! A signature compresses one simulated run into a small hashable vector
//! of behavior buckets. Two schedules with equal signatures exercised the
//! engine the same way (same invariant classes tripped at the same order
//! of magnitude, same event-profile shape, trace diverging from the
//! no-fault baseline at the same kind of event in the same region), so
//! only the first of them earns a frontier slot. Log2 bucketing is the
//! whole trick: exact counters would make every schedule "novel" and the
//! frontier would degenerate into the full history.

use silo_base::first_divergence;
use silo_simnet::{EvKind, Metrics, TraceEvent, TraceLog};

/// Log2 bucket of a counter: `0` for zero, else `1 + floor(log2 n)`.
fn bucket(n: u64) -> u8 {
    if n == 0 {
        0
    } else {
        1 + n.ilog2() as u8
    }
}

/// One run's coverage signature. `Hash + Eq`, so novelty is a set probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Bucketed audit violation counters
    /// ([`silo_simnet::AuditReport::counters`]); all zeros when the run
    /// was not audited.
    pub audit: [u8; 8],
    /// Bucketed per-kind fired-event counts
    /// ([`silo_simnet::EventProfile::fired_buckets`]).
    pub fired: [u8; EvKind::COUNT],
    /// Bucketed guarantee-level counters: attributed violations,
    /// unattributed violations, token-bucket violations.
    pub guarantee: [u8; 3],
    /// First divergence from the no-fault baseline trace:
    /// `(kind + 1, bucket(index))` of the first differing trace event, or
    /// `(0, 0)` when the traces are identical. The kind comes from the
    /// faulted run where it has an event at the divergence point, else
    /// from the baseline (the faulted trace ended early).
    pub divergence: (u8, u8),
}

impl Signature {
    /// Extract the signature of `m` against the no-fault `baseline` trace.
    /// `m` must carry a trace (the explorer always runs with observers on).
    pub fn of(m: &Metrics, baseline: &TraceLog) -> Signature {
        let mut audit = [0u8; 8];
        if let Some(a) = &m.audit {
            for (b, &n) in audit.iter_mut().zip(a.counters().iter()) {
                *b = bucket(n);
            }
        }
        let attributed = m.violations.iter().filter(|v| v.fault.is_some()).count() as u64;
        let unattributed = m.violations.len() as u64 - attributed;
        let trace = m.trace.as_ref().expect("explorer runs with tracing on");
        Signature {
            audit,
            fired: m.profile.fired_buckets(),
            guarantee: [
                bucket(attributed),
                bucket(unattributed),
                bucket(m.token_violations),
            ],
            divergence: divergence(&trace.events, &baseline.events),
        }
    }
}

/// `(kind + 1, bucket(index))` of the first trace event differing between
/// the two runs, `(0, 0)` when none does.
fn divergence(run: &[TraceEvent], baseline: &[TraceEvent]) -> (u8, u8) {
    let Some(idx) = first_divergence(run, baseline) else {
        return (0, 0);
    };
    let kind = run
        .get(idx)
        .or_else(|| baseline.get(idx))
        .map_or(0, |e| e.kind as usize as u8 + 1);
    (kind, bucket(idx as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_log2_with_zero_floor() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        assert_eq!(divergence(&[], &[]), (0, 0));
    }
}
