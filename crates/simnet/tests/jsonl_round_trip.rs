//! The observation files' readers are the exact inverses of their
//! writers. On random trace and telemetry logs, `from_jsonl(to_jsonl(x))`
//! equals `x` on every exported field and re-serializes to the same
//! bytes. The logs cover every trace kind and packet tag, the "not
//! applicable" sentinels, null and negative telemetry values, sparse
//! ports and fault lists. Their integers are drawn past 2^53 too: the
//! JSON reader holds integers exactly only up to 2^53, so a file holding
//! a larger one must be refused with an error naming one of its lines,
//! never read back rounded.

use silo_base::prop::{forall, Rng, StdRng};
use silo_base::{Dur, Time};
use silo_simnet::telemetry::{GlobalWindow, PortWindow};
use silo_simnet::trace::{NO_CONN, NO_TENANT};
use silo_simnet::{
    PktTag, SelfProfile, TelemetryLog, TenantWindow, TraceEvent, TraceKind, TraceLog,
};

const EXACT: u64 = 1 << 53;

/// An integer field's value: zero, small, anything the reader holds
/// exactly, 2^53 itself, or (when `past`) sometimes just past 2^53 or
/// `u64::MAX`.
fn word(rng: &mut StdRng, past: bool) -> u64 {
    match rng.random_range(0..16u8) {
        0..=2 => 0,
        3..=6 => rng.random_range(0..1000),
        7 => EXACT,
        8 if past => EXACT + rng.random_range(1..4),
        9 if past => u64::MAX,
        _ => rng.random_range(0..EXACT + 1),
    }
}

/// Whether this log may hold integers past 2^53 (a quarter of them).
fn past(rng: &mut StdRng) -> bool {
    rng.random_range(0..4u8) == 0
}

fn gen_trace(rng: &mut StdRng) -> TraceLog {
    let past = past(rng);
    let tenants = [0, 1, 3, u16::MAX as usize][rng.random_range(0..4usize)];
    let events: Vec<TraceEvent> = (0..rng.random_range(0..24usize))
        .map(|_| TraceEvent {
            seq: word(rng, past),
            at: Time(word(rng, past)),
            dur: Dur(word(rng, past)),
            kind: TraceKind::ALL[rng.random_range(0..TraceKind::COUNT)],
            loc: [0, 7, u32::MAX][rng.random_range(0..3usize)],
            aux: word(rng, past),
            conn: [0, 3, NO_CONN][rng.random_range(0..3usize)],
            pseq: word(rng, past),
            size: word(rng, past),
            tenant: match rng.random_range(0..tenants + 1) {
                t if t == tenants => NO_TENANT,
                t => t as u16,
            },
            pk: PktTag::ALL[rng.random_range(0..PktTag::ALL.len())],
            retx: rng.random(),
        })
        .collect();
    let dropped = word(rng, past);
    TraceLog {
        recorded: (events.len() as u64).saturating_add(dropped),
        events,
        dropped,
        port_labels: Vec::new(),
        fault_windows: Vec::new(),
        tenants,
    }
}

fn gen_telemetry(rng: &mut StdRng) -> TelemetryLog {
    let past = past(rng);
    let windows = rng.random_range(1..6u64);
    let w = windows as usize;
    let opt = |rng: &mut StdRng| (rng.random_range(0..3u8) > 0).then(|| word(rng, past));
    let tenants = (0..rng.random_range(0..4usize))
        .map(|_| {
            (0..w)
                .map(|_| TenantWindow {
                    goodput_bytes: word(rng, past),
                    completions: word(rng, past),
                    p99_latency_ps: opt(rng),
                    margin_min_ps: opt(rng).map(|m| match rng.random::<bool>() {
                        true => m as i64,
                        false => (m as i64).wrapping_neg(),
                    }),
                    queue_wait_ps: word(rng, past),
                    token_wait_ps: word(rng, past),
                    rtos: word(rng, past),
                })
                .collect()
        })
        .collect();
    let nports = rng.random_range(0..5usize);
    // Each window's active ports: a port is idle in two windows of three,
    // and an all-zero sample is never kept.
    let window_ports = (0..w)
        .map(|_| {
            (0..nports)
                .filter_map(|p| {
                    let s = (rng.random_range(0..3u8) == 0).then(|| PortWindow {
                        busy_ps: word(rng, past),
                        tx_bytes: word(rng, past),
                        drops: word(rng, past),
                        ce_marks: word(rng, past),
                        depth_bytes: word(rng, past),
                    })?;
                    (s != PortWindow::default()).then_some((p, s))
                })
                .collect()
        })
        .collect();
    let global = (0..w)
        .map(|_| GlobalWindow {
            wire_data_bytes: word(rng, past),
            wire_void_bytes: word(rng, past),
        })
        .collect();
    let window_faults = (0..w)
        .map(|_| {
            let ids = [0, 1, 5, u32::MAX];
            (0..rng.random_range(0..3usize))
                .map(|_| ids[rng.random_range(0..4usize)])
                .collect()
        })
        .collect();
    TelemetryLog {
        interval: Dur(word(rng, past).max(1)),
        windows,
        tenants,
        window_ports,
        global,
        window_faults,
        port_labels: (0..nports).map(|p| format!("sw_p{p}")).collect(),
        self_profile: SelfProfile::default(),
    }
}

/// The 1-based lines of `text` holding an integer whose magnitude is
/// above 2^53.
fn inexact_lines(text: &str) -> Vec<usize> {
    let above = |line: &str| {
        line.split(|c: char| !c.is_ascii_digit())
            .any(|d| !d.is_empty() && d.parse::<u128>().map_or(true, |n| n > EXACT as u128))
    };
    (1..)
        .zip(text.lines())
        .filter(|(_, l)| above(l))
        .map(|(n, _)| n)
        .collect()
}

/// `got`, read back from `text` that a log wrote, is that log on every
/// exported field (`same`) and re-serializes to `text`; or, when `text`
/// holds an integer above 2^53, it is an error naming one of those lines.
fn check<T>(
    text: &str,
    got: Result<T, String>,
    same: impl Fn(&T) -> bool,
    write: impl Fn(&T) -> String,
) -> Result<(), String> {
    let inexact = inexact_lines(text);
    match got {
        Err(e)
            if inexact
                .iter()
                .any(|n| e.starts_with(&format!("line {n}: "))) =>
        {
            Ok(())
        }
        Err(e) => Err(format!("refused ({e}); lines above 2^53: {inexact:?}")),
        Ok(_) if !inexact.is_empty() => Err(format!("read lines {inexact:?} above 2^53")),
        Ok(got) if !same(&got) => Err("read back a different log".into()),
        Ok(got) if write(&got) != text => Err("re-serialized to other bytes".into()),
        Ok(_) => Ok(()),
    }
}

#[test]
fn trace_reader_inverts_the_writer() {
    forall(
        "trace from_jsonl inverts to_jsonl",
        gen_trace,
        |_| Vec::new(),
        |x| {
            let text = x.to_jsonl();
            let same = |y: &TraceLog| {
                (&y.events, y.recorded, y.dropped, y.tenants)
                    == (&x.events, x.recorded, x.dropped, x.tenants)
            };
            check(&text, TraceLog::from_jsonl(&text), same, TraceLog::to_jsonl)
        },
    );
}

#[test]
fn telemetry_reader_inverts_the_writer() {
    forall(
        "telemetry from_jsonl inverts to_jsonl",
        gen_telemetry,
        |_| Vec::new(),
        |x| {
            let text = x.to_jsonl();
            let same = |y: &TelemetryLog| {
                (
                    y.interval,
                    y.windows,
                    &y.tenants,
                    &y.window_ports,
                    &y.global,
                ) == (
                    x.interval,
                    x.windows,
                    &x.tenants,
                    &x.window_ports,
                    &x.global,
                ) && (&y.window_faults, &y.port_labels) == (&x.window_faults, &x.port_labels)
            };
            check(
                &text,
                TelemetryLog::from_jsonl(&text),
                same,
                TelemetryLog::to_jsonl,
            )
        },
    );
}
