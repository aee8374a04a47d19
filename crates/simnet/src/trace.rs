//! Flight-recorder tracing: bounded-memory per-packet lifecycle capture.
//!
//! The recorder is attached to the engine when `SimConfig::trace` is
//! set. It records one [`TraceEvent`] per packet lifecycle step — enqueue,
//! wire-start (with the head-of-line wait), NIC frame emission, pacer
//! token wait, delivery, drops, RTO spans, message completions — plus
//! fault edges, into fixed-capacity per-host ring buffers. When a ring is
//! full the *oldest* event is evicted (flight-recorder semantics: the
//! most recent history survives), so memory stays bounded no matter how
//! long the run is. Like every observer it is pure observation; the
//! engine reaches it only through the observation spine (`observe.rs`).
//!
//! Every event gets a globally monotone sequence number at record time,
//! which gives the merged log a deterministic total order — the property
//! `silo-obs diff` relies on to report the *first* divergent event
//! between two runs.
//!
//! Ring attribution keeps one packet's whole lifecycle in one ring: every
//! event of a packet lands in the ring of the host that emitted it
//! (`src_host` for data, `dst_host` for ACKs), void frames land in their
//! NIC's host ring, and fault edges land in a small global ring.
//!
//! **Memory behaviour.** A hook never writes a ring. It appends its
//! packed 56-byte record to one sequential staging buffer of
//! `STAGE_RECORDS` entries, and `flush` (when the buffer fills, and at
//! the top of `finish`) moves the records to their rings in record
//! order. A ring line is cold by the time it is overwritten, and x86
//! commits stores in order: written from the hook, every such miss holds
//! up the stores behind it; written back to back from one loop, the
//! misses overlap each other instead (DESIGN.md, "observer cost is
//! store-miss latency"). The hooks run on the observer worker thread
//! (`observe.rs`), where staging still cuts that thread's busy time by a
//! tenth. Staging changes *when* a ring is written,
//! never what or in which order, so retention, eviction counts and `seq`
//! are those of an immediate write (`staged_sink_matches_the_reference`
//! holds it to one).

use crate::faults::FaultWindow;
use crate::jsonl;
use crate::telemetry::us;
use silo_base::{Dur, Json, Time};

/// Ring-buffer sizing for the flight recorder. A ring holds packed
/// 56-byte records, so the defaults keep a worst-case full trace at
/// 3.5 MiB per host (64 Ki events × 56 B) plus 224 KiB for the global
/// ring, while holding several batch windows of history at 10 GbE line
/// rate — see DESIGN.md for the sizing record.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Events retained per host ring (oldest evicted beyond this; at
    /// least one, or [`crate::SimConfig::validate`] refuses the run).
    pub per_host_cap: usize,
    /// Events retained in the global ring (fault edges; at least one).
    pub global_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            per_host_cap: 65_536,
            global_cap: 4_096,
        }
    }
}

/// What a trace event marks. Span kinds carry a non-zero duration
/// (`dur` = the span length, `at` = its start); instant kinds have
/// `dur == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Packet accepted into a port FIFO (`loc` = port, `aux` = queued
    /// bytes after the enqueue).
    Enqueue,
    /// Port begins transmitting a packet (span: `dur` = serialization
    /// time, `aux` = head-of-line wait in ps since its enqueue).
    WireStart,
    /// Paced NIC puts a data frame on the host wire (span; `loc` = host).
    NicData,
    /// Paced NIC puts a void frame on the host wire (span; `loc` = host).
    NicVoid,
    /// Pacer token-bucket wait: the stamp lies in the future (span from
    /// now to the stamp; `loc` = host, `aux` = VM).
    TokenWait,
    /// An RTO fired (span from arming to firing; `loc` = src host).
    RtoFire,
    /// Packet fully received at its destination (`loc` = host).
    Deliver,
    /// Application message completed (span from creation to delivery;
    /// `loc` = destination host, `size` = message bytes).
    MsgDone,
    /// Tail drop at a full port FIFO (`loc` = port, `aux` = queued bytes).
    DropTail,
    /// Packet black-holed by an injected fault (`loc` = port,
    /// `aux` = fault index).
    DropFault,
    /// An injected fault strikes (`loc` = fault index; global ring).
    FaultStart,
    /// An injected fault heals (`loc` = fault index; global ring).
    FaultEnd,
}

impl TraceKind {
    pub const COUNT: usize = 12;
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::Enqueue,
        TraceKind::WireStart,
        TraceKind::NicData,
        TraceKind::NicVoid,
        TraceKind::TokenWait,
        TraceKind::RtoFire,
        TraceKind::Deliver,
        TraceKind::MsgDone,
        TraceKind::DropTail,
        TraceKind::DropFault,
        TraceKind::FaultStart,
        TraceKind::FaultEnd,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::WireStart => "wire_start",
            TraceKind::NicData => "nic_data",
            TraceKind::NicVoid => "nic_void",
            TraceKind::TokenWait => "token_wait",
            TraceKind::RtoFire => "rto_fire",
            TraceKind::Deliver => "deliver",
            TraceKind::MsgDone => "msg_done",
            TraceKind::DropTail => "drop_tail",
            TraceKind::DropFault => "drop_fault",
            TraceKind::FaultStart => "fault_start",
            TraceKind::FaultEnd => "fault_end",
        }
    }

    /// Spans render as Perfetto complete events; the rest as instants.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceKind::WireStart
                | TraceKind::NicData
                | TraceKind::NicVoid
                | TraceKind::TokenWait
                | TraceKind::RtoFire
                | TraceKind::MsgDone
        )
    }
}

/// What kind of wire object an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktTag {
    Data,
    Ack,
    Void,
    /// Event not tied to a packet (faults, message completions).
    None,
}

impl PktTag {
    pub const ALL: [PktTag; 4] = [PktTag::Data, PktTag::Ack, PktTag::Void, PktTag::None];

    pub fn label(self) -> &'static str {
        match self {
            PktTag::Data => "data",
            PktTag::Ack => "ack",
            PktTag::Void => "void",
            PktTag::None => "none",
        }
    }
}

/// One recorded event. Flat and `Copy`; field meaning varies per
/// [`TraceKind`] (documented on the variants). `u32::MAX` / `u16::MAX`
/// mean "not applicable".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (monotone across all rings).
    pub seq: u64,
    /// Event instant, or span start.
    pub at: Time,
    /// Span length (zero for instants).
    pub dur: Dur,
    pub kind: TraceKind,
    /// Location: port id, host id, or fault index (kind-dependent).
    pub loc: u32,
    /// Auxiliary value: queue depth, head-of-line wait (ps), VM id, or
    /// fault index (kind-dependent).
    pub aux: u64,
    /// Owning connection (`u32::MAX` when not packet-bound).
    pub conn: u32,
    /// Packet stream sequence (data: first stream byte; ack: cumulative).
    pub pseq: u64,
    /// Wire or message size in bytes.
    pub size: u64,
    /// Owning tenant (`u16::MAX` when not tenant-bound).
    pub tenant: u16,
    pub pk: PktTag,
    pub retx: bool,
}

pub const NO_CONN: u32 = u32::MAX;
pub const NO_TENANT: u16 = u16::MAX;

impl TraceEvent {
    /// The event's `silo-trace-v1` row as the writer spells it.
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_ps\":{},\"dur_ps\":{},\"kind\":\"{}\",\"loc\":{},\"aux\":{},\"conn\":{},\"pseq\":{},\"size\":{},\"tenant\":{},\"pkt\":\"{}\",\"retx\":{}}}",
            self.seq,
            self.at.0,
            self.dur.0,
            self.kind.label(),
            self.loc,
            self.aux,
            self.conn,
            self.pseq,
            self.size,
            self.tenant,
            self.pk.label(),
            self.retx,
        )
    }
}

/// An event tied to no packet: every packet field "not applicable".
#[inline]
fn untied(kind: TraceKind, at: Time, dur: Dur, loc: u32) -> TraceEvent {
    TraceEvent {
        seq: 0,
        at,
        dur,
        kind,
        loc,
        aux: 0,
        conn: NO_CONN,
        pseq: 0,
        size: 0,
        tenant: NO_TENANT,
        pk: PktTag::None,
        retx: false,
    }
}

/// The packet-identity fields shared by every packet-bound event,
/// resolved once per lifecycle point by the observation spine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PktMeta {
    /// Ring attribution: the host that emitted this packet.
    pub host: u32,
    pub conn: u32,
    pub tenant: u16,
    pub pk: PktTag,
    pub pseq: u64,
    pub size: u64,
    pub retx: bool,
}

/// What a ring holds: a [`TraceEvent`] in 56 bytes (72 unpacked).
/// `kind`, `pk` and `retx` share two bytes, and `size` is a `u32`: every
/// packet-bound size is a wire size (`Pkt::size`, or a void frame no
/// larger than the MTU), which fits. The one size that can be wider is a
/// completed message's, and that event has no packet sequence, so a wide
/// size rides in the `pseq` slot under [`Rec::WIDE_SIZE`].
#[derive(Debug, Clone, Copy)]
struct Rec {
    seq: u64,
    at: u64,
    dur: u64,
    aux: u64,
    pseq: u64,
    loc: u32,
    conn: u32,
    size: u32,
    tenant: u16,
    kind: u8,
    /// Bits 0–1 the [`PktTag`], then [`Rec::RETX`] and [`Rec::WIDE_SIZE`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Rec>() <= 56);

impl Rec {
    const RETX: u8 = 1 << 2;
    const WIDE_SIZE: u8 = 1 << 3;

    #[inline]
    fn pack(ev: &TraceEvent) -> Rec {
        let mut flags = ev.pk as u8;
        if ev.retx {
            flags |= Rec::RETX;
        }
        let (size, pseq) = match u32::try_from(ev.size) {
            Ok(size) => (size, ev.pseq),
            Err(_) => {
                assert_eq!(
                    ev.pseq, 0,
                    "a size wider than a wire size on an event with a packet sequence"
                );
                flags |= Rec::WIDE_SIZE;
                (0, ev.size)
            }
        };
        Rec {
            seq: ev.seq,
            at: ev.at.0,
            dur: ev.dur.0,
            aux: ev.aux,
            pseq,
            loc: ev.loc,
            conn: ev.conn,
            size,
            tenant: ev.tenant,
            kind: ev.kind as u8,
            flags,
        }
    }

    fn unpack(&self) -> TraceEvent {
        let (size, pseq) = if self.flags & Rec::WIDE_SIZE != 0 {
            (self.pseq, 0)
        } else {
            (self.size as u64, self.pseq)
        };
        TraceEvent {
            seq: self.seq,
            at: Time(self.at),
            dur: Dur(self.dur),
            kind: TraceKind::ALL[self.kind as usize],
            loc: self.loc,
            aux: self.aux,
            conn: self.conn,
            pseq,
            size,
            tenant: self.tenant,
            pk: PktTag::ALL[(self.flags & 3) as usize],
            retx: self.flags & Rec::RETX != 0,
        }
    }
}

/// Fixed-capacity record ring: oldest evicted first. `buf` grows to
/// `cap`; from then on `head` is the oldest record and the next one
/// overwritten.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<Rec>,
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Ring {
    /// `cap > 0` ([`crate::SimConfig::validate`] refuses an empty ring).
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap.min(1024)),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: Rec) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
            return;
        }
        self.buf[self.head] = rec;
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.dropped += 1;
    }

    /// Surviving records, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Rec> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }
}

/// Records staged between two flushes: 1 024 × 64 B = 64 KB, written
/// front to back. Enough for a flush to keep many ring-line misses in
/// flight at once, and small beside the engine's own working set in a
/// 2–4 MB L2: on the all-observers cell 512–2 048 records measured alike,
/// 64 and 4 096 about 2–7 % slower, 16 384 another 8 % (DESIGN.md has
/// the sweep).
const STAGE_RECORDS: usize = 1024;

/// A record on its way to `rings[ring]`.
#[derive(Debug, Clone, Copy)]
struct Staged {
    rec: Rec,
    ring: u32,
}

/// The flight recorder attached to a running simulation.
#[derive(Debug)]
pub(crate) struct TraceSink {
    /// One ring per host, then the global ring.
    rings: Vec<Ring>,
    stage: Vec<Staged>,
    next_seq: u64,
}

impl TraceSink {
    pub fn new(cfg: &TraceConfig, num_hosts: usize) -> TraceSink {
        let mut rings: Vec<Ring> = (0..num_hosts)
            .map(|_| Ring::new(cfg.per_host_cap))
            .collect();
        rings.push(Ring::new(cfg.global_cap));
        TraceSink {
            rings,
            stage: Vec::with_capacity(STAGE_RECORDS),
            next_seq: 0,
        }
    }

    /// Always inlined, with the hooks: the event is then built in the
    /// caller's registers and reaches the staging buffer by plain stores.
    /// Out of line it went through the stack and came back as a 16-byte
    /// load spanning two 8-byte stores, which cannot be store-forwarded
    /// and waits for every older store to commit: the in-order stall that
    /// staging is there to avoid (8.5 % self time on that one load).
    #[inline(always)]
    fn record(&mut self, host: Option<u32>, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        let global = self.rings.len() - 1;
        let ring = match host {
            Some(h) => {
                assert!(
                    (h as usize) < global,
                    "trace event for host {h} of {global}"
                );
                h as usize
            }
            None => global,
        };
        if self.stage.len() == STAGE_RECORDS {
            self.flush();
        }
        self.stage.push(Staged {
            rec: Rec::pack(&ev),
            ring: ring as u32,
        });
    }

    /// Move the staged records to their rings, in record order.
    #[cold]
    fn flush(&mut self) {
        for s in &self.stage {
            self.rings[s.ring as usize].push(s.rec);
        }
        self.stage.clear();
    }

    /// One step of a packet's lifecycle, into the ring of the host that
    /// emitted it; `at`, `dur`, `loc` and `aux` mean what `kind` says.
    #[inline]
    pub fn packet(&mut self, kind: TraceKind, at: Time, dur: Dur, loc: u32, aux: u64, m: PktMeta) {
        let ev = TraceEvent {
            seq: 0,
            at,
            dur,
            kind,
            loc,
            aux,
            conn: m.conn,
            pseq: m.pseq,
            size: m.size,
            tenant: m.tenant,
            pk: m.pk,
            retx: m.retx,
        };
        self.record(Some(m.host), ev);
    }

    #[inline]
    pub fn nic_void(&mut self, host: u32, start: Time, tx: Dur, size: u64) {
        let ev = TraceEvent {
            size,
            pk: PktTag::Void,
            ..untied(TraceKind::NicVoid, start, tx, host)
        };
        self.record(Some(host), ev);
    }

    /// An RTO fired: span from its arming instant to now.
    #[inline]
    pub fn rto_fire(&mut self, armed: Time, now: Time, host: u32, conn: u32, tenant: u16) {
        let ev = TraceEvent {
            conn,
            tenant,
            ..untied(TraceKind::RtoFire, armed, now.since(armed), host)
        };
        self.record(Some(host), ev);
    }

    /// Application message completed: span from creation to delivery.
    #[inline]
    pub fn msg_done(&mut self, created: Time, now: Time, host: u32, tenant: u16, size: u64) {
        let ev = TraceEvent {
            size,
            tenant,
            ..untied(TraceKind::MsgDone, created, now.since(created), host)
        };
        self.record(Some(host), ev);
    }

    /// A fault edge (global ring).
    #[inline]
    pub fn fault(&mut self, now: Time, idx: u32, start: bool) {
        let kind = if start {
            TraceKind::FaultStart
        } else {
            TraceKind::FaultEnd
        };
        self.record(None, untied(kind, now, Dur::ZERO, idx));
    }

    /// Merge the rings into the final log: all surviving events in global
    /// record order, plus bookkeeping for the exporters.
    pub fn finish(
        mut self,
        port_labels: Vec<String>,
        fault_windows: Vec<FaultWindow>,
        tenants: usize,
    ) -> TraceLog {
        self.flush();
        let recorded = self.next_seq;
        let dropped = self.rings.iter().map(|r| r.dropped).sum::<u64>();
        let retained = self.rings.iter().map(|r| r.buf.len()).sum();
        let mut events: Vec<TraceEvent> = Vec::with_capacity(retained);
        for r in &self.rings {
            events.extend(r.iter().map(Rec::unpack));
        }
        // Record order is the deterministic total order of the trace.
        events.sort_unstable_by_key(|e| e.seq);
        // Ring accounting must balance: every event ever recorded either
        // survived in some ring or bumped that ring's eviction counter.
        // Fault drops recorded while rings are already evicting are the
        // easy way to break this silently, so it is checked at merge time
        // on every traced run rather than trusted by inspection.
        assert_eq!(
            events.len() as u64 + dropped,
            recorded,
            "trace ring accounting broken: retained + dropped != recorded"
        );
        TraceLog {
            events,
            recorded,
            dropped,
            port_labels,
            fault_windows,
            tenants,
        }
    }
}

/// A finished trace: the merged, seq-ordered event log plus the run
/// context the exporters need. Carried in `Metrics::trace` but — like
/// `profile` and `audit` — deliberately absent from both metric
/// serializations, so traced and untraced runs stay byte-comparable.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Surviving events, sorted by `seq` (global record order).
    pub events: Vec<TraceEvent>,
    /// Total events ever recorded (`events.len() + dropped` — the ring
    /// accounting invariant, asserted when the rings are merged).
    pub recorded: u64,
    /// Events evicted from full rings (0 ⇒ the trace is complete).
    pub dropped: u64,
    /// Display label per port id (switch/NIC ports, then per-host
    /// loopbacks). Not in the JSONL: empty in a log read back from it.
    pub port_labels: Vec<String>,
    /// Realized fault windows (for Perfetto markers). Not in the JSONL
    /// either.
    pub fault_windows: Vec<FaultWindow>,
    /// Number of tenants in the run (Perfetto track layout).
    pub tenants: usize,
}

impl TraceLog {
    /// Count of surviving events of one kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// The `format` tag of a `silo-trace-v1` file's header.
    pub const FORMAT: &'static str = "silo-trace-v1";

    /// The header's fields after its `format` tag, as the writer spells
    /// them.
    pub fn header_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("events", self.events.len().to_string()),
            ("dropped", self.dropped.to_string()),
            ("tenants", self.tenants.to_string()),
        ]
    }

    /// Compact deterministic JSONL dump: the header line, then one
    /// [`TraceEvent::jsonl`] row per event, all times exact integer
    /// picoseconds. This is the interchange format `silo-obs` consumes;
    /// two runs are identical iff their dumps are byte-identical.
    pub fn to_jsonl(&self) -> String {
        let rows = self.events.iter().map(TraceEvent::jsonl);
        jsonl::write(Self::FORMAT, &self.header_fields(), rows)
    }

    /// Read a `silo-trace-v1` file back: the inverse of
    /// [`TraceLog::to_jsonl`], except that a line holding an integer above
    /// 2^53 (which the JSON reader would round) is refused. The file does
    /// not carry `port_labels` or `fault_windows`: a read log leaves them
    /// empty, and its `recorded` is `events + dropped`.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        let (h, lines) = jsonl::read(text, Self::FORMAT)?;
        let (events, dropped, tenants): (u64, u64, _) =
            (h.u64("events")?, h.u64("dropped")?, h.tenants()?);
        let mut log = TraceLog {
            events: Vec::new(),
            recorded: events + dropped,
            dropped,
            port_labels: Vec::new(),
            fault_windows: Vec::new(),
            tenants,
        };
        for r in lines {
            let r = r?;
            let tenant = match r.u64("tenant")? {
                NO_TENANT => NO_TENANT,
                _ => r.id("tenant", tenants as u64)? as u16,
            };
            let e = TraceEvent {
                seq: r.u64("seq")?,
                at: Time(r.u64("t_ps")?),
                dur: Dur(r.u64("dur_ps")?),
                kind: r.label("kind", &TraceKind::ALL, TraceKind::label)?,
                loc: r.u64("loc")?,
                aux: r.u64("aux")?,
                conn: r.u64("conn")?,
                pseq: r.u64("pseq")?,
                size: r.u64("size")?,
                tenant,
                pk: r.label("pkt", &PktTag::ALL, PktTag::label)?,
                retx: r.get("retx", "bool", Json::as_bool)?,
            };
            r.canonical(&e.jsonl())?;
            log.events.push(e);
        }
        if log.events.len() as u64 != events {
            return Err(format!(
                "header claims {events} events, file holds {}",
                log.events.len()
            ));
        }
        h.canonical(
            jsonl::write(Self::FORMAT, &log.header_fields(), std::iter::empty()).trim_end(),
        )?;
        Ok(log)
    }

    /// Chrome/Perfetto `trace_event` JSON (load at `ui.perfetto.dev`).
    /// Track layout: pid 1 = fabric ports (one thread per port), pid 2 =
    /// host NICs (one thread per host), pid 3 = tenants (one thread per
    /// tenant, carrying message spans and RTO spans). Fault windows
    /// render as global instant markers. Timestamps are microseconds
    /// (the format's unit), emitted at fixed 6-decimal (= picosecond)
    /// precision so the export is deterministic.
    pub fn to_perfetto(&self) -> String {
        self.to_perfetto_with_counters(None)
    }

    /// Same export with a telemetry log's counter tracks (pid 4) spliced
    /// into the event stream — one file shows packet lifecycles and the
    /// windowed per-tenant goodput/margin series on a shared time axis.
    pub fn to_perfetto_with_counters(
        &self,
        telemetry: Option<&crate::telemetry::TelemetryLog>,
    ) -> String {
        let mut out = String::with_capacity(192 * self.events.len() + 4096);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, s: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&s);
        };
        for (pid, name) in [(1, "fabric ports"), (2, "host NICs"), (3, "tenants")] {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for (i, label) in self.port_labels.iter().enumerate() {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{label}\"}}}}"
                ),
            );
        }
        for t in 0..self.tenants {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":{t},\"args\":{{\"name\":\"tenant {t}\"}}}}"
                ),
            );
        }
        for w in &self.fault_windows {
            for (edge, t) in [("start", w.start), ("end", w.end)] {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"fault {}: {} {edge}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":1,\"tid\":0}}",
                        w.fault,
                        w.label,
                        us(t.0),
                    ),
                );
            }
        }
        for e in &self.events {
            let (pid, tid) = match e.kind {
                TraceKind::Enqueue
                | TraceKind::WireStart
                | TraceKind::DropTail
                | TraceKind::DropFault => (1, e.loc as usize),
                TraceKind::NicData | TraceKind::NicVoid | TraceKind::TokenWait => {
                    (2, e.loc as usize)
                }
                TraceKind::Deliver => (2, e.loc as usize),
                TraceKind::MsgDone | TraceKind::RtoFire => (3, e.tenant as usize),
                TraceKind::FaultStart | TraceKind::FaultEnd => (1, 0),
            };
            let name = match e.kind {
                TraceKind::NicData | TraceKind::NicVoid | TraceKind::WireStart => {
                    format!("{} {}", e.kind.label(), e.pk.label())
                }
                _ => e.kind.label().to_string(),
            };
            let args = format!(
                "{{\"seq\":{},\"conn\":{},\"pseq\":{},\"size\":{},\"tenant\":{},\"aux\":{},\"retx\":{}}}",
                e.seq, e.conn, e.pseq, e.size, e.tenant, e.aux, e.retx
            );
            if e.kind.is_span() {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        us(e.at.0),
                        us(e.dur.0),
                    ),
                );
            } else {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        us(e.at.0),
                    ),
                );
            }
        }
        if let Some(tel) = telemetry {
            tel.write_perfetto_counters(&mut out, &mut first);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EvKind;
    use silo_base::prop::{self, Rng};
    use std::collections::VecDeque;

    fn mk(kind: TraceKind, seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            at: Time::from_us(seq),
            dur: Dur::ZERO,
            kind,
            loc: 0,
            aux: 0,
            conn: NO_CONN,
            pseq: 0,
            size: 0,
            tenant: NO_TENANT,
            pk: PktTag::None,
            retx: false,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(Rec::pack(&mk(TraceKind::Enqueue, i)));
        }
        assert_eq!(r.dropped, 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "most recent history survives");
    }

    /// Every kind, tag and flag with every other field at its widest:
    /// the "not applicable" sentinels, full-width `aux`, and either a
    /// full-width `pseq` beside the largest wire size or a size above
    /// `u32::MAX` (a message's) beside the `pseq` of 0 it comes with.
    #[test]
    fn packed_record_round_trips_every_kind_tag_and_extreme() {
        let wide = u32::MAX as u64 + 1;
        for kind in TraceKind::ALL {
            for pk in PktTag::ALL {
                for retx in [false, true] {
                    for (size, pseq) in [(wide, 0), (u64::MAX, 0), (u32::MAX as u64, u64::MAX)] {
                        let ev = TraceEvent {
                            seq: u64::MAX,
                            at: Time(u64::MAX),
                            dur: Dur(u64::MAX),
                            kind,
                            loc: u32::MAX,
                            aux: u64::MAX,
                            conn: NO_CONN,
                            pseq,
                            size,
                            tenant: NO_TENANT,
                            pk,
                            retx,
                        };
                        assert_eq!(Rec::pack(&ev).unpack(), ev);
                    }
                    let plain = TraceEvent {
                        pk,
                        retx,
                        ..mk(kind, 7)
                    };
                    assert_eq!(Rec::pack(&plain).unpack(), plain);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Differential oracle: the recorder as it was before staging and
    // packing. Each ring is a `VecDeque` of whole events and `record`
    // writes it at once.
    // ------------------------------------------------------------------

    struct RefRing {
        buf: VecDeque<TraceEvent>,
        cap: usize,
        dropped: u64,
    }

    impl RefRing {
        fn new(cap: usize) -> RefRing {
            RefRing {
                buf: VecDeque::new(),
                cap,
                dropped: 0,
            }
        }

        fn push(&mut self, ev: TraceEvent) {
            if self.buf.len() == self.cap {
                self.buf.pop_front();
                self.dropped += 1;
            }
            self.buf.push_back(ev);
        }
    }

    struct RefSink {
        rings: Vec<RefRing>,
        global: RefRing,
        next_seq: u64,
    }

    impl RefSink {
        fn new(cfg: &TraceConfig, num_hosts: usize) -> RefSink {
            RefSink {
                rings: (0..num_hosts)
                    .map(|_| RefRing::new(cfg.per_host_cap))
                    .collect(),
                global: RefRing::new(cfg.global_cap),
                next_seq: 0,
            }
        }

        fn record(&mut self, host: Option<u32>, mut ev: TraceEvent) {
            ev.seq = self.next_seq;
            self.next_seq += 1;
            match host {
                Some(h) => self.rings[h as usize].push(ev),
                None => self.global.push(ev),
            }
        }

        /// `(events, dropped, recorded)` as `TraceSink::finish` reports.
        fn finish(self) -> (Vec<TraceEvent>, u64, u64) {
            let mut dropped = self.global.dropped;
            let mut events: Vec<TraceEvent> = self.global.buf.into_iter().collect();
            for r in self.rings {
                dropped += r.dropped;
                events.extend(r.buf);
            }
            events.sort_unstable_by_key(|e| e.seq);
            (events, dropped, self.next_seq)
        }
    }

    /// One recorder's whole life: its shape and what it is told to record.
    #[derive(Debug, Clone)]
    struct Script {
        hosts: usize,
        per_host_cap: usize,
        global_cap: usize,
        steps: Vec<(Option<u32>, TraceEvent)>,
    }

    fn gen_script(rng: &mut prop::StdRng) -> Script {
        const CAPS: [usize; 3] = [1, 3, 64];
        let hosts = rng.random_range(1..6usize);
        // Below, at and several times the staging size, with a remainder.
        let len = match rng.random_range(0..4u8) {
            0 => rng.random_range(0..STAGE_RECORDS),
            1 => STAGE_RECORDS,
            _ => rng.random_range(2..5usize) * STAGE_RECORDS + rng.random_range(1..STAGE_RECORDS),
        };
        let word = |rng: &mut prop::StdRng| match rng.random_range(0..4u8) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.random_range(0..1000u64),
            _ => rng.random::<u64>(),
        };
        let steps = (0..len)
            .map(|_| {
                let host = (!rng.random_bool(0.1)).then(|| rng.random_range(0..hosts as u32));
                let pseq = word(rng);
                let size = if pseq == 0 {
                    word(rng)
                } else {
                    rng.random_range(0..1u64 << 32)
                };
                let ev = TraceEvent {
                    seq: 0,
                    at: Time(word(rng)),
                    dur: Dur(word(rng)),
                    kind: TraceKind::ALL[rng.random_range(0..TraceKind::COUNT)],
                    loc: word(rng) as u32,
                    aux: word(rng),
                    conn: word(rng) as u32,
                    pseq,
                    size,
                    tenant: word(rng) as u16,
                    pk: PktTag::ALL[rng.random_range(0..4usize)],
                    retx: rng.random::<bool>(),
                };
                (host, ev)
            })
            .collect();
        Script {
            hosts,
            per_host_cap: CAPS[rng.random_range(0..3usize)],
            global_cap: CAPS[rng.random_range(0..3usize)],
            steps,
        }
    }

    /// Shorter scripts first (halves, then the ends; whole-vector clones,
    /// so never one candidate per step of a script thousands of steps long), then
    /// fewer hosts and smaller rings.
    fn shrink_script(s: &Script) -> Vec<Script> {
        let n = s.steps.len();
        let mut out = Vec::new();
        let mut keep = |range: std::ops::Range<usize>| {
            out.push(Script {
                steps: s.steps[range].to_vec(),
                ..s.clone()
            })
        };
        if n > 1 {
            keep(0..n / 2);
            keep(n / 2..n);
        }
        if n > 0 {
            keep(0..n - 1);
            keep(1..n);
        }
        if s.hosts > 1 {
            out.push(Script {
                hosts: 1,
                steps: s.steps.iter().map(|&(h, ev)| (h.map(|_| 0), ev)).collect(),
                ..s.clone()
            });
        }
        for cap in [1, 3] {
            if cap < s.per_host_cap {
                out.push(Script {
                    per_host_cap: cap,
                    ..s.clone()
                });
            }
            if cap < s.global_cap {
                out.push(Script {
                    global_cap: cap,
                    ..s.clone()
                });
            }
        }
        out
    }

    /// The staged, packed sink against the reference: same surviving
    /// events, same eviction count, same total. The sink runs under
    /// `catch_unwind` so that a panic in it (`finish` asserts its own
    /// accounting) is a failure to shrink, not the end of the test.
    fn check_script(s: &Script) -> Result<(), String> {
        let cfg = TraceConfig {
            per_host_cap: s.per_host_cap,
            global_cap: s.global_cap,
        };
        let got = std::panic::catch_unwind(|| {
            let mut sink = TraceSink::new(&cfg, s.hosts);
            for &(host, ev) in &s.steps {
                sink.record(host, ev);
            }
            sink.finish(Vec::new(), Vec::new(), 0)
        })
        .map_err(|_| "the sink panicked (its message is on stderr)".to_string())?;
        let mut want = RefSink::new(&cfg, s.hosts);
        for &(host, ev) in &s.steps {
            want.record(host, ev);
        }
        let (events, dropped, recorded) = want.finish();
        if (got.dropped, got.recorded) != (dropped, recorded) {
            return Err(format!(
                "dropped {} of {} recorded; the reference {dropped} of {recorded}",
                got.dropped, got.recorded
            ));
        }
        if got.events.len() != events.len() {
            return Err(format!(
                "{} events retained; the reference {}",
                got.events.len(),
                events.len()
            ));
        }
        match got.events.iter().zip(&events).find(|(g, w)| g != w) {
            Some((g, w)) => Err(format!("retained {g:?}; the reference {w:?}")),
            None => Ok(()),
        }
    }

    #[test]
    fn staged_sink_matches_the_reference() {
        prop::forall(
            "staged_packed_sink_vs_reference",
            gen_script,
            shrink_script,
            check_script,
        );
    }

    #[test]
    fn finish_merges_in_record_order() {
        let cfg = TraceConfig::default();
        let mut s = TraceSink::new(&cfg, 2);
        let m0 = PktMeta {
            host: 0,
            conn: 1,
            tenant: 0,
            pk: PktTag::Data,
            pseq: 0,
            size: 1500,
            retx: false,
        };
        let m1 = PktMeta { host: 1, ..m0 };
        s.packet(TraceKind::Enqueue, Time::from_us(1), Dur::ZERO, 3, 1500, m0);
        s.packet(TraceKind::Enqueue, Time::from_us(2), Dur::ZERO, 4, 1500, m1);
        s.fault(Time::from_us(3), 0, true);
        s.packet(TraceKind::Enqueue, Time::from_us(4), Dur::ZERO, 3, 3000, m0);
        let log = s.finish(vec!["sw_p3".into(), "sw_p4".into()], Vec::new(), 1);
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "seq order survives the merge");
        assert_eq!(log.dropped, 0);
        assert_eq!(log.count(TraceKind::Enqueue), 3);
        assert_eq!(log.count(TraceKind::FaultStart), 1);
    }

    #[test]
    fn jsonl_is_line_per_event_with_header() {
        let cfg = TraceConfig::default();
        let mut s = TraceSink::new(&cfg, 1);
        s.fault(Time::from_ms(1), 2, true);
        let log = s.finish(Vec::new(), Vec::new(), 0);
        let txt = log.to_jsonl();
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"format\":\"silo-trace-v1\""));
        assert!(lines[1].contains("\"kind\":\"fault_start\""));
        assert!(lines[1].contains("\"t_ps\":1000000000"));
    }

    // ------------------------------------------------------------------
    // Exhaustiveness: every engine event kind must declare its trace
    // coverage, and every trace kind must have a label. Adding a variant
    // to either enum without updating these maps is a compile error in
    // this test — new engine events cannot silently ship untraced.
    // ------------------------------------------------------------------

    /// Which trace kinds each engine event class can emit (empty = the
    /// event is pure bookkeeping with no wire-visible effect of its own;
    /// its consequences surface through the packet-path events).
    fn trace_coverage(k: EvKind) -> &'static [TraceKind] {
        match k {
            EvKind::Arrive => &[
                TraceKind::Enqueue,
                TraceKind::DropTail,
                TraceKind::DropFault,
                TraceKind::Deliver,
                TraceKind::MsgDone,
            ],
            EvKind::PortFree => &[TraceKind::WireStart],
            EvKind::NicPull => &[TraceKind::NicData, TraceKind::NicVoid, TraceKind::DropFault],
            EvKind::Rto => &[TraceKind::RtoFire],
            // Workload generators emit through the send path.
            EvKind::EtcArrival => &[TraceKind::TokenWait, TraceKind::Enqueue],
            EvKind::Oldi => &[TraceKind::TokenWait, TraceKind::Enqueue],
            EvKind::PoissonMsg => &[TraceKind::TokenWait, TraceKind::Enqueue],
            EvKind::HoseEpoch => &[],
            EvKind::PaceResume => &[TraceKind::TokenWait, TraceKind::Enqueue],
            EvKind::BulkStart => &[TraceKind::TokenWait, TraceKind::Enqueue],
            EvKind::FaultStart => &[TraceKind::FaultStart, TraceKind::DropFault],
            EvKind::FaultEnd => &[TraceKind::FaultEnd],
        }
    }

    #[test]
    fn every_event_kind_declares_trace_coverage() {
        assert_eq!(EvKind::ALL.len(), EvKind::COUNT);
        for k in EvKind::ALL {
            // The match in trace_coverage is exhaustive (no wildcard);
            // calling it for every variant also exercises the labels.
            let _ = trace_coverage(k);
            assert!(!k.label().is_empty());
        }
        let mut labels: Vec<&str> = EvKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EvKind::COUNT, "profile labels must be unique");
    }

    #[test]
    fn every_trace_kind_has_unique_label_and_span_class() {
        assert_eq!(TraceKind::ALL.len(), TraceKind::COUNT);
        let mut labels: Vec<&str> = TraceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels.len(),
            TraceKind::COUNT,
            "trace labels must be unique"
        );
        // Spans and instants partition the kinds (is_span is exhaustive
        // by construction of the matches! list; this pins the split).
        let spans = TraceKind::ALL.iter().filter(|k| k.is_span()).count();
        assert_eq!(spans, 6);
    }

    #[test]
    fn perfetto_export_has_tracks_and_markers() {
        let cfg = TraceConfig::default();
        let mut s = TraceSink::new(&cfg, 1);
        let m = PktMeta {
            host: 0,
            conn: 0,
            tenant: 1,
            pk: PktTag::Data,
            pseq: 0,
            size: 1500,
            retx: false,
        };
        s.packet(
            TraceKind::WireStart,
            Time::from_us(5),
            Dur::from_ns(1200),
            2,
            0,
            m,
        );
        s.msg_done(Time::from_us(1), Time::from_us(9), 0, 1, 20_000);
        let log = s.finish(
            vec!["sw_p0".into()],
            vec![FaultWindow {
                fault: 0,
                label: "link_down(0)".into(),
                start: Time::from_ms(1),
                end: Time::from_ms(2),
            }],
            2,
        );
        let json = log.to_perfetto();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("fabric ports"));
        assert!(json.contains("tenant 1"));
        assert!(json.contains("fault 0: link_down(0) start"));
        assert!(json.contains("\"ph\":\"X\""));
        // 5 µs in exact microsecond fixed-point.
        assert!(json.contains("\"ts\":5.000000"));
    }
}
