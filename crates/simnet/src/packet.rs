//! Packets and their routing state.

use silo_base::{Bytes, Time};

/// Handle to an interned egress-port list in the simulator's path table.
/// Packets and connections carry this 4-byte id instead of a shared
/// pointer, which keeps [`Pkt`] `Copy` and spares a refcount round trip
/// per forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(pub u32);

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktKind {
    /// A TCP data segment covering stream bytes `[seq, seq + payload)`.
    Data,
    /// A cumulative ACK up to `seq`; `ecn_echo` reflects the acked
    /// segment's CE mark (per-segment immediate acks give DCTCP its exact
    /// marked-byte feedback).
    Ack,
}

/// One packet in flight (24 bytes), carried by value in `Ev::Arrive`, the
/// port FIFOs and the NIC stamp queue: a hop, a NIC pull and a delivery
/// read and write nothing but the entry in hand.
///
/// `path` names the precomputed egress-port list from the source NIC to
/// the destination (interned in the simulator's path table, shared per
/// connection). The stream bytes a data segment carries are not stored:
/// they are `size − header` ([`Pkt::payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pkt {
    /// Data: first stream byte. Ack: cumulative ack.
    pub seq: u64,
    pub conn: u32,
    pub path: PathId,
    /// Wire size (payload + headers); `SimConfig::validate` bounds the
    /// MTU so it fits.
    size: u32,
    /// Index into `path` of the *next* port to traverse.
    pub hop: u16,
    /// 802.1q priority (0 high, 1 low).
    pub prio: u8,
    /// `ACK`, `CE`, `ECN_ECHO`, `RETX` bits.
    flags: u8,
}

impl Pkt {
    const ACK: u8 = 1 << 0;
    /// CE codepoint (set by switches).
    const CE: u8 = 1 << 1;
    /// Ack: echo of the acked segment's CE.
    const ECN_ECHO: u8 = 1 << 2;
    /// Data: the segment is a retransmission (Karn's rule).
    const RETX: u8 = 1 << 3;

    /// A fresh packet about to traverse port 0 of `path`, no flag set.
    pub fn new(kind: PktKind, conn: u32, seq: u64, size: Bytes, prio: u8, path: PathId) -> Pkt {
        Pkt {
            seq,
            conn,
            path,
            size: u32::try_from(size.as_u64()).expect("wire size fits u32 (validated MTU)"),
            hop: 0,
            prio,
            flags: match kind {
                PktKind::Data => 0,
                PktKind::Ack => Pkt::ACK,
            },
        }
    }

    fn with_flag(mut self, bit: u8, on: bool) -> Pkt {
        if on {
            self.flags |= bit;
        }
        self
    }

    pub fn with_retx(self, on: bool) -> Pkt {
        self.with_flag(Pkt::RETX, on)
    }

    pub fn with_ecn_echo(self, on: bool) -> Pkt {
        self.with_flag(Pkt::ECN_ECHO, on)
    }

    /// This packet about to traverse port `hop` of its path.
    #[inline]
    pub fn at_hop(mut self, hop: u16) -> Pkt {
        self.hop = hop;
        self
    }

    pub fn mark_ce(&mut self) {
        self.flags |= Pkt::CE;
    }

    #[inline]
    pub fn kind(&self) -> PktKind {
        if self.flags & Pkt::ACK == 0 {
            PktKind::Data
        } else {
            PktKind::Ack
        }
    }

    #[inline]
    pub fn ce(&self) -> bool {
        self.flags & Pkt::CE != 0
    }

    #[inline]
    pub fn ecn_echo(&self) -> bool {
        self.flags & Pkt::ECN_ECHO != 0
    }

    #[inline]
    pub fn retx(&self) -> bool {
        self.flags & Pkt::RETX != 0
    }

    /// Wire size (payload + headers).
    #[inline]
    pub fn size(&self) -> Bytes {
        Bytes(self.size as u64)
    }

    /// Stream bytes carried behind `header` bytes of TCP/IP header (0 for
    /// pure ACKs).
    #[inline]
    pub fn payload(&self, header: Bytes) -> u64 {
        match self.kind() {
            PktKind::Data => self.size as u64 - header.as_u64(),
            PktKind::Ack => 0,
        }
    }
}

/// The 64-byte packet record of the retired arena datapath.
/// **Benchmark-kernel only**: the simulator carries [`Pkt`] by value and
/// uses none of `Packet`, [`PktId`], [`PktArena`]; the frozen
/// `benchmark/src/kernels.rs` builds them literally, so they stay `pub`
/// until ROADMAP item 1c deletes both sides.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    pub conn: u32,
    pub kind: PktKind,
    /// Data: first stream byte. Ack: cumulative ack.
    pub seq: u64,
    /// Data: stream bytes carried (0 for pure ACKs).
    pub payload: u64,
    /// Wire size (payload + headers).
    pub size: Bytes,
    /// Data: set when the segment is a retransmission (Karn's rule).
    pub retx: bool,
    /// CE codepoint (set by switches).
    pub ce: bool,
    /// Ack: echo of the acked segment's CE.
    pub ecn_echo: bool,
    /// 802.1q priority (0 high, 1 low).
    pub prio: u8,
    pub sent_at: Time,
    pub enq_at: Time,
    pub path: PathId,
    pub hop: usize,
}

/// Handle to a packet slot in a [`PktArena`]. **Benchmark-kernel only**
/// (see [`Packet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktId(u32);

/// Slab of [`Packet`]s with a LIFO free list. **Benchmark-kernel only**
/// (see [`Packet`]): the simulator no longer interns packets.
///
/// Debug builds (and therefore the whole test suite) track per-slot
/// liveness and panic on use-after-free or double-free; release builds
/// carry no overhead beyond the slab itself.
#[derive(Debug, Default)]
pub struct PktArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PktArena {
    pub fn new() -> PktArena {
        PktArena::default()
    }

    pub fn with_capacity(n: usize) -> PktArena {
        PktArena {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            live: Vec::with_capacity(n),
        }
    }

    /// Intern a packet for its flight; returns the handle that names it
    /// until [`PktArena::free`].
    pub fn alloc(&mut self, pkt: Packet) -> PktId {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = pkt;
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.live[i as usize], "free list held a live slot");
                self.live[i as usize] = true;
            }
            PktId(i)
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.live.push(true);
            PktId(i)
        }
    }

    /// Release a slot for reuse. The packet has left the simulation —
    /// delivered, tail-dropped, or eaten by a fault.
    pub fn free(&mut self, id: PktId) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[id.0 as usize], "double free of {id:?}");
            self.live[id.0 as usize] = false;
        }
        self.free.push(id.0);
    }

    /// Packets currently in flight.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// High-water mark of concurrently live packets (slab length: slots
    /// are only added when no freed one is available).
    pub fn peak(&self) -> usize {
        self.slots.len()
    }
}

impl std::ops::Index<PktId> for PktArena {
    type Output = Packet;
    #[inline]
    fn index(&self, id: PktId) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.0 as usize], "read of freed {id:?}");
        &self.slots[id.0 as usize]
    }
}

impl std::ops::IndexMut<PktId> for PktArena {
    #[inline]
    fn index_mut(&mut self, id: PktId) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.0 as usize], "write to freed {id:?}");
        &mut self.slots[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop::{self, Rng};

    fn pkt(seq: u64) -> Packet {
        Packet {
            conn: 0,
            kind: PktKind::Data,
            seq,
            payload: 1440,
            size: Bytes(1500),
            retx: false,
            ce: false,
            ecn_echo: false,
            prio: 0,
            sent_at: Time::ZERO,
            enq_at: Time::ZERO,
            path: PathId(0),
            hop: 0,
        }
    }

    /// The sizes the docs (and the per-event cost model) quote. `Ev`,
    /// private to `sim`, is pinned at 32 by a `const` assertion there.
    #[test]
    fn pkt_is_24_bytes_and_a_port_fifo_entry_32() {
        assert_eq!(std::mem::size_of::<Pkt>(), 24);
        assert_eq!(std::mem::size_of::<crate::port::QueuedPkt>(), 32);
    }

    /// Everything packed into `Pkt` reads back as written, whatever the
    /// other fields hold, and `mark_ce` touches only the CE bit.
    #[test]
    fn pkt_fields_round_trip_through_the_packed_header() {
        const HEADER: Bytes = Bytes(60);
        type Case = (bool, bool, bool, bool, u32, u16, u8);
        prop::forall(
            "pkt_round_trip",
            |rng| -> Case {
                (
                    rng.random(),
                    rng.random(),
                    rng.random(),
                    rng.random(),
                    rng.random::<u32>().max(60),
                    rng.random::<u32>() as u16,
                    rng.random::<u32>() as u8,
                )
            },
            |&(ack, ce, echo, retx, size, hop, prio)| {
                vec![
                    (false, ce, echo, retx, size, hop, prio),
                    (ack, false, echo, retx, size, hop, prio),
                    (ack, ce, false, retx, size, hop, prio),
                    (ack, ce, echo, false, size, hop, prio),
                    (ack, ce, echo, retx, 60 + (size - 60) / 2, hop, prio),
                    (ack, ce, echo, retx, size, hop / 2, prio),
                    (ack, ce, echo, retx, size, hop, prio / 2),
                ]
                .into_iter()
                .filter(|c| *c != (ack, ce, echo, retx, size, hop, prio))
                .collect()
            },
            |&(ack, ce, echo, retx, size, hop, prio)| {
                let kind = if ack { PktKind::Ack } else { PktKind::Data };
                let mut p = Pkt::new(kind, 7, 1 << 40, Bytes(size as u64), prio, PathId(9))
                    .with_retx(retx)
                    .with_ecn_echo(echo)
                    .at_hop(hop);
                if p.ce() {
                    return Err("a fresh packet is CE-marked".into());
                }
                if ce {
                    p.mark_ce();
                }
                let payload = if ack { 0 } else { size as u64 - 60 };
                let got = (
                    p.kind(),
                    p.ce(),
                    p.ecn_echo(),
                    p.retx(),
                    p.size(),
                    p.hop,
                    p.prio,
                    p.payload(HEADER),
                    (p.conn, p.seq, p.path),
                );
                let want = (
                    kind,
                    ce,
                    echo,
                    retx,
                    Bytes(size as u64),
                    hop,
                    prio,
                    payload,
                    (7, 1 << 40, PathId(9)),
                );
                if got == want {
                    Ok(())
                } else {
                    Err(format!("read back {got:?}, wrote {want:?}"))
                }
            },
        );
    }

    #[test]
    fn arena_reuses_slots_lifo_and_tracks_liveness() {
        let mut a = PktArena::new();
        let x = a.alloc(pkt(1));
        let y = a.alloc(pkt(2));
        assert_ne!(x, y);
        assert_eq!(a.live(), 2);
        assert_eq!(a[x].seq, 1);
        a[x].hop = 3;
        assert_eq!(a[x].hop, 3);
        a.free(x);
        assert_eq!(a.live(), 1);
        // LIFO reuse: the freed slot comes back first, fully overwritten.
        let z = a.alloc(pkt(9));
        assert_eq!(z, x, "freed slot must be reused");
        assert_eq!(a[z].seq, 9);
        assert_eq!(a[z].hop, 0, "stale fields must not leak through reuse");
        assert_eq!(a.peak(), 2, "peak counts concurrent flights, not allocs");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn arena_catches_double_free_in_debug() {
        let mut a = PktArena::new();
        let x = a.alloc(pkt(1));
        a.free(x);
        a.free(x);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read of freed")]
    fn arena_catches_use_after_free_in_debug() {
        let mut a = PktArena::new();
        let x = a.alloc(pkt(1));
        a.free(x);
        let _ = a[x].seq;
    }
}
