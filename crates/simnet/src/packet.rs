//! Packets and their routing state.

use silo_base::{Bytes, Time};

/// Handle to an interned egress-port list in the simulator's path table.
/// Packets and connections carry this 4-byte id instead of a shared
/// pointer, which keeps [`Packet`] `Copy` and spares a refcount round trip
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

/// One packet in flight (64 bytes). `path` names the precomputed
/// egress-port list from the source NIC to the destination (interned in
/// the simulator's path table, shared per connection).
///
/// The arena copy is written at creation and read at NIC pull and at
/// delivery. What changes hop by hop travels in [`Hop`] with the event
/// and the port FIFO entry, so `hop` and `enq_at` here keep their
/// creation-time values (`0`, `Time::ZERO`) for the whole flight.
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
    /// When the segment was handed to the wire path (for delay metrics).
    pub sent_at: Time,
    /// Creation-time value only; the live one is `QueuedPkt::enq_at`.
    pub enq_at: Time,
    pub path: PathId,
    /// Creation-time value only; the live one is [`Hop::hop`].
    pub hop: usize,
}

/// Handle to a packet slot in a [`PktArena`]. Four bytes instead of the
/// 64-byte [`Packet`]: events, port FIFOs and the NIC stamp queue carry
/// the handle, so an event dispatch moves one index instead of the whole
/// struct, and the packet bytes stay put in the arena for the packet's
/// entire flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktId(u32);

/// The per-hop routing header: everything a transit hop needs to queue,
/// serialize and forward a packet. It rides in `Ev::Arrive` and in the
/// port FIFO entry, so a switch hop reads and writes port state only and
/// never touches the packet's arena slot.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    pub id: PktId,
    pub path: PathId,
    /// Wire size (payload + headers).
    pub size: Bytes,
    /// Index into `path` of the *next* port to traverse.
    pub hop: u16,
    /// 802.1q priority (0 high, 1 low).
    pub prio: u8,
}

impl Hop {
    /// The header of `pkt` (interned as `id`) about to traverse port
    /// `hop` of its path.
    pub fn of(id: PktId, pkt: &Packet, hop: u16) -> Hop {
        Hop {
            id,
            path: pkt.path,
            size: pkt.size,
            hop,
            prio: pkt.prio,
        }
    }
}

/// Slab of in-flight packets with a LIFO free list. Allocation order is
/// fully deterministic (`Vec` growth plus LIFO reuse), so two identical
/// runs assign identical handles — handle values never feed back into
/// physics, but determinism keeps debugging sane.
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

    /// The sizes the docs (and the per-event cost model) quote.
    #[test]
    fn packet_is_64_bytes_and_its_hop_header_24() {
        assert_eq!(std::mem::size_of::<Packet>(), 64);
        assert_eq!(std::mem::size_of::<Hop>(), 24);
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
