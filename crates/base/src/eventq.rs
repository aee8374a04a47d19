//! The discrete-event priority queue used by the packet simulator and the
//! pacer's NIC batcher: a hierarchical timer wheel with a binary-heap
//! reference backend.
//!
//! # Ordering contract
//!
//! `pop` returns entries in exactly `(time, insertion order)` order — the
//! same total order a `BinaryHeap` min-heap over `(t, seq)` produces. The
//! golden-schedule and determinism suites assert the two backends are
//! bit-for-bit interchangeable, so the wheel is a pure performance choice.
//!
//! # Why a wheel
//!
//! The simulator's event pattern is monotone (time never goes backwards)
//! and mixes horizons from tens of nanoseconds (wire frames) to
//! milliseconds (RTOs, hose epochs). A comparison heap pays `O(log n)`
//! sift work — on 100+ byte entries — for every push *and* pop. The wheel
//! files each entry by the most-significant bit in which its expiry's
//! *tick* (`2^10` ps ≈ 1 ns) differs from the current time's (`6` bits per
//! level, `8` levels, `2^58` ps ≈ 80 h of horizon), so a push is O(1) and
//! an entry cascades through at most 7 slots over its whole lifetime. A
//! level-0 slot is one tick, not one instant: the drain sorts it by
//! `(t, seq)`, which is what keeps the order exact on the coarser grid.
//! Drained slot vectors are recycled through a pool, so steady-state
//! operation allocates nothing, except that a vector grown past
//! `SPARE_CAP` entries by one large cascade is freed rather than
//! pooled: the wheel's memory follows its live entries, not the largest
//! burst the run ever filed into one slot.
//!
//! # Lanes
//!
//! Most simulator events are not timers: an egress port's `PortFree` and
//! `Arrive` events, and a NIC's frame arrivals, are each pushed in
//! non-decreasing time order by their source, and so are a NIC's paced
//! stamps when the pacer's batcher files them one lane per sender (the
//! host's ACKs, then each of its VMs). [`EventQueue::push_lane`]
//! appends such an event to its source's FIFO under the shared `seq`
//! counter, and `pop` returns the `(t, seq)`-minimum of a small binary
//! heap over the lane heads and the wheel's head — the same total order,
//! without filing and re-filing each event through the wheel levels. A
//! lane push that would break its lane's order falls back to the general
//! path, so the contract above never depends on the caller being right.
//! The wheel is only primed up to the earliest lane head, so `cur` never
//! runs ahead of the instant being dispatched.
//!
//! # Cancellation
//!
//! [`EventQueue::push_cancelable`] returns an [`EvKey`] — a slot index into
//! a generation slab — and [`EventQueue::cancel`] removes that entry.
//! While an entry sits in a wheel slot (or the overflow list) the slab
//! tracks its exact position, so a cancel is an O(1) `swap_remove` — the
//! entry never cascades, never reaches the head, and costs nothing after
//! the cancel. Positions inside slot vectors carry no ordering (level-0
//! slots are sorted by `(t, seq)` at drain time; higher levels re-file by
//! expiry), so the swap cannot perturb the dequeue order. Entries already
//! drained into the `ready` run — and everything under the reference heap
//! backend, which has no O(1) delete — fall back to a lazy tombstone:
//! marked dead in the slab and skipped at `pop`/`peek_time`. Because live
//! entries keep their `(t, seq)` stamps either way, the dequeue sequence
//! of survivors is byte-identical to the dispatch-time tombstone scheme
//! this replaces, which the differential suite below proves. `len()` and
//! `peak_len()` count *live* entries only, so the queue's high-water mark
//! reflects real pending work rather than tombstone bloat.
//!
//! [`EventQueue::rearm`] is `cancel` + `push_cancelable` in one call. A
//! timer moved by microseconds against a horizon of milliseconds nearly
//! always maps to the slot it already sits in; the entry's `(t, seq,
//! item)` are then overwritten where it lies. Slot positions carry no
//! order, so this is indistinguishable from the swap-remove and re-file
//! it replaces.

use crate::units::Time;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Wheel granularity: expiries are filed by `t >> TICK_BITS` (1.024 ns).
const TICK_BITS: u32 = 10;
const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64
const LEVELS: usize = 8;
const MASK: u64 = (SLOTS as u64) - 1;

/// Largest slot-vector capacity the wheel pools for reuse. A drained
/// vector above it (one burst filed into one slot) is freed, so a run's
/// retained wheel memory tracks its live entries rather than its largest
/// cascade.
const SPARE_CAP: usize = 256;

/// `Entry.key` value for plain (non-cancelable) pushes.
const NO_KEY: u64 = u64::MAX;

/// Handle to a pending cancelable entry: a slab index plus the generation
/// it was issued under, packed `index << 32 | gen`. Stale keys (the entry
/// already popped or cancelled) are detected by a generation mismatch, so
/// holding a key past its entry's lifetime is always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvKey(u64);

impl EvKey {
    #[inline]
    fn pack(idx: u32, gen: u32) -> EvKey {
        EvKey(((idx as u64) << 32) | gen as u64)
    }
    #[inline]
    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

#[derive(Debug, Clone)]
struct Entry<E> {
    t: u64,
    seq: u64,
    /// `NO_KEY`, or the packed [`EvKey`] this entry was issued under.
    key: u64,
    item: E,
}

/// The `(t, seq)` min-heap wrapper for the reference backend.
#[derive(Debug)]
struct HeapEntry<E>(Entry<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, o: &Self) -> bool {
        self.0.t == o.0.t && self.0.seq == o.0.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest time first, FIFO on ties.
        o.0.t.cmp(&self.0.t).then(o.0.seq.cmp(&self.0.seq))
    }
}

#[derive(Debug)]
struct Wheel<E> {
    /// `slots[level][index]` holds entries whose expiry differs from `cur`
    /// first at bit-group `level` and has digit `index` there.
    slots: Vec<Vec<Vec<Entry<E>>>>,
    /// Per-level occupancy bitmaps (bit `i` set ⇔ `slots[level][i]` nonempty).
    occupied: [u64; LEVELS],
    /// Lower bound on every filed expiry; advances monotonically as slots
    /// are drained. It sits on the base of the last drained slot (a tick
    /// boundary), not on an entry's own stamp: only its tick is ever
    /// compared, and an entry due before it merges into `ready` instead.
    cur: u64,
    /// Entries drained from the minimal slot, sorted by `(t, seq)`, ready
    /// to pop before the wheel is consulted again.
    ready: VecDeque<Entry<E>>,
    /// Entries beyond the wheel horizon (`cur + 2^58` ps); re-filed when
    /// the wheel runs dry.
    overflow: Vec<Entry<E>>,
    /// Recycled slot vectors of at most `SPARE_CAP` capacity (see
    /// [`Wheel::recycle`]).
    spare: Vec<Vec<Entry<E>>>,
    len: usize,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            cur: 0,
            ready: VecDeque::new(),
            overflow: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn digit(t: u64, level: usize) -> usize {
        ((t >> (TICK_BITS + BITS * level as u32)) & MASK) as usize
    }

    /// Level at which `t` is filed relative to `cur`: the bit-group of the
    /// most significant differing bit. `LEVELS` means "overflow".
    #[inline]
    fn level_of(&self, t: u64) -> usize {
        let diff = (t ^ self.cur) >> TICK_BITS;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        }
    }

    fn file(&mut self, e: Entry<E>, slab: &mut Slab) {
        debug_assert!(e.t >= self.cur);
        debug_assert!(!slab.entry_dead(e.key), "dead entry re-filed");
        let key = e.key;
        let level = self.level_of(e.t);
        if level >= LEVELS {
            self.overflow.push(e);
            if key != NO_KEY {
                slab.set_loc(
                    key,
                    Loc::Overflow {
                        idx: (self.overflow.len() - 1) as u32,
                    },
                );
            }
            return;
        }
        let slot = Self::digit(e.t, level);
        self.slots[level][slot].push(e);
        self.occupied[level] |= 1 << slot;
        if key != NO_KEY {
            slab.set_loc(
                key,
                Loc::Slot {
                    level: level as u8,
                    slot: slot as u8,
                    idx: (self.slots[level][slot].len() - 1) as u32,
                },
            );
        }
    }

    /// Physically unlink a tracked entry — O(1): `swap_remove` from its
    /// slot (or overflow) vector, re-point the entry that got swapped into
    /// its place, and clear the occupancy bit if the slot emptied.
    fn remove(&mut self, loc: Loc, key: EvKey, slab: &mut Slab) {
        let removed = match loc {
            Loc::Slot { level, slot, idx } => {
                let v = &mut self.slots[level as usize][slot as usize];
                let e = v.swap_remove(idx as usize);
                if let Some(moved) = v.get(idx as usize) {
                    if moved.key != NO_KEY {
                        slab.set_loc(moved.key, loc);
                    }
                }
                if v.is_empty() {
                    self.occupied[level as usize] &= !(1 << slot);
                }
                e
            }
            Loc::Overflow { idx } => {
                let e = self.overflow.swap_remove(idx as usize);
                if let Some(moved) = self.overflow.get(idx as usize) {
                    if moved.key != NO_KEY {
                        slab.set_loc(moved.key, Loc::Overflow { idx });
                    }
                }
                e
            }
            Loc::Untracked => unreachable!("remove() called for an untracked entry"),
        };
        debug_assert_eq!(
            removed.key, key.0,
            "back-pointer pointed at a different entry"
        );
        self.len -= 1;
    }

    /// An entry due before `cur` (a zero-delay or past-stamp push — the
    /// NIC batcher pops stamps up to a whole batch window ahead of the
    /// pushes that follow) can never be filed in the wheel; it merges
    /// into `ready`, as does anything due no later than the drained
    /// batch, keeping the (t, seq) order exact.
    #[inline]
    fn merges_into_ready(&self, t: u64) -> bool {
        t < self.cur || self.ready.back().is_some_and(|back| t <= back.t)
    }

    fn push(&mut self, e: Entry<E>, slab: &mut Slab) {
        self.len += 1;
        if self.merges_into_ready(e.t) {
            let pos = self.ready.partition_point(|r| (r.t, r.seq) < (e.t, e.seq));
            if e.key != NO_KEY {
                // Entries merged straight into `ready` have no stable
                // position; cancellation falls back to the lazy mark.
                slab.set_loc(e.key, Loc::Untracked);
            }
            self.ready.insert(pos, e);
        } else {
            self.file(e, slab);
        }
    }

    /// Ensure `ready` holds the wheel's minimal entries, if any of them can
    /// be due by `limit` (the earliest lane head, or `u64::MAX`): the
    /// minimal occupied slot is drained or cascaded only while its base
    /// time is `<= limit`. A slot's base bounds every entry in it — and,
    /// being the minimal slot, every filed entry — from below, so when
    /// this returns with `ready` empty nothing in the wheel is due by
    /// `limit`, and `cur` has not moved past `limit`.
    /// Only live entries ever sit in wheel slots — cancellation removes
    /// its target on the spot — so cascades never move dead weight.
    fn prime_until(&mut self, limit: u64, slab: &mut Slab) {
        if !self.ready.is_empty() || self.len == 0 {
            return;
        }
        loop {
            // Lowest non-empty level holds the globally minimal entry.
            let mut level = None;
            for (l, &bm) in self.occupied.iter().enumerate() {
                if bm != 0 {
                    level = Some(l);
                    break;
                }
            }
            let Some(l) = level else {
                // Wheel dry: re-file the overflow relative to its minimum.
                debug_assert!(!self.overflow.is_empty());
                let min_t = self.overflow.iter().map(|e| e.t).min().expect("nonempty");
                if min_t > limit {
                    return;
                }
                self.cur = self.cur.max(min_t);
                let pending = std::mem::take(&mut self.overflow);
                for e in pending {
                    self.file(e, slab);
                }
                continue;
            };
            // Minimal occupied slot at that level. Occupied slots are never
            // below the current digit (that would mean a past expiry).
            let slot = self.occupied[l].trailing_zeros() as usize;
            debug_assert!(slot >= Self::digit(self.cur, l));
            let shift = TICK_BITS + BITS * l as u32;
            let base = (self.cur & !((1u64 << (shift + BITS)) - 1)) | ((slot as u64) << shift);
            if base > limit {
                return;
            }
            let mut batch = std::mem::replace(
                &mut self.slots[l][slot],
                self.spare.pop().unwrap_or_default(),
            );
            self.occupied[l] &= !(1 << slot);
            self.cur = self.cur.max(base);
            if l == 0 {
                // A level-0 slot is one tick wide: its entries may differ
                // in their low bits, so (t, seq) order comes from a sort.
                batch.sort_unstable_by_key(|e| (e.t, e.seq));
                for e in batch.drain(..) {
                    if e.key != NO_KEY {
                        slab.set_loc(e.key, Loc::Untracked);
                    }
                    self.ready.push_back(e);
                }
                self.recycle(batch);
                return;
            }
            // Cascade: re-file the slot's entries one level (or more) down.
            for e in batch.drain(..) {
                self.file(e, slab);
            }
            self.recycle(batch);
        }
    }

    /// Pool a drained slot vector for the next slot that empties, unless
    /// one burst grew it past `SPARE_CAP`: then it is freed, and the slot
    /// that next needs that much grows again.
    #[inline]
    fn recycle(&mut self, batch: Vec<Entry<E>>) {
        debug_assert!(batch.is_empty());
        if batch.capacity() <= SPARE_CAP {
            self.spare.push(batch);
        }
    }

    fn pop(&mut self, slab: &mut Slab) -> Option<Entry<E>> {
        self.prime_until(u64::MAX, slab);
        let e = self.ready.pop_front()?;
        self.len -= 1;
        Some(e)
    }

    /// Would [`Wheel::push`] file an entry due at `t` into exactly
    /// `slots[level][slot]`? (The test behind the in-place re-arm.)
    #[inline]
    fn files_into(&self, t: u64, level: u8, slot: u8) -> bool {
        !self.merges_into_ready(t)
            && self.level_of(t) == level as usize
            && Self::digit(t, level as usize) == slot as usize
    }

    /// Earliest expiry among *filed* entries (slots + overflow), without
    /// disturbing the structure. The global minimum is in the minimal
    /// occupied slot of the minimal occupied level: any entry at a higher
    /// level matches `cur` through this level's digit and exceeds it at
    /// its own, and any entry in a later slot exceeds this slot's digit —
    /// either way it expires later, whatever its low bits. Only the low
    /// bits *within* the minimal slot vary, hence the scan.
    fn peek_filed(&self) -> Option<u64> {
        for (l, &bm) in self.occupied.iter().enumerate() {
            if bm != 0 {
                let slot = bm.trailing_zeros() as usize;
                return self.slots[l][slot].iter().map(|e| e.t).min();
            }
        }
        // Everything pending is beyond the wheel horizon.
        self.overflow.iter().map(|e| e.t).min()
    }
}

/// One event waiting in a lane (never cancelable, so no key).
#[derive(Debug)]
struct LaneEntry<E> {
    t: u64,
    seq: u64,
    item: E,
}

/// Per-source FIFOs merged by a heap over their heads (module docs,
/// "Lanes"). Each FIFO is in `(t, seq)` order by construction, so the
/// minimum over the heads is the minimum over every lane entry.
#[derive(Debug)]
struct Lanes<E> {
    fifos: Vec<VecDeque<LaneEntry<E>>>,
    /// `(t, seq, lane)` of the front of every non-empty FIFO (`seq` is
    /// unique, so `lane` never decides a comparison).
    heads: BinaryHeap<Reverse<(u64, u64, u32)>>,
    len: usize,
}

impl<E> Lanes<E> {
    fn new() -> Lanes<E> {
        Lanes {
            fifos: Vec::new(),
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    /// `(t, seq)` of the earliest lane entry.
    #[inline]
    fn head(&self) -> Option<(u64, u64)> {
        self.heads.peek().map(|&Reverse((t, seq, _))| (t, seq))
    }

    /// Remove the earliest lane entry; its successor (if any) takes its
    /// place in the heap with one sift-down.
    fn pop(&mut self) -> Option<(Time, E)> {
        let mut top = self.heads.peek_mut()?;
        let lane = top.0 .2;
        let fifo = &mut self.fifos[lane as usize];
        let e = fifo.pop_front().expect("heads lists non-empty lanes only");
        match fifo.front() {
            Some(next) => *top = Reverse((next.t, next.seq, lane)),
            None => {
                PeekMut::pop(top);
            }
        }
        self.len -= 1;
        Some((Time(e.t), e.item))
    }
}

/// Which engine backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timer wheel (the default).
    #[default]
    Wheel,
    /// `BinaryHeap` reference implementation, kept for differential tests
    /// and before/after benchmarking.
    Heap,
}

impl QueueBackend {
    pub fn label(self) -> &'static str {
        match self {
            QueueBackend::Wheel => "wheel",
            QueueBackend::Heap => "heap",
        }
    }
}

enum Inner<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<HeapEntry<E>>),
}

/// Where a live cancelable entry currently sits, for O(1) removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// No tracked position: the entry is in the `ready` run, under the
    /// heap backend, or already gone. Cancellation falls back to a lazy
    /// dead-mark skipped at the head.
    Untracked,
    /// `Wheel.slots[level][slot][idx]`.
    Slot { level: u8, slot: u8, idx: u32 },
    /// `Wheel.overflow[idx]`.
    Overflow { idx: u32 },
}

/// Generation slab state for one cancelable slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    alive: bool,
    loc: Loc,
}

/// The generation slab behind [`EvKey`]s, split out of [`EventQueue`] so
/// the wheel can consult liveness mid-cascade without borrowing the whole
/// queue.
#[derive(Debug, Default)]
struct Slab {
    slots: Vec<Slot>,
    /// Retired slab indices available for reuse.
    free: Vec<u32>,
    /// Cancelled entries still buried in the backend (pending deletes).
    dead: usize,
}

impl Slab {
    fn alloc(&mut self) -> EvKey {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    alive: false,
                    loc: Loc::Untracked,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.alive = true;
        slot.loc = Loc::Untracked;
        EvKey::pack(idx, slot.gen)
    }

    /// Lazy cancellation for entries with no tracked position: mark dead
    /// and let the head skip it.
    fn cancel_lazy(&mut self, idx: u32) {
        self.slots[idx as usize].alive = false;
        self.dead += 1;
    }

    /// Record where the wheel just filed a keyed entry.
    #[inline]
    fn set_loc(&mut self, key: u64, loc: Loc) {
        let (idx, gen) = EvKey(key).unpack();
        let s = &mut self.slots[idx as usize];
        debug_assert_eq!(s.gen, gen, "slot reused while its entry was queued");
        s.loc = loc;
    }

    /// Retire the slab slot of a keyed entry that just left the backend.
    /// Returns `true` if the entry was live (should be surfaced).
    #[inline]
    fn retire(&mut self, key: u64) -> bool {
        let (idx, gen) = EvKey(key).unpack();
        let s = &mut self.slots[idx as usize];
        debug_assert_eq!(s.gen, gen, "slot reused while its entry was queued");
        let was_live = s.alive;
        s.alive = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
        if !was_live {
            self.dead -= 1;
        }
        was_live
    }

    /// Is the keyed entry still buried but cancelled? (`NO_KEY` is never
    /// dead.)
    #[inline]
    fn entry_dead(&self, key: u64) -> bool {
        if key == NO_KEY {
            return false;
        }
        let (idx, _) = EvKey(key).unpack();
        !self.slots[idx as usize].alive
    }
}

/// A monotone discrete-event queue ordered by `(time, insertion order)`.
pub struct EventQueue<E> {
    inner: Inner<E>,
    /// Monotone per-source FIFOs; always empty under the heap backend.
    lanes: Lanes<E>,
    /// Next tie-break stamp (== total entries ever pushed).
    seq: u64,
    peak_len: usize,
    slab: Slab,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Timer-wheel backed queue (the production configuration).
    pub fn new() -> EventQueue<E> {
        EventQueue::with_backend(QueueBackend::Wheel)
    }

    /// Reference `BinaryHeap` backed queue (differential tests, benchmarks).
    pub fn reference_heap() -> EventQueue<E> {
        EventQueue::with_backend(QueueBackend::Heap)
    }

    pub fn with_backend(backend: QueueBackend) -> EventQueue<E> {
        let inner = match backend {
            QueueBackend::Wheel => Inner::Wheel(Wheel::new()),
            QueueBackend::Heap => Inner::Heap(BinaryHeap::new()),
        };
        EventQueue {
            inner,
            lanes: Lanes::new(),
            seq: 0,
            peak_len: 0,
            slab: Slab::default(),
        }
    }

    fn push_entry(&mut self, t: Time, key: u64, item: E) {
        let e = Entry {
            t: t.as_ps(),
            seq: self.seq,
            key,
            item,
        };
        self.seq += 1;
        match &mut self.inner {
            Inner::Wheel(w) => w.push(e, &mut self.slab),
            Inner::Heap(h) => h.push(HeapEntry(e)),
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    pub fn push(&mut self, t: Time, item: E) {
        self.push_entry(t, NO_KEY, item);
    }

    /// Push an entry that can later be removed with [`EventQueue::cancel`].
    /// Ordering is identical to [`EventQueue::push`]; the returned key is
    /// valid until the entry pops or is cancelled, and harmlessly stale
    /// afterwards.
    pub fn push_cancelable(&mut self, t: Time, item: E) -> EvKey {
        let key = self.slab.alloc();
        self.push_entry(t, key.0, item);
        key
    }

    /// Push an entry whose source — lane `lane` — pushes in non-decreasing
    /// time order (an egress port's wakeups, a NIC's frame arrivals).
    /// Ordering is identical to [`EventQueue::push`]: the entry takes the
    /// next `seq` stamp either way. Returns whether the lane's order held;
    /// when it did not, the entry went through the general path instead.
    /// Lane numbers are dense small integers chosen by the caller.
    pub fn push_lane(&mut self, lane: usize, t: Time, item: E) -> bool {
        if matches!(self.inner, Inner::Heap(_)) {
            self.push(t, item);
            return true;
        }
        let t = t.as_ps();
        if lane >= self.lanes.fifos.len() {
            self.lanes.fifos.resize_with(lane + 1, VecDeque::new);
        }
        let fifo = &mut self.lanes.fifos[lane];
        match fifo.back() {
            Some(back) if t < back.t => {
                self.push(Time(t), item);
                return false;
            }
            Some(_) => {}
            None => self.lanes.heads.push(Reverse((t, self.seq, lane as u32))),
        }
        fifo.push_back(LaneEntry {
            t,
            seq: self.seq,
            item,
        });
        self.seq += 1;
        self.lanes.len += 1;
        self.peak_len = self.peak_len.max(self.len());
        true
    }

    /// Move a pending cancelable entry: exactly [`EventQueue::cancel`]
    /// followed by [`EventQueue::push_cancelable`], returning the new key
    /// and what `cancel` would have returned (`false` for a stale key —
    /// the push still happens).
    ///
    /// Under the wheel backend, when the new expiry files into the slot
    /// the entry already sits in, the entry is overwritten in place (and
    /// keeps its key) instead of being unlinked and filed again.
    pub fn rearm(&mut self, key: EvKey, t: Time, item: E) -> (EvKey, bool) {
        let (idx, gen) = key.unpack();
        if let (
            Inner::Wheel(w),
            Some(&Slot {
                gen: live_gen,
                alive: true,
                loc: Loc::Slot { level, slot, idx },
            }),
        ) = (&mut self.inner, self.slab.slots.get(idx as usize))
        {
            if live_gen == gen && w.files_into(t.as_ps(), level, slot) {
                let e = &mut w.slots[level as usize][slot as usize][idx as usize];
                debug_assert_eq!(e.key, key.0, "back-pointer pointed at a different entry");
                e.t = t.as_ps();
                e.seq = self.seq;
                e.item = item;
                self.seq += 1;
                return (key, true);
            }
        }
        let was_live = self.cancel(key);
        (self.push_cancelable(t, item), was_live)
    }

    /// Cancel a pending cancelable entry. Returns `true` if the entry was
    /// still live (it will never be returned by `pop`); `false` if the key
    /// is stale — already popped or already cancelled.
    ///
    /// Under the wheel backend an entry still filed in a slot is removed
    /// physically in O(1); an entry already drained to the head run — or
    /// anything under the heap backend — is marked dead and skipped there.
    pub fn cancel(&mut self, key: EvKey) -> bool {
        let (idx, gen) = key.unpack();
        let loc = match self.slab.slots.get(idx as usize) {
            Some(s) if s.gen == gen && s.alive => s.loc,
            _ => return false,
        };
        match (&mut self.inner, loc) {
            (Inner::Wheel(w), Loc::Slot { .. } | Loc::Overflow { .. }) => {
                w.remove(loc, key, &mut self.slab);
                self.slab.retire(key.0);
            }
            _ => self.slab.cancel_lazy(idx),
        }
        true
    }

    fn pop_raw(&mut self) -> Option<Entry<E>> {
        match &mut self.inner {
            Inner::Wheel(w) => w.pop(&mut self.slab),
            Inner::Heap(h) => h.pop().map(|HeapEntry(e)| e),
        }
    }

    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            if let (Inner::Wheel(w), Some(head)) = (&mut self.inner, self.lanes.head()) {
                // The wheel's head matters only if it is due by the
                // earliest lane entry; otherwise it stays unprimed.
                w.prime_until(head.0, &mut self.slab);
                if w.ready.front().is_none_or(|r| head < (r.t, r.seq)) {
                    return self.lanes.pop();
                }
            }
            let e = self.pop_raw()?;
            if e.key == NO_KEY || self.slab.retire(e.key) {
                return Some((Time(e.t), e.item));
            }
            // Cancelled: skip and keep draining.
        }
    }

    /// Earliest *live* pending expiry without removing it. Dead entries at
    /// the head (lazy-cancelled in the ready run or the heap) are drained
    /// as a side effect; under the wheel, a far-future head is answered by
    /// scanning its minimal slot instead of cascading it down — repeated
    /// "anything due yet?" polls leave the structure untouched.
    pub fn peek_time(&mut self) -> Option<Time> {
        let lane = self.lanes.head().map(|(t, _)| Time(t));
        let timer = self.peek_timer();
        match (lane, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// [`EventQueue::peek_time`] over everything that is not in a lane.
    fn peek_timer(&mut self) -> Option<Time> {
        loop {
            let (t, key) = match &mut self.inner {
                Inner::Wheel(w) => match w.ready.front() {
                    Some(e) => (e.t, e.key),
                    // Filed entries are never dead (cancellation removes
                    // them physically), so this needs no skip loop.
                    None => return w.peek_filed().map(Time),
                },
                Inner::Heap(h) => {
                    let e = &h.peek()?.0;
                    (e.t, e.key)
                }
            };
            if !self.slab.entry_dead(key) {
                return Some(Time(t));
            }
            let e = self.pop_raw().expect("head exists");
            self.slab.retire(e.key);
        }
    }

    /// Number of *live* entries (cancelled-but-buried ones excluded).
    pub fn len(&self) -> usize {
        let raw = match &self.inner {
            Inner::Wheel(w) => w.len,
            Inner::Heap(h) => h.len(),
        };
        raw + self.lanes.len - self.slab.dead
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the *live* queue depth over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total entries ever pushed (== the dispatch sequence counter).
    pub fn pushed(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::seeded_rng;
    use rand::Rng;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(Time(50), "b");
        q.push(Time(10), "a");
        q.push(Time(50), "c");
        q.push(Time(7), "z");
        assert_eq!(q.pop(), Some((Time(7), "z")));
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(50), "b")));
        assert_eq!(q.pop(), Some((Time(50), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time(100), 0u32);
        assert_eq!(q.pop(), Some((Time(100), 0)));
        // Zero-delay self-push at the current time must come after already
        // pending same-time entries.
        q.push(Time(200), 1);
        q.push(Time(200), 2);
        assert_eq!(q.pop(), Some((Time(200), 1)));
        q.push(Time(200), 3);
        assert_eq!(q.pop(), Some((Time(200), 2)));
        assert_eq!(q.pop(), Some((Time(200), 3)));
    }

    #[test]
    fn far_horizon_entries_survive_overflow() {
        let mut q = EventQueue::new();
        q.push(Time(u64::MAX - 3), 1u8);
        q.push(Time(5), 2);
        q.push(Time(1u64 << 55), 3);
        assert_eq!(q.pop(), Some((Time(5), 2)));
        assert_eq!(q.pop(), Some((Time(1u64 << 55), 3)));
        assert_eq!(q.pop(), Some((Time(u64::MAX - 3), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_heap_on_random_monotone_churn() {
        let mut rng = seeded_rng(1234);
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        let mut now = 0u64;
        let mut next_id = 0u64;
        for _ in 0..50_000 {
            if rng.random::<f64>() < 0.55 || wheel.is_empty() {
                // Mixed horizons: ns-scale wire events, ms-scale timers,
                // occasional zero-delay self-pushes.
                // `9` pushes a *past* stamp (the NIC batcher pops stamps up
                // to a batch window ahead of later enqueues).
                let t = match rng.random_range(0..11u32) {
                    0 => now,
                    1..=6 => now + rng.random_range(0..2_000_000u64),
                    7 | 8 => now + rng.random_range(0..50_000_000u64),
                    9 => now.saturating_sub(rng.random_range(0..5_000_000u64)),
                    _ => now + rng.random_range(0..2_000_000_000u64),
                };
                wheel.push(Time(t), next_id);
                heap.push(Time(t), next_id);
                next_id += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_ps();
                }
            }
        }
        while let Some(b) = heap.pop() {
            assert_eq!(wheel.pop(), Some(b));
        }
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn past_pushes_between_ready_tail_and_cur_stay_ordered() {
        // Regression: pop far ahead (cur advances), then push two past
        // stamps in *increasing* order — the second lands between the
        // ready tail and `cur` and must still merge into `ready`.
        let mut q = EventQueue::new();
        q.push(Time(1_000_000), "future");
        assert_eq!(q.pop(), Some((Time(1_000_000), "future")));
        q.push(Time(10), "early");
        q.push(Time(500), "later-but-still-past");
        q.push(Time(2_000_000), "beyond");
        assert_eq!(q.pop(), Some((Time(10), "early")));
        assert_eq!(q.pop(), Some((Time(500), "later-but-still-past")));
        assert_eq!(q.pop(), Some((Time(2_000_000), "beyond")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..10 {
            q.push(Time(i), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(Time(100), ());
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.pushed(), 11);
    }

    #[test]
    fn cancel_removes_entry_and_detects_stale_keys() {
        let mut q = EventQueue::new();
        let k1 = q.push_cancelable(Time(10), "a");
        let k2 = q.push_cancelable(Time(20), "b");
        q.push(Time(30), "c");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(k1), "first cancel hits a live entry");
        assert!(!q.cancel(k1), "double cancel is stale");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time(20)), "cancelled head skipped");
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert!(!q.cancel(k2), "cancel after pop is stale");
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_reuse_keeps_generations_distinct() {
        let mut q = EventQueue::new();
        let k1 = q.push_cancelable(Time(1), 1u32);
        assert_eq!(q.pop(), Some((Time(1), 1)));
        // The slab slot is recycled for k2; the stale k1 must not hit it.
        let k2 = q.push_cancelable(Time(2), 2u32);
        assert!(!q.cancel(k1));
        assert!(q.cancel(k2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn live_len_and_peak_exclude_cancelled() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..8)
            .map(|i| q.push_cancelable(Time(100 + i), i))
            .collect();
        for k in &keys[2..] {
            assert!(q.cancel(*k));
        }
        assert_eq!(q.len(), 2);
        // Pushing after mass-cancellation: peak reflects live depth only.
        q.push(Time(500), 99);
        assert_eq!(q.peak_len(), 8, "peak was 8 before the cancels");
        assert_eq!(q.len(), 3);
        let live: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(live, vec![0, 1, 99]);
    }

    /// Whole-slot cancellation must advance `peek_time`: when every entry
    /// in the minimal occupied wheel slot is cancelled, the slot's
    /// occupancy bit must clear so `peek_filed` reports the next *live*
    /// minimum — a stale minimum here would make a runner cascade a slot
    /// that pops nothing. Cancellation of filed entries is physical
    /// (swap_remove + occupancy clear in `Wheel::remove`); this is the
    /// regression test that keeps it that way.
    #[test]
    fn cancelling_entire_minimal_slot_advances_peek_time() {
        let mut q = EventQueue::new();
        // Three entries in one level-0 slot, one entry far away (distinct
        // slot on a higher level), one in overflow.
        let near: Vec<EvKey> = (0..3).map(|i| q.push_cancelable(Time(40), i)).collect();
        let far = q.push_cancelable(Time(90_000), 10u64);
        q.push(Time(1u64 << 50), 11);
        assert_eq!(q.peek_time(), Some(Time(40)));
        for k in near {
            assert!(q.cancel(k));
        }
        assert_eq!(
            q.peek_time(),
            Some(Time(90_000)),
            "minimal slot is all-dead; peek_time must advance to the next live entry"
        );
        assert_eq!(q.pop(), Some((Time(90_000), 10)));
        // Cancelling the remaining tracked entry leaves only overflow.
        assert!(!q.cancel(far), "already popped");
        assert_eq!(q.peek_time(), Some(Time(1 << 50)));
        assert_eq!(q.pop(), Some((Time(1 << 50), 11)));
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    /// Same scenario after the slot was drained into the ready run: those
    /// entries are only lazily dead-marked, and `peek_time` must skip the
    /// dead prefix rather than report a cancelled entry's stamp.
    #[test]
    fn cancelling_drained_ready_run_advances_peek_time() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time(40), 0u64);
            let b = q.push_cancelable(Time(40), 1);
            let c = q.push_cancelable(Time(40), 2);
            q.push(Time(200), 3);
            // Popping the slot head moves the whole same-time cohort into
            // the ready run (wheel) or leaves it in the heap; either way
            // the cancels below can only dead-mark.
            assert_eq!(q.pop(), Some((Time(40), 0)));
            assert!(q.cancel(b));
            assert!(q.cancel(c));
            assert_eq!(
                q.peek_time(),
                Some(Time(200)),
                "{backend:?}: dead ready/heap prefix must not mask the live minimum"
            );
            assert_eq!(q.pop(), Some((Time(200), 3)));
            assert_eq!(q.peek_time(), None);
        }
    }

    /// `peek_time` differential under cancel churn: after every operation
    /// the wheel and the reference heap must agree on the live minimum —
    /// including the all-cancelled-slot states the two tests above pin.
    #[test]
    fn peek_time_matches_heap_under_cancel_churn() {
        let mut rng = seeded_rng(4242);
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        let mut live: Vec<(EvKey, EvKey)> = Vec::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        for step in 0..20_000 {
            let r = rng.random::<f64>();
            if r < 0.5 || wheel.is_empty() {
                // Cluster stamps so whole slots get cancelled together.
                let t = now + rng.random_range(0..64u64) * 1000;
                let id = next_id;
                next_id += 1;
                let kw = wheel.push_cancelable(Time(t), id);
                let kh = heap.push_cancelable(Time(t), id);
                live.push((kw, kh));
            } else if r < 0.8 && !live.is_empty() {
                // Cancel a run of neighbors — often an entire slot.
                let i = rng.random_range(0..live.len());
                for _ in 0..rng.random_range(1..8usize) {
                    if i >= live.len() {
                        break;
                    }
                    let (kw, kh) = live.swap_remove(i);
                    assert_eq!(wheel.cancel(kw), heap.cancel(kh));
                }
            } else {
                let a = wheel.pop();
                assert_eq!(a, heap.pop(), "step {step}");
                if let Some((t, _)) = a {
                    now = t.as_ps();
                }
            }
            assert_eq!(wheel.peek_time(), heap.peek_time(), "step {step}");
            assert_eq!(wheel.len(), heap.len(), "step {step}");
        }
    }

    /// The satellite differential suite: cancellation must dequeue the
    /// surviving entries in exactly the order the old *tombstone* scheme
    /// would (push everything, skip stale markers at dispatch). Runs the
    /// same random churn against three implementations — wheel+cancel,
    /// heap+cancel, and a tombstone model over a plain queue — and checks
    /// the visible pop sequences are identical.
    #[test]
    fn cancel_matches_tombstone_dequeue_order() {
        use std::collections::HashSet;
        let mut rng = seeded_rng(99);
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        let mut tomb = EventQueue::new();
        let mut tomb_dead: HashSet<u64> = HashSet::new();
        // Live cancelable keys: (wheel key, heap key, id).
        let mut live: Vec<(EvKey, EvKey, u64)> = Vec::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let tomb_pop = |q: &mut EventQueue<u64>, dead: &HashSet<u64>| loop {
            match q.pop() {
                Some((t, id)) if dead.contains(&id) => {
                    // Tombstone: stale entry dispatched and dropped.
                    let _ = t;
                }
                other => return other,
            }
        };
        for _ in 0..30_000 {
            let r = rng.random::<f64>();
            if r < 0.45 || wheel.is_empty() {
                let t = now + rng.random_range(0..10_000_000u64);
                let id = next_id;
                next_id += 1;
                if rng.random::<f64>() < 0.5 {
                    let kw = wheel.push_cancelable(Time(t), id);
                    let kh = heap.push_cancelable(Time(t), id);
                    live.push((kw, kh, id));
                } else {
                    wheel.push(Time(t), id);
                    heap.push(Time(t), id);
                }
                tomb.push(Time(t), id);
            } else if r < 0.60 && !live.is_empty() {
                let i = rng.random_range(0..live.len());
                let (kw, kh, id) = live.swap_remove(i);
                // Both queues agree on cancellability; mirror into the
                // tombstone model's dead set.
                let cw = wheel.cancel(kw);
                let ch = heap.cancel(kh);
                assert_eq!(cw, ch);
                if cw {
                    tomb_dead.insert(id);
                }
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                let c = tomb_pop(&mut tomb, &tomb_dead);
                assert_eq!(a, b, "wheel vs heap");
                assert_eq!(a, c, "cancel vs tombstone");
                if let Some((t, id)) = a {
                    live.retain(|&(_, _, lid)| lid != id);
                    now = t.as_ps();
                }
            }
        }
        loop {
            let a = wheel.pop();
            assert_eq!(a, heap.pop());
            assert_eq!(a, tomb_pop(&mut tomb, &tomb_dead));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.len(), 0);
        assert_eq!(heap.len(), 0);
    }
    /// One step of a queue script. Stamps are offsets from the last popped
    /// time; a negative offset is a past stamp.
    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(i64),
        Lane(u8, i64),
        Arm(i64),
        /// Index (modulo) into every key issued so far, live or stale.
        Cancel(u8),
        Rearm(u8, i64),
        Pop,
    }

    /// Run `ops` against the wheel — lanes and `rearm` included — and
    /// against the reference heap driven through plain `push` and
    /// `cancel` + `push_cancelable` only. After every step the two must
    /// agree on `len`, `peak_len`, `pushed` and `peek_time`, and every pop
    /// (plus the final drain) must return the same entry.
    fn run_script(ops: &[Op]) -> Result<(), String> {
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        let mut keys: Vec<(EvKey, EvKey)> = Vec::new();
        let mut now = 0u64;
        let at = |now: u64, d: i64| Time(now.saturating_add_signed(d));
        for (i, op) in ops.iter().enumerate() {
            let id = i as u64;
            match *op {
                Op::Push(d) => {
                    wheel.push(at(now, d), id);
                    heap.push(at(now, d), id);
                }
                Op::Lane(lane, d) => {
                    wheel.push_lane(lane as usize, at(now, d), id);
                    heap.push(at(now, d), id);
                }
                Op::Arm(d) => {
                    let kw = wheel.push_cancelable(at(now, d), id);
                    let kh = heap.push_cancelable(at(now, d), id);
                    keys.push((kw, kh));
                }
                Op::Cancel(k) if !keys.is_empty() => {
                    let (kw, kh) = keys[k as usize % keys.len()];
                    if wheel.cancel(kw) != heap.cancel(kh) {
                        return Err(format!("step {i}: cancel liveness differs"));
                    }
                }
                Op::Rearm(k, d) if !keys.is_empty() => {
                    let slot = k as usize % keys.len();
                    let (kw, kh) = keys[slot];
                    let (kw2, live) = wheel.rearm(kw, at(now, d), id);
                    let live_h = heap.cancel(kh);
                    let kh2 = heap.push_cancelable(at(now, d), id);
                    if live != live_h {
                        return Err(format!("step {i}: rearm liveness differs"));
                    }
                    keys[slot] = (kw2, kh2);
                }
                Op::Cancel(_) | Op::Rearm(..) => {}
                Op::Pop => {
                    let (a, b) = (wheel.pop(), heap.pop());
                    if a != b {
                        return Err(format!("step {i}: popped {a:?}, heap popped {b:?}"));
                    }
                    if let Some((t, _)) = a {
                        now = t.as_ps();
                    }
                }
            }
            let w = (wheel.len(), wheel.peak_len(), wheel.pushed());
            let h = (heap.len(), heap.peak_len(), heap.pushed());
            if w != h {
                return Err(format!("step {i}: (len, peak, pushed) {w:?} vs heap {h:?}"));
            }
            let (pw, ph) = (wheel.peek_time(), heap.peek_time());
            if pw != ph {
                return Err(format!("step {i}: peek {pw:?} vs heap {ph:?}"));
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            if a != b {
                return Err(format!("drain: popped {a:?}, heap popped {b:?}"));
            }
            if a.is_none() {
                return Ok(());
            }
        }
    }

    /// Mixed horizons: same instant, within one wheel tick, wire-scale,
    /// timer-scale, an RTO moved by microseconds, past stamps, beyond the
    /// wheel horizon.
    fn gen_offset(rng: &mut impl Rng) -> i64 {
        let mut below = |n: u64| rng.random_range(0..n) as i64;
        match below(12) {
            0 => 0,
            1 => below(1_024),
            2..=5 => below(2_000_000),
            6 => below(50_000_000),
            7 | 8 => 10_000_000_000 + below(3_000_000),
            9 => -below(5_000_000),
            10 => below(2_000_000_000),
            _ => (1 << 59) + below(1_000),
        }
    }

    fn gen_op(rng: &mut impl Rng) -> Op {
        match rng.random_range(0..20u32) {
            0..=1 => Op::Push(gen_offset(rng)),
            // Few lanes, so a lane often holds several entries and a
            // random stamp often lands behind its tail (the fallback).
            2..=6 => Op::Lane(rng.random_range(0..4u8), gen_offset(rng)),
            7..=8 => Op::Arm(gen_offset(rng)),
            9 => Op::Cancel(rng.random_range(0..255u8)),
            10..=12 => Op::Rearm(rng.random_range(0..255u8), gen_offset(rng)),
            _ => Op::Pop,
        }
    }

    #[test]
    fn lanes_and_rearm_match_reference_heap_on_random_churn() {
        let mut rng = seeded_rng(20_14);
        let ops: Vec<Op> = (0..60_000).map(|_| gen_op(&mut rng)).collect();
        run_script(&ops).unwrap();
    }

    /// Any op sequence: the wheel with lanes and `rearm` is observably the
    /// heap built from plain `push` / `cancel` + `push_cancelable`.
    #[test]
    fn prop_any_script_matches_reference_heap() {
        crate::prop::forall(
            "eventq script matches the reference heap",
            |rng| {
                let n = rng.random_range(1..120usize);
                (0..n).map(|_| gen_op(rng)).collect::<Vec<Op>>()
            },
            |ops| {
                crate::prop::shrink_vec(ops, |op| match *op {
                    Op::Lane(_, d) => vec![Op::Push(d)],
                    Op::Rearm(k, d) if d != 0 => vec![Op::Rearm(k, 0), Op::Rearm(k, d / 2)],
                    Op::Push(d) | Op::Arm(d) if d != 0 => vec![Op::Push(0), Op::Push(d / 2)],
                    _ => Vec::new(),
                })
            },
            |ops| run_script(ops),
        );
    }

    #[test]
    fn lane_push_breaking_order_falls_back_and_stays_ordered() {
        let mut q = EventQueue::new();
        assert!(q.push_lane(3, Time(5_000), "a"));
        assert!(
            q.push_lane(3, Time(5_000), "b"),
            "equal stamps keep the lane"
        );
        assert!(q.push_lane(0, Time(4_000), "c"));
        assert!(!q.push_lane(3, Time(100), "d"), "behind the lane's tail");
        assert!(
            q.push_lane(3, Time(9_000), "e"),
            "the lane itself is intact"
        );
        q.push(Time(5_000), "f");
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(Time(100)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["d", "c", "a", "b", "f", "e"]);
        // Under the heap every lane push is a plain push.
        let mut h = EventQueue::reference_heap();
        assert!(h.push_lane(3, Time(5_000), "a"));
        assert!(h.push_lane(3, Time(100), "d"));
        assert_eq!(h.pop(), Some((Time(100), "d")));
    }

    /// A timer far ahead must not drag `cur` past the lane traffic in
    /// front of it: timers armed while lanes drain stay filed (and so
    /// physically cancelable) instead of piling into the `ready` run.
    #[test]
    fn lanes_keep_the_wheel_unprimed_behind_a_far_timer() {
        let mut q = EventQueue::new();
        q.push(Time(10_000_000_000), u64::MAX);
        for i in 0..100u64 {
            q.push_lane(0, Time(i * 1_000_000), i);
            assert_eq!(q.pop(), Some((Time(i * 1_000_000), i)));
            let k = q.push_cancelable(Time(i * 1_000_000 + 5_000_000_000), i);
            let Inner::Wheel(w) = &q.inner else {
                unreachable!()
            };
            assert!(w.ready.is_empty(), "wheel was primed past the lane head");
            assert!(q.cancel(k));
            assert_eq!(q.slab.dead, 0, "cancel of a filed timer is physical");
        }
    }

    /// A re-arm to an *earlier* stamp that the drained `ready` run already
    /// spans must merge into the run, even when the stamp shares the tick
    /// (the level-0 slot) the entry is filed in.
    #[test]
    fn rearm_behind_the_ready_tail_is_not_done_in_place() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            // One tick: stamps 1024..2048 ps.
            q.push(Time(1_100), 0u32);
            q.push(Time(1_300), 1);
            q.push(Time(1_700), 2);
            assert_eq!(q.pop(), Some((Time(1_100), 0)));
            // Past the drained cohort's tail, so filed — in the same slot.
            let k = q.push_cancelable(Time(1_900), 3);
            let (_, live) = q.rearm(k, Time(1_500), 4);
            assert!(live);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let want = vec![(Time(1_300), 1), (Time(1_500), 4), (Time(1_700), 2)];
            assert_eq!(order, want, "{backend:?}");
        }
    }

    #[test]
    fn rearm_in_place_other_slot_ready_run_and_stale_key() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let in_place = backend == QueueBackend::Wheel;
            let mut q = EventQueue::with_backend(backend);
            q.push(Time(40), 0u32);
            let r = q.push_cancelable(Time(40), 1);
            let k = q.push_cancelable(Time(10_000_000_000), 2);
            // Same slot: a 10 ms timer moved by a microsecond.
            let (k2, live) = q.rearm(k, Time(10_001_000_000), 3);
            assert!(live);
            assert_eq!(k2 == k, in_place, "{backend:?}: in-place keeps the key");
            // Another slot: moved by 10 ms.
            let (k3, live) = q.rearm(k2, Time(20_000_000_000), 4);
            assert!(live);
            assert_ne!(k3, k2, "{backend:?}: a re-file issues a fresh key");
            assert!(!q.cancel(k2), "the superseded key is stale");
            // The `ready` run: popping the head drains the t=40 cohort.
            assert_eq!(q.pop(), Some((Time(40), 0)));
            let (r2, live) = q.rearm(r, Time(50), 5);
            assert!(live);
            assert_eq!((q.len(), q.pushed()), (2, 6));
            assert_eq!(q.pop(), Some((Time(50), 5)));
            // Stale key: nothing to cancel, the push still happens.
            let (r3, live) = q.rearm(r2, Time(60), 6);
            assert!(!live);
            assert_eq!(q.pop(), Some((Time(60), 6)));
            assert!(!q.cancel(r3));
            assert_eq!(q.pop(), Some((Time(20_000_000_000), 4)));
            assert_eq!(q.pop(), None);
            assert_eq!(q.peak_len(), 3);
        }
    }
}
