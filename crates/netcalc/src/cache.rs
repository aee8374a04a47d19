//! Version-keyed memoization of per-port bound computations.
//!
//! The placement manager recomputes a port's backlog bound only when the
//! aggregate load at that port has changed since the last query. Callers
//! maintain a monotone *version* per port (bumped on every admit/evict
//! that touches the port) and pass it with each lookup; the cache returns
//! the memoized value while the version matches and recomputes otherwise.
//!
//! The memoized value is the *rounded* bound in bytes (`Option<u64>`,
//! `None` = unbounded), so a cache hit is bit-identical to a fresh
//! computation by construction — there is no float state to drift. The
//! equality of cached and from-scratch bounds is asserted end-to-end by
//! `silo_placement::SiloPlacer::verify_scratch_consistency` and the
//! admission-service differential suite.

/// One port's memo slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Load version the memoized value was computed at.
    version: u64,
    /// Memoized bound in bytes; `None` means the bound is unbounded
    /// (sustained rate oversubscribes the line), which is cached too.
    value: Option<u64>,
    /// False until the first computation at any version.
    valid: bool,
}

const EMPTY: Slot = Slot {
    version: 0,
    value: None,
    valid: false,
};

/// Version-keyed cache of per-port bounds (bytes), indexed densely by
/// port id.
#[derive(Debug, Clone)]
pub struct BoundCache {
    slots: Vec<Slot>,
    hits: u64,
    misses: u64,
}

impl BoundCache {
    pub fn new(ports: usize) -> BoundCache {
        BoundCache {
            slots: vec![EMPTY; ports],
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The memoized bound for `idx` at load version `version`, computing
    /// (and memoizing) it with `compute` when the slot is stale or empty.
    pub fn get_or_insert_with(
        &mut self,
        idx: usize,
        version: u64,
        compute: impl FnOnce() -> Option<u64>,
    ) -> Option<u64> {
        let slot = &mut self.slots[idx];
        if slot.valid && slot.version == version {
            self.hits += 1;
            return slot.value;
        }
        let value = compute();
        *slot = Slot {
            version,
            value,
            valid: true,
        };
        self.misses += 1;
        value
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to recompute (stale version or first query).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_per_version() {
        use std::cell::Cell;
        let mut c = BoundCache::new(4);
        let calls = Cell::new(0);
        let get = |c: &mut BoundCache, v: u64| {
            c.get_or_insert_with(2, v, || {
                calls.set(calls.get() + 1);
                Some(100 + v)
            })
        };
        assert_eq!(get(&mut c, 0), Some(100));
        assert_eq!(get(&mut c, 0), Some(100));
        assert_eq!(calls.get(), 1, "same version must hit the memo");
        assert_eq!(get(&mut c, 1), Some(101));
        assert_eq!(calls.get(), 2, "version bump must recompute");
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn caches_unbounded_results() {
        let mut c = BoundCache::new(1);
        let mut calls = 0;
        for _ in 0..3 {
            let v = c.get_or_insert_with(0, 7, || {
                calls += 1;
                None
            });
            assert_eq!(v, None);
        }
        assert_eq!(calls, 1, "None must be memoized like any value");
    }

    #[test]
    fn version_zero_is_not_confused_with_empty() {
        let mut c = BoundCache::new(1);
        assert_eq!(c.get_or_insert_with(0, 0, || Some(5)), Some(5));
        assert_eq!(c.get_or_insert_with(0, 0, || panic!("must hit")), Some(5));
    }
}
