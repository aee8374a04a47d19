//! Virtual (timestamping) token buckets.

use silo_base::{Bytes, Rate, Time};

/// A token bucket that *timestamps* packets instead of holding them:
/// [`TokenBucket::earliest`] answers "when could a packet of this size
/// conformantly leave?" and [`TokenBucket::commit`] consumes the tokens at
/// that instant. Splitting query from commit lets a chain of buckets agree
/// on one departure time (the max of their answers) before any state
/// changes.
///
/// Token arithmetic is in `f64` bytes; departure times are quantized to
/// picoseconds deterministically, so chained simulations are reproducible.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Rate,
    capacity: Bytes,
    tokens: f64,
    last: Time,
    violations: u64,
}

impl TokenBucket {
    /// A bucket that starts full (a fresh VM has its whole burst
    /// allowance).
    pub fn new(rate: Rate, capacity: Bytes) -> TokenBucket {
        assert!(rate.as_bps() > 0, "token bucket needs a positive rate");
        TokenBucket {
            rate,
            capacity,
            tokens: capacity.as_f64(),
            last: Time::ZERO,
            violations: 0,
        }
    }

    /// Change the refill rate (hose reallocation). Tokens accrued so far
    /// are kept.
    pub fn set_rate(&mut self, now: Time, rate: Rate) {
        assert!(rate.as_bps() > 0);
        self.refill(now);
        self.rate = rate;
    }

    pub fn rate(&self) -> Rate {
        self.rate
    }

    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Current token level after refilling to `now` (read-only estimate).
    pub fn level(&self, now: Time) -> f64 {
        let dt = now.since(self.last).as_secs_f64();
        (self.tokens + self.rate.bytes_per_sec() * dt).min(self.capacity.as_f64())
    }

    fn refill(&mut self, now: Time) {
        if now > self.last {
            self.tokens = self.level(now);
            self.last = now;
        }
    }

    /// Earliest instant ≥ `now` at which `size` tokens are available.
    ///
    /// `now` may lag the bucket's last commit (a sender stamping a backlog
    /// of packets "as of" one instant); the answer is then measured from
    /// the commit frontier, preserving correct inter-packet spacing.
    ///
    /// Sizes above the capacity are allowed (a message larger than the
    /// burst): the packet departs once the *deficit* is repaid at `rate` —
    /// callers chain a `Bmax` bucket to cap the resulting packet rate.
    pub fn earliest(&self, now: Time, size: Bytes) -> Time {
        let base = now.max(self.last);
        let have = self.level(base);
        let need = size.as_f64().min(self.capacity.as_f64());
        if have >= need {
            base
        } else {
            let wait_s = (need - have) / self.rate.bytes_per_sec();
            base + silo_base::Dur::from_secs_f64(wait_s)
        }
    }

    /// Consume `size` tokens at instant `t` (which must be ≥ the matching
    /// [`TokenBucket::earliest`] answer). Oversized packets drive the
    /// level negative; subsequent packets wait for the debt.
    ///
    /// Conservation is checked in every build: a commit before its
    /// `earliest` answer (over-spending the guarantee) increments
    /// [`TokenBucket::violations`] instead of silently passing in release
    /// mode — the simulator surfaces the total as
    /// `Metrics::token_violations`, which must stay zero.
    pub fn commit(&mut self, t: Time, size: Bytes) {
        self.refill(t);
        let floor = -(size.as_f64() - self.capacity.as_f64()).max(0.0);
        self.tokens -= size.as_f64();
        if self.tokens < floor - 1e-3 {
            self.violations += 1;
        }
    }

    /// Commits observed below the conservation floor (pacer bugs). Zero in
    /// a correct run.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// The Fig. 8 hierarchy: a packet may depart at the max of all levels'
/// earliest times; committing debits every level at that time.
///
/// ```
/// use silo_pacer::{BucketChain, TokenBucket};
/// use silo_base::{Bytes, Rate, Time};
///
/// // {B = 1 Gbps, S = 15 KB} capped at Bmax = 2 Gbps:
/// let mut chain = BucketChain::new(vec![
///     TokenBucket::new(Rate::from_gbps(2), Bytes(1500)),
///     TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15)),
/// ]);
/// // The first packet of a fresh burst departs immediately…
/// assert_eq!(chain.stamp(Time::ZERO, Bytes(1500)), Time::ZERO);
/// // …the next is spaced by Bmax (1500 B at 2 Gbps = 6 us).
/// assert_eq!(chain.stamp(Time::ZERO, Bytes(1500)), Time::from_us(6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BucketChain {
    buckets: Vec<TokenBucket>,
}

impl BucketChain {
    pub fn new(buckets: Vec<TokenBucket>) -> BucketChain {
        BucketChain { buckets }
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Earliest conformant departure for a packet of `size`.
    pub fn earliest(&self, now: Time, size: Bytes) -> Time {
        self.buckets
            .iter()
            .map(|b| b.earliest(now, size))
            .max()
            .unwrap_or(now)
    }

    /// Stamp and commit in one step: returns the departure time.
    pub fn stamp(&mut self, now: Time, size: Bytes) -> Time {
        let t = self.earliest(now, size);
        for b in &mut self.buckets {
            b.commit(t, size);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::Dur;

    #[test]
    fn full_bucket_sends_burst_immediately() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15));
        let now = Time::from_us(100);
        for _ in 0..10 {
            let t = b.earliest(now, Bytes(1500));
            assert_eq!(t, now);
            b.commit(t, Bytes(1500));
        }
        // Burst exhausted: the 11th packet waits 1500 B at 1 Gbps = 12 us.
        let t = b.earliest(now, Bytes(1500));
        assert_eq!(t, now + Dur::from_us(12));
    }

    #[test]
    fn steady_state_spacing_equals_rate() {
        // After the burst drains, packets leave exactly size/rate apart.
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes(1500));
        let mut now = Time::ZERO;
        let mut stamps = Vec::new();
        for _ in 0..100 {
            let t = b.earliest(now, Bytes(1500));
            b.commit(t, Bytes(1500));
            stamps.push(t);
            now = t; // saturating sender
        }
        for w in stamps.windows(2).skip(2) {
            assert_eq!(w[1] - w[0], Dur::from_us(12));
        }
    }

    #[test]
    fn idle_time_rebuilds_burst_up_to_capacity() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15));
        // Drain everything.
        let mut now = Time::ZERO;
        for _ in 0..20 {
            let t = b.earliest(now, Bytes(1500));
            b.commit(t, Bytes(1500));
            now = t;
        }
        // Idle for 1 second: tokens must cap at 15 KB, not 125 MB.
        let later = now + Dur::from_secs(1);
        assert!((b.level(later) - 15_000.0).abs() < 1.0);
    }

    #[test]
    fn oversized_message_goes_into_debt() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes(1500));
        let t0 = b.earliest(Time::ZERO, Bytes(1500));
        assert_eq!(t0, Time::ZERO);
        b.commit(t0, Bytes(1500));
        // A 15 KB write debits 10 packets' worth; the next packet waits.
        let t1 = b.earliest(Time::ZERO, Bytes(15_000));
        b.commit(t1, Bytes(15_000));
        let t2 = b.earliest(t1, Bytes(1500));
        assert!(t2 > t1 + Dur::from_us(100));
    }

    #[test]
    fn chain_takes_the_max() {
        // {B=1G, S=15KB} chained with Bmax=2G: the burst drains at 2 G, not
        // instantaneously. The S bucket nets 750 B per 1500 B packet while
        // bursting (refill minus drain), so it runs dry after exactly
        // 15000/750 = 20 packets, after which B dictates 12 us spacing.
        let mut c = BucketChain::new(vec![
            TokenBucket::new(Rate::from_gbps(2), Bytes(1500)), // Bmax cap
            TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15)), // {B,S}
        ]);
        let mut now = Time::ZERO;
        let mut stamps = Vec::new();
        for _ in 0..25 {
            let t = c.stamp(now, Bytes(1500));
            stamps.push(t);
            now = t;
        }
        // Packets 1..19 ride the burst, spaced by Bmax: 6 us (the 19th
        // packet needs 1500 tokens and 15000 − 750·18 = 1500 remain).
        for w in stamps[..19].windows(2) {
            assert_eq!(w[1] - w[0], Dur::from_us(6));
        }
        // Past the burst the B bucket dominates: 12 us.
        for w in stamps[20..].windows(2) {
            assert_eq!(w[1] - w[0], Dur::from_us(12));
        }
    }

    #[test]
    fn premature_commit_counts_a_violation() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes(1500));
        // Spend the whole burst, then commit again at the same instant —
        // before `earliest` would allow it. The invariant must record the
        // over-spend (in every build profile), not abort or vanish.
        b.commit(Time::ZERO, Bytes(1500));
        assert_eq!(b.violations(), 0);
        b.commit(Time::ZERO, Bytes(1500));
        assert_eq!(b.violations(), 1);
        // A conformant commit afterwards does not add to the count.
        let t = b.earliest(Time::ZERO, Bytes(1500));
        b.commit(t, Bytes(1500));
        assert_eq!(b.violations(), 1);
    }

    #[test]
    fn set_rate_preserves_accrued_tokens() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15));
        let mut now = Time::ZERO;
        for _ in 0..10 {
            let t = b.earliest(now, Bytes(1500));
            b.commit(t, Bytes(1500));
            now = t;
        }
        let lvl = b.level(now);
        b.set_rate(now, Rate::from_mbps(500));
        assert!((b.level(now) - lvl).abs() < 1.0);
        assert_eq!(b.rate(), Rate::from_mbps(500));
    }
}
