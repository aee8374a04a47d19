//! Exact fixed-point units for simulated time, data sizes and rates.
//!
//! * [`Time`] — an absolute instant, picoseconds since simulation start.
//! * [`Dur`] — a span of time, picoseconds.
//! * [`Bytes`] — a data size in bytes.
//! * [`Rate`] — a bandwidth in bits per second.
//!
//! The central operation, [`Rate::tx_time`], computes the wire time of a
//! frame exactly: `bytes * 8 * 1e12 / bits_per_second` picoseconds, carried
//! out in `u128` and rounded up (a frame is not done until its last bit is).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant in simulated time (picoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

/// A data size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

/// A bandwidth in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);
    /// A sentinel later than any reachable simulation instant.
    pub const MAX: Time = Time(u64::MAX);

    pub fn from_ns(ns: u64) -> Time {
        Time(ns * PS_PER_NS)
    }
    pub fn from_us(us: u64) -> Time {
        Time(us * PS_PER_US)
    }
    pub fn from_ms(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }
    pub fn from_secs(s: u64) -> Time {
        Time(s * PS_PER_S)
    }
    pub fn as_ps(self) -> u64 {
        self.0
    }
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// Duration since an earlier instant; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);
    pub const MAX: Dur = Dur(u64::MAX);

    pub fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }
    pub fn from_ns(ns: u64) -> Dur {
        Dur(ns * PS_PER_NS)
    }
    pub const fn from_us(us: u64) -> Dur {
        Dur(us * PS_PER_US)
    }
    pub const fn from_ms(ms: u64) -> Dur {
        Dur(ms * PS_PER_MS)
    }
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * PS_PER_S)
    }
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        Dur((s * PS_PER_S as f64).round() as u64)
    }
    pub fn as_ps(self) -> u64 {
        self.0
    }
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }
    /// Scale by a non-negative float (rounds to nearest picosecond).
    pub fn mul_f64(self, f: f64) -> Dur {
        assert!(f >= 0.0 && f.is_finite(), "negative or non-finite scale");
        Dur((self.0 as f64 * f).round() as u64)
    }
}

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    pub const fn from_kb(kb: u64) -> Bytes {
        Bytes(kb * 1_000)
    }
    pub fn from_mb(mb: u64) -> Bytes {
        Bytes(mb * 1_000_000)
    }
    pub fn as_u64(self) -> u64 {
        self.0
    }
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    pub fn bits(self) -> u64 {
        self.0 * 8
    }
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
}

impl Rate {
    pub const ZERO: Rate = Rate(0);

    pub fn from_bps(bps: u64) -> Rate {
        Rate(bps)
    }
    pub fn from_mbps(mbps: u64) -> Rate {
        Rate(mbps * 1_000_000)
    }
    pub fn from_gbps(gbps: u64) -> Rate {
        Rate(gbps * 1_000_000_000)
    }
    pub fn as_bps(self) -> u64 {
        self.0
    }
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Bytes per second as a float (for analytic models).
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Exact time to transmit `b` bytes at this rate, rounded **up** to the
    /// next picosecond. Panics on a zero rate (a zero-rate link can never
    /// transmit; callers must special-case it).
    pub fn tx_time(self, b: Bytes) -> Dur {
        assert!(self.0 > 0, "tx_time on zero rate");
        let num = b.0 as u128 * 8 * PS_PER_S as u128;
        Dur(num.div_ceil(self.0 as u128) as u64)
    }

    /// Bytes that can be served in `d` at this rate (rounded down).
    pub fn bytes_in(self, d: Dur) -> Bytes {
        let num = self.0 as u128 * d.0 as u128;
        Bytes((num / (8 * PS_PER_S as u128)) as u64)
    }

    /// Scale by a non-negative float.
    pub fn mul_f64(self, f: f64) -> Rate {
        assert!(f >= 0.0 && f.is_finite(), "negative or non-finite scale");
        Rate((self.0 as f64 * f).round() as u64)
    }

    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0 + d.0)
    }
}
impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}
impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, d: Dur) -> Time {
        Time(self.0 - d.0)
    }
}
impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, t: Time) -> Dur {
        Dur(self.0 - t.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0 + d.0)
    }
}
impl AddAssign for Dur {
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0 - d.0)
    }
}
impl SubAssign for Dur {
    fn sub_assign(&mut self, d: Dur) {
        self.0 -= d.0;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}
impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, b: Bytes) -> Bytes {
        Bytes(self.0 + b.0)
    }
}
impl AddAssign for Bytes {
    fn add_assign(&mut self, b: Bytes) {
        self.0 += b.0;
    }
}
impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, b: Bytes) -> Bytes {
        Bytes(self.0 - b.0)
    }
}
impl SubAssign for Bytes {
    fn sub_assign(&mut self, b: Bytes) {
        self.0 -= b.0;
    }
}
impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, k: u64) -> Bytes {
        Bytes(self.0 * k)
    }
}
impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, r: Rate) -> Rate {
        Rate(self.0 + r.0)
    }
}
impl AddAssign for Rate {
    fn add_assign(&mut self, r: Rate) {
        self.0 += r.0;
    }
}
impl Sub for Rate {
    type Output = Rate;
    fn sub(self, r: Rate) -> Rate {
        Rate(self.0 - r.0)
    }
}
impl Mul<u64> for Rate {
    type Output = Rate;
    fn mul(self, k: u64) -> Rate {
        Rate(self.0 * k)
    }
}
impl Div<u64> for Rate {
    type Output = Rate;
    fn div(self, k: u64) -> Rate {
        Rate(self.0 / k)
    }
}
impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |a, b| a + b)
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.1}ns", self.as_ns_f64())
        }
    }
}
impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}
impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.as_gbps_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}Mbps", self.as_mbps_f64())
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn void_frame_tx_time_is_exact() {
        // The paper's headline: an 84-byte frame at 10 Gbps is 67.2 ns.
        let d = Rate::from_gbps(10).tx_time(Bytes(84));
        assert_eq!(d.as_ps(), 67_200);
    }

    #[test]
    fn mtu_frame_at_1gbps() {
        // 1500 B at 1 Gbps = 12 us exactly.
        let d = Rate::from_gbps(1).tx_time(Bytes(1500));
        assert_eq!(d, Dur::from_us(12));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s -> must round up.
        let d = Rate::from_bps(3).tx_time(Bytes(1));
        assert_eq!(d.as_ps(), (8_000_000_000_000u64).div_ceil(3));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = Rate::from_gbps(10);
        let b = Bytes(123_456);
        let d = r.tx_time(b);
        let back = r.bytes_in(d);
        assert!(back >= b && back.as_u64() - b.as_u64() <= 1);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_us(5) + Dur::from_ns(500);
        assert_eq!(t.as_ps(), 5_500_000);
        assert_eq!(t - Time::from_us(5), Dur::from_ns(500));
        assert_eq!(Time::from_us(1).since(Time::from_us(2)), Dur::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_ns(68)), "68.0ns");
        assert_eq!(format!("{}", Rate::from_gbps(10)), "10.00Gbps");
        assert_eq!(format!("{}", Bytes::from_kb(312)), "312.00KB");
    }

    #[test]
    fn rate_scaling() {
        assert_eq!(Rate::from_gbps(10).mul_f64(0.5), Rate::from_gbps(5));
        assert_eq!(Rate::from_gbps(2) / 4, Rate::from_mbps(500));
    }

    #[test]
    fn queue_capacity_example() {
        // Paper §4.2.1: a 10 Gbps port with a 100 KB buffer has an 80 us
        // queue capacity.
        let d = Rate::from_gbps(10).tx_time(Bytes::from_kb(100));
        assert_eq!(d, Dur::from_us(80));
    }
}
