//! Virtual-time simulation substrate for the confidential I/O reproduction.
//!
//! The paper's performance arguments are about *relative* costs: a VM exit
//! versus a compartment switch, a per-byte copy versus a page un-share, an
//! AEAD pass versus a bounce buffer. This crate provides the accounting
//! machinery that every other crate charges against:
//!
//! * [`Cycles`] — the unit of virtual time.
//! * [`Clock`] — a shared monotonic virtual clock.
//! * [`CostModel`] — calibrated cycle costs for the privileged operations a
//!   real TEE would perform (exits, page acceptance, TLB shootdowns, ...).
//! * [`Meter`] — per-category operation counters used by the experiment
//!   harnesses to attribute where time went.
//! * [`rng`] — a small deterministic PRNG so every experiment is exactly
//!   reproducible from a seed.
//! * [`telemetry`] — the one observation domain riding the virtual
//!   clock: spans, latency histograms and cycle attribution, plus the
//!   typed event timeline, audit chain and every exporter.
//! * [`flight`] — what the timeline is made of (typed events, the
//!   tamper-evident audit chain as pure functions) and the online SLO
//!   watchdog.
//!
//! Nothing in this crate is specific to networking or storage; it is the
//! lowest layer of the dependency DAG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod flight;
pub mod lanes;
pub mod meter;
pub mod rng;
pub mod telemetry;

pub use cost::CostModel;
pub use flight::{
    verify_audit_chain, AuditHead, AuditRecord, AuditViolation, EventKind, FlightEvent, SloConfig,
    SloWatchdog,
};
pub use lanes::Lanes;
pub use meter::{Meter, MeterSnapshot};
pub use rng::SimRng;
pub use telemetry::{Histogram, Profile, Span, Stage, Telemetry};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A quantity of virtual CPU cycles.
///
/// `Cycles` is the single unit of time in the simulator. Wall-clock
/// conversions (for reporting throughput in Gbit/s) go through
/// [`Cycles::to_nanos`] with an explicit clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Converts to nanoseconds at the given core frequency in GHz.
    ///
    /// # Examples
    ///
    /// ```
    /// use cio_sim::Cycles;
    /// assert_eq!(Cycles(3_000).to_nanos(3.0), 1_000.0);
    /// ```
    pub fn to_nanos(self, ghz: f64) -> f64 {
        self.0 as f64 / ghz
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A shared, monotonic virtual clock.
///
/// Every component of the simulation holds a clone of the same `Clock` and
/// advances it as it "spends" virtual time. The clock is thread-safe so that
/// multi-threaded harnesses (e.g. a polling guest and an adversarial host)
/// can share it, but most experiments are single-threaded and deterministic.
///
/// # Examples
///
/// ```
/// use cio_sim::{Clock, Cycles};
/// let clock = Clock::new();
/// clock.advance(Cycles(100));
/// assert_eq!(clock.now(), Cycles(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Returns the current virtual time.
    #[inline]
    pub fn now(&self) -> Cycles {
        Cycles(self.now.load(Ordering::Relaxed))
    }

    /// Advances the clock by `delta` and returns the new time.
    #[inline]
    pub fn advance(&self, delta: Cycles) -> Cycles {
        Cycles(self.now.fetch_add(delta.0, Ordering::Relaxed) + delta.0)
    }

    /// Returns the virtual time elapsed since `start`.
    #[inline]
    pub fn since(&self, start: Cycles) -> Cycles {
        self.now().saturating_sub(start)
    }

    /// Sets the clock to an absolute time, possibly rewinding it.
    ///
    /// Only [`Lanes`] uses this, to position the clock at a lane's local
    /// frontier and put it back afterwards; everything else must go
    /// through [`Clock::advance`] so time stays monotonic.
    #[inline]
    pub(crate) fn store(&self, t: Cycles) {
        self.now.store(t.0, Ordering::Relaxed);
    }

    /// Positions the clock at an absolute time, possibly rewinding it.
    ///
    /// This exists for the thread-per-queue parallel host: each worker
    /// thread owns a *private* lane clock that the coordinator repositions
    /// at the lane's virtual-time frontier (`shared.now() + pending`)
    /// before dispatching a service round, so timestamps taken inside the
    /// worker match what the serial [`Lanes`] schedule would have produced.
    /// The *shared* world clock must never be repositioned from outside
    /// `Lanes`; only move it through [`Clock::advance`].
    #[inline]
    pub fn reposition(&self, t: Cycles) {
        self.store(t);
    }
}

/// Computes throughput in Gbit/s for `bytes` transferred in `elapsed`
/// virtual cycles at a core frequency of `ghz`.
///
/// Returns 0.0 when no time elapsed (avoids NaN in report tables).
pub fn gbps(bytes: u64, elapsed: Cycles, ghz: f64) -> f64 {
    let nanos = elapsed.to_nanos(ghz);
    if nanos <= 0.0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        assert_eq!(Clock::new().now(), Cycles::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = Clock::new();
        let t1 = c.advance(Cycles(10));
        let t2 = c.advance(Cycles(5));
        assert_eq!(t1, Cycles(10));
        assert_eq!(t2, Cycles(15));
        assert_eq!(c.now(), Cycles(15));
    }

    #[test]
    fn clock_clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(Cycles(7));
        assert_eq!(b.now(), Cycles(7));
        b.advance(Cycles(3));
        assert_eq!(a.now(), Cycles(10));
    }

    #[test]
    fn since_is_saturating() {
        let c = Clock::new();
        c.advance(Cycles(5));
        assert_eq!(c.since(Cycles(3)), Cycles(2));
        assert_eq!(c.since(Cycles(100)), Cycles::ZERO);
    }

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(2) + Cycles(3), Cycles(5));
        assert_eq!(Cycles(5) - Cycles(3), Cycles(2));
        assert_eq!(Cycles(4) * 3, Cycles(12));
        let mut x = Cycles(1);
        x += Cycles(9);
        assert_eq!(x, Cycles(10));
        assert_eq!(Cycles(1).saturating_sub(Cycles(2)), Cycles::ZERO);
        assert_eq!(Cycles(u64::MAX).saturating_add(Cycles(1)), Cycles(u64::MAX));
    }

    #[test]
    fn gbps_computation() {
        // 125 bytes = 1000 bits over 1000 cycles at 1 GHz = 1000 ns -> 1 Gbit/s.
        assert!((gbps(125, Cycles(1000), 1.0) - 1.0).abs() < 1e-9);
        assert_eq!(gbps(100, Cycles::ZERO, 3.0), 0.0);
    }

    #[test]
    fn cycles_display() {
        assert_eq!(Cycles(42).to_string(), "42 cyc");
    }
}
