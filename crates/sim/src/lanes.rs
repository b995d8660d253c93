//! Deterministic accounting for work executed in parallel on virtual cores.
//!
//! The simulator is single-threaded: queues are serviced one after another
//! even though a real multi-queue NIC shards them across cores. If every
//! queue charged the shared [`Clock`] directly, four queues would cost 4x
//! the virtual time of one and multi-queue scaling would be invisible.
//!
//! [`Lanes`] fixes that without threads. Work done on behalf of lane `i`
//! runs inside [`Lanes::run`]: the clock is positioned at the lane's local
//! frontier, the closure executes (charging the clock exactly as it always
//! did), and the elapsed time is folded into the lane's pending tally while
//! the shared clock is put back where the region started. At a barrier
//! ([`Lanes::sync`]) the shared clock advances by the *largest* pending
//! tally — the wall-clock of `n` cores finishing a round in parallel — and
//! all tallies reset.
//!
//! Two invariants make this safe to drop into existing charge sites:
//!
//! * Work attributed to the same lane between barriers serializes (tallies
//!   accumulate), matching one core servicing one queue.
//! * Everything is deterministic: the same sequence of `run`/`sync` calls
//!   yields the same final clock, so seeded experiments stay reproducible.
//!
//! Within a region the clock transiently runs ahead of the shared frontier
//! and is then put back; observers that only compare timestamps produced
//! inside the same lane still see monotonic time.
//!
//! **One lane is the shared clock.** The rewind exists so that sibling
//! lanes overlap; with a single lane there is no sibling, so a region
//! neither repositions nor rewinds, [`Lanes::charge`] advances the clock
//! directly, the tally stays zero and [`Lanes::sync`] has nothing to
//! publish. Code written against lanes therefore *is* the serial schedule
//! at one lane — un-laned observers (fabric stamps, peers) see the clock
//! exactly where serial code would have left it — and needs no
//! single-queue twin.

use crate::{Clock, Cycles};

/// Per-lane virtual-time tallies over a shared [`Clock`].
///
/// See the [module docs](self) for the model. A `Lanes` with a single lane
/// is the shared clock itself: work charges it in place and `sync`
/// publishes nothing.
///
/// # Examples
///
/// ```
/// use cio_sim::{Clock, Cycles, Lanes};
/// let clock = Clock::new();
/// let mut lanes = Lanes::new(clock.clone(), 2);
/// lanes.run(0, || { clock.advance(Cycles(100)); });
/// lanes.run(1, || { clock.advance(Cycles(40)); });
/// assert_eq!(clock.now(), Cycles::ZERO); // nothing published yet
/// lanes.sync();
/// assert_eq!(clock.now(), Cycles(100)); // max, not sum: lanes overlap
/// ```
#[derive(Debug)]
pub struct Lanes {
    clock: Clock,
    pending: Vec<Cycles>,
}

impl Lanes {
    /// Creates a lane set over `clock` with `lanes` parallel lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(clock: Clock, lanes: usize) -> Self {
        assert!(lanes > 0, "a lane set needs at least one lane");
        Lanes {
            clock,
            pending: vec![Cycles::ZERO; lanes],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.pending.len()
    }

    /// Virtual time charged to `lane` since the last [`sync`](Self::sync).
    pub fn pending(&self, lane: usize) -> Cycles {
        self.pending[lane]
    }

    /// Largest pending tally across all lanes (what the next `sync` will
    /// advance the shared clock by).
    pub fn frontier(&self) -> Cycles {
        self.pending.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// Runs `f` with the shared clock positioned at `lane`'s local frontier
    /// and attributes everything it charges to that lane.
    ///
    /// The shared clock is put back to the region base afterwards, so
    /// sibling lanes overlap rather than serialize.
    pub fn run<R>(&mut self, lane: usize, f: impl FnOnce() -> R) -> R {
        let base = self.begin(lane);
        let out = f();
        self.end(lane, base);
        out
    }

    /// Opens a lane region by hand: positions the shared clock at `lane`'s
    /// local frontier and returns the region base to pass to
    /// [`end`](Self::end).
    ///
    /// The explicit pair exists for callers whose region body needs
    /// mutable access to state a closure could not also borrow; between
    /// `begin` and `end` the shared clock transiently runs at the lane's
    /// frontier, so the pair must not be interleaved with other lanes.
    #[must_use = "pass the base to end() or the region never closes"]
    pub fn begin(&mut self, lane: usize) -> Cycles {
        let base = self.clock.now();
        if self.overlapping() {
            self.clock.store(base.saturating_add(self.pending[lane]));
        }
        base
    }

    /// Closes a region opened by [`begin`](Self::begin): folds the elapsed
    /// time into `lane`'s tally and rewinds the shared clock to `base`.
    pub fn end(&mut self, lane: usize, base: Cycles) {
        if self.overlapping() {
            self.pending[lane] = self.clock.now().saturating_sub(base);
            self.clock.store(base);
        }
    }

    /// Adds `delta` to `lane`'s tally without running a closure.
    pub fn charge(&mut self, lane: usize, delta: Cycles) {
        if self.overlapping() {
            self.pending[lane] = self.pending[lane].saturating_add(delta);
        } else {
            self.clock.advance(delta);
        }
    }

    /// Whether there is a sibling lane to overlap with (see the module
    /// docs: one lane is the shared clock).
    fn overlapping(&self) -> bool {
        self.pending.len() > 1
    }

    /// Barrier: advances the shared clock by the largest pending tally,
    /// resets all tallies, and returns the advance.
    pub fn sync(&mut self) -> Cycles {
        let max = self.frontier();
        for p in &mut self.pending {
            *p = Cycles::ZERO;
        }
        if max > Cycles::ZERO {
            self.clock.advance(max);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_lanes_overlap() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 4);
        for q in 0..4 {
            lanes.run(q, || {
                clock.advance(Cycles(250));
            });
        }
        assert_eq!(clock.now(), Cycles::ZERO);
        assert_eq!(lanes.sync(), Cycles(250));
        assert_eq!(clock.now(), Cycles(250));
    }

    #[test]
    fn same_lane_serializes() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 2);
        lanes.run(0, || {
            clock.advance(Cycles(100));
        });
        lanes.run(0, || {
            clock.advance(Cycles(70));
        });
        assert_eq!(lanes.pending(0), Cycles(170));
        lanes.run(1, || {
            clock.advance(Cycles(30));
        });
        assert_eq!(lanes.sync(), Cycles(170));
        assert_eq!(clock.now(), Cycles(170));
    }

    #[test]
    fn single_lane_is_serial_accounting() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 1);
        for _ in 0..3 {
            lanes.run(0, || {
                clock.advance(Cycles(10));
            });
        }
        lanes.sync();
        assert_eq!(clock.now(), Cycles(30));
    }

    #[test]
    fn one_lane_is_the_shared_clock() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 1);
        let base = lanes.begin(0);
        clock.advance(Cycles(100));
        lanes.end(0, base);
        // No sibling to overlap with: the region did not rewind.
        assert_eq!(clock.now(), Cycles(100));
        assert_eq!(lanes.pending(0), Cycles::ZERO);
        lanes.charge(0, Cycles(40));
        assert_eq!(clock.now(), Cycles(140));
        assert_eq!(lanes.pending(0), Cycles::ZERO);
        // Nothing left to publish at the barrier.
        assert_eq!(lanes.sync(), Cycles::ZERO);
        assert_eq!(clock.now(), Cycles(140));
    }

    #[test]
    fn run_resumes_at_lane_frontier() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 2);
        lanes.run(0, || {
            clock.advance(Cycles(100));
        });
        // Timestamps taken inside a lane continue from the lane's own
        // frontier, so intra-lane time is monotonic.
        lanes.run(0, || {
            assert_eq!(clock.now(), Cycles(100));
        });
        assert_eq!(clock.now(), Cycles::ZERO);
    }

    #[test]
    fn charge_without_closure() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 2);
        lanes.charge(1, Cycles(42));
        assert_eq!(lanes.frontier(), Cycles(42));
        lanes.sync();
        assert_eq!(clock.now(), Cycles(42));
    }

    #[test]
    fn sync_with_no_work_is_free() {
        let clock = Clock::new();
        let mut lanes = Lanes::new(clock.clone(), 8);
        assert_eq!(lanes.sync(), Cycles::ZERO);
        assert_eq!(clock.now(), Cycles::ZERO);
    }
}
