//! Operation metering.
//!
//! A [`Meter`] counts *what happened* (exits, copies, bytes moved,
//! revocations, ...) while the [`crate::Clock`] tracks *how long it took*.
//! Experiment harnesses snapshot the meter before and after a workload and
//! report the difference, which is how EXPERIMENTS.md attributes costs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! meter_fields {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Shared operation counters for one simulation.
        ///
        /// Cloning a `Meter` yields a handle to the same counters.
        #[derive(Debug, Clone, Default)]
        pub struct Meter {
            inner: Arc<MeterInner>,
        }

        #[derive(Debug, Default)]
        struct MeterInner {
            $($name: AtomicU64,)+
        }

        /// A point-in-time copy of every counter in a [`Meter`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MeterSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Meter {
            /// Creates a meter with all counters at zero.
            pub fn new() -> Self {
                Meter::default()
            }

            $(
                $(#[$doc])*
                #[inline]
                pub fn $name(&self, n: u64) {
                    self.inner.$name.fetch_add(n, Ordering::Relaxed);
                }
            )+

            /// Captures the current value of every counter.
            pub fn snapshot(&self) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.inner.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl MeterSnapshot {
            /// Returns `self - earlier`, counter by counter (saturating).
            pub fn delta(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }
        }
    };
}

meter_fields! {
    /// World switches to the host (VM exits or OCALLs).
    host_transitions,
    /// Intra-TEE compartment switches.
    compartment_switches,
    /// Number of discrete copy operations.
    copies,
    /// Total bytes moved by copies.
    bytes_copied,
    /// Bytes that crossed the boundary with zero copies.
    bytes_zero_copy,
    /// Records published onto cio rings (the denominator for
    /// copies-per-record: `copies / ring_records`).
    ring_records,
    /// Producer-index publishes on cio rings (one per commit, whether the
    /// commit carried one record or a whole batch — the denominator for
    /// records-per-commit: `ring_records / ring_commits`).
    ring_commits,
    /// Guest-memory lock acquisitions on the cio dataplane (slot payload
    /// accesses: each copy, staged write, or in-place region open). The
    /// batched paths acquire the lock once per run of slots, so
    /// `lock_acquisitions / ring_records` drops below 1 under batching.
    lock_acquisitions,
    /// Pages shared with the host.
    pages_shared,
    /// Pages revoked (un-shared) from the host.
    pages_revoked,
    /// AEAD seal/open operations.
    aead_ops,
    /// Bytes through AEAD.
    aead_bytes,
    /// Doorbell notifications posted to the host.
    notifications_sent,
    /// Doorbells *not* posted because the event-idx window proved the
    /// consumer was still awake (`NotifyMode::EventIdx`). Together with
    /// `notifications_sent` + `interrupts_received` this makes
    /// doorbells-per-record auditable: every publish either kicked or
    /// suppressed.
    suppressed_kicks,
    /// Interrupts injected by the host.
    interrupts_received,
    /// Doorbells that arrived while the ring was already drained (the
    /// consumer woke for nothing). A hostile event-idx can at worst raise
    /// this counter — never hang the consumer.
    spurious_wakeups,
    /// Poll iterations that found no work.
    idle_polls,
    /// `World::send` calls bounced with `Transient(WouldBlock)` because the
    /// connection's unacked backlog was over the high-water mark.
    backpressure_wouldblock,
    /// `World::send` calls that found the device ring full mid-write (the
    /// sealed record stays buffered in TCP and is flushed by later steps).
    backpressure_again,
    /// Sessions opened through the session control plane (flow-table
    /// inserts; the churn numerator together with `sessions_closed`).
    sessions_opened,
    /// Sessions closed and their flow-table slots reclaimed.
    sessions_closed,
    /// Sessions quarantined fail-closed after a stream/channel failure
    /// (hostile record, mid-rekey corruption). Distinct from
    /// `violations_detected`: a poisoned session is an application-layer
    /// casualty, not a boundary violation.
    session_failures,
    /// X25519 scalar multiplications performed by cTLS handshakes.
    x25519_ops,
    /// Host-supplied fields validated.
    validations,
    /// Interface violations *detected* and rejected by a boundary.
    violations_detected,
    /// Interface violations that *corrupted* trusted state (should stay 0
    /// for the safe designs; counted by the attack harness oracle).
    violations_undetected,
    /// Block requests completed through the block transport (one per
    /// logical block moved in either direction — the denominator for the
    /// storage copy-discipline gauges).
    blk_records,
    /// Staging copies on the block data path (request frames staged into
    /// private buffers, response payloads copied out). The seal-in-slot
    /// block path performs zero; the `storage_v1` staged path pays several
    /// per block.
    blk_copies,
    /// Producer-index publishes on the block rings (requests and
    /// responses). One commit can carry a whole run of block requests, so
    /// `blk_records / blk_commits` rises toward the batch depth under the
    /// batched storage path.
    blk_commits,
    /// Doorbells actually rung on the block rings (frontend submit kicks
    /// plus backend completion kicks). Divided by `blk_records` this is
    /// the doorbells-per-block rate E24 gates on.
    blk_doorbells,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let m = Meter::new();
        m.copies(1);
        m.copies(2);
        m.bytes_copied(4096);
        let s = m.snapshot();
        assert_eq!(s.copies, 3);
        assert_eq!(s.bytes_copied, 4096);
        assert_eq!(s.host_transitions, 0);
    }

    #[test]
    fn clones_share_counters() {
        let a = Meter::new();
        let b = a.clone();
        a.host_transitions(1);
        b.host_transitions(1);
        assert_eq!(a.snapshot().host_transitions, 2);
    }

    #[test]
    fn delta_subtracts() {
        let m = Meter::new();
        m.aead_ops(5);
        let before = m.snapshot();
        m.aead_ops(3);
        m.aead_bytes(100);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.aead_ops, 3);
        assert_eq!(d.aead_bytes, 100);
        assert_eq!(d.copies, 0);
    }

    #[test]
    fn delta_saturates_rather_than_panics() {
        let m = Meter::new();
        m.copies(1);
        let later = m.snapshot();
        let mut fake_earlier = later;
        fake_earlier.copies = 10;
        assert_eq!(later.delta(&fake_earlier).copies, 0);
    }
}
