//! Quantifying host observability (§2.2, §2.4, experiment E11).
//!
//! "The design of the I/O boundary must minimize the amount of
//! non-architectural side-channels exposed to the host (e.g., I/O
//! metadata, ordering and types of I/O calls)." This module gives that a
//! number: every host-visible event is tallied with the metadata bits the
//! host learns from it. A socket-level boundary leaks the operation type,
//! socket identity, exact payload length, and call timing; a frame-level
//! boundary leaks only what a wire tap would; a tunnel leaks only
//! aggregate volume and timing.
//!
//! The "bits" accounting is a deliberate, documented simplification: each
//! event contributes the width of the metadata fields the host can read
//! directly (not an information-theoretic channel capacity). It is used
//! comparatively across designs, which is all Figure 5 needs.
//!
//! The tally is a *result* axis of Figure 5, not instrumentation, so it
//! is always on: one lock and one in-place update per event, no
//! allocation after the first sighting of a kind, and a footprint that
//! does not grow with run length.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A shared running tally of host-visible events.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<ObsSummary>>,
}

/// Summary of everything a host observed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSummary {
    /// Total events.
    pub events: u64,
    /// Total metadata bits.
    pub bits: u64,
    /// Events per kind.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Number of distinct event kinds (the "types of I/O calls" channel).
    pub kinds: usize,
}

impl Recorder {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Tallies one event of `kind` (e.g. `"sock.send"`, `"frame.tx"`)
    /// exposing `bits` metadata bits to the host.
    pub fn record(&self, kind: &'static str, bits: u32) {
        let mut s = self.inner.lock().expect("recorder lock");
        s.events += 1;
        s.bits += u64::from(bits);
        *s.by_kind.entry(kind).or_insert(0) += 1;
        s.kinds = s.by_kind.len();
    }

    /// Resets the tally.
    pub fn clear(&self) {
        *self.inner.lock().expect("recorder lock") = ObsSummary::default();
    }

    /// The tally so far.
    pub fn summary(&self) -> ObsSummary {
        self.inner.lock().expect("recorder lock").clone()
    }
}

/// Standard metadata widths, so all backends score events consistently.
pub mod bits {
    /// A visible exact length field (u16 scale).
    pub const LENGTH: u32 = 16;
    /// A visible socket/connection identity.
    pub const SOCKET_ID: u32 = 16;
    /// A visible operation type among a small set.
    pub const OP_TYPE: u32 = 4;
    /// A visible remote address + port.
    pub const ENDPOINT: u32 = 48;
    /// Timing: every discrete event gives the host a timestamp. Counted
    /// once per event.
    pub const TIMING: u32 = 20;
    /// Raw frame visibility (headers in the clear up to L4).
    pub const FRAME_HEADERS: u32 = 96;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_sim::SimRng;

    /// Every kind string the tree emits.
    const KINDS: [&str; 16] = [
        "frame.tx",
        "frame.rx",
        "tlp",
        "blk.read",
        "blk.write",
        "sock.connect",
        "sock.listen",
        "sock.accept",
        "sock.send",
        "sock.recv",
        "sock.close",
        "sock.poll",
        "file.create",
        "file.delete",
        "file.read",
        "file.write",
    ];

    /// The fold `summary()` ran over the event log this tally replaced.
    fn oracle(log: &[(&'static str, u32)]) -> ObsSummary {
        let mut s = ObsSummary::default();
        for &(kind, bits) in log {
            s.events += 1;
            s.bits += u64::from(bits);
            *s.by_kind.entry(kind).or_insert(0) += 1;
        }
        s.kinds = s.by_kind.len();
        s
    }

    #[test]
    fn tally_is_the_old_logs_summary() {
        let mut rng = SimRng::seed_from(0x0B5E);
        let r = Recorder::new();
        let shared = r.clone();
        let mut log = Vec::new();
        for i in 0..10_000 {
            let kind = KINDS[rng.next_below(KINDS.len() as u64) as usize];
            let bits = rng.next_below(200) as u32;
            log.push((kind, bits));
            // Clones share the tally: alternate the handle.
            if i % 2 == 0 { &r } else { &shared }.record(kind, bits);
            if i % 1_000 == 0 {
                assert_eq!(r.summary(), oracle(&log), "after {} records", i + 1);
            }
        }
        assert_eq!(r.summary(), oracle(&log));
        assert_eq!(shared.summary(), r.summary());
        assert_eq!(r.summary().kinds, KINDS.len());
        shared.clear();
        assert_eq!(r.summary(), ObsSummary::default());
        r.record("frame.tx", 36);
        assert_eq!(shared.summary(), oracle(&[("frame.tx", 36)]));
    }

    #[test]
    fn records_and_summarizes() {
        let r = Recorder::new();
        r.record("sock.send", 36);
        r.record("sock.send", 36);
        r.record("sock.recv", 36);
        let s = r.summary();
        assert_eq!(s.events, 3);
        assert_eq!(s.bits, 108);
        assert_eq!(s.kinds, 2);
        assert_eq!(s.by_kind["sock.send"], 2);
    }
}
