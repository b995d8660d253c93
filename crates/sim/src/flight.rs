//! The typed event timeline: plain data and pure functions.
//!
//! The instruments of a [`crate::Telemetry`] domain answer *where the
//! cycles went* in aggregate; the timeline half of the same domain
//! answers *what happened*: a bounded, allocation-free record of typed
//! dataplane events (seal/open outcomes, batch commits, doorbells,
//! backpressure, session lifecycle, handshake results, adversary-matrix
//! verdicts) stamped with the virtual clock. This module holds what that
//! half is made of: [`EventKind`] / [`FlightEvent`], the typed event,
//! fixed-size and `Copy`, kept in preallocated per-queue rings (evictions
//! are counted, never silently lost). There is no handle here:
//! [`crate::Telemetry::record`] is the one emission point and the
//! domain's lock is the only lock.
//!
//! The timeline is not a tamper-evident log. Inside the TEE it sits in
//! private memory the host cannot write; outside, a chain keyed by a
//! constant anyone can read proves nothing, and this tree has no sealing
//! key to key one with. [`crate::Telemetry::event_log`] is its one
//! rendering.

use crate::Cycles;
use std::collections::VecDeque;
use std::fmt;

/// Per-queue event-ring capacity (events retained per queue).
pub const FLIGHT_RING_CAPACITY: usize = 1024;

/// One typed flight-recorder event kind.
///
/// The `a`/`b` payload words of a [`FlightEvent`] are kind-specific:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `SealOk` | payload bytes | records sealed |
/// | `SealFail` | payload bytes attempted | 0 |
/// | `OpenOk` | plaintext bytes | 0 |
/// | `OpenFail` | session handle bits | 0 |
/// | `BatchCommit` | frames in the batch | 0 |
/// | `Doorbell` | frames behind the kick | 0 |
/// | `Backpressure` | 0 = would-block, 1 = again-later | backlog bytes |
/// | `SessionOpen`/`SessionClose` | session handle bits | 0 |
/// | `SessionRekey` | session handle bits | new epoch |
/// | `SessionQuarantine` | session handle bits | 0 |
/// | `HandshakeOk`/`HandshakeFail` | session handle bits | 0 |
/// | `AttackVerdict` | scenario index | outcome code |
/// | `NotifyArm` | event index published | 0 |
/// | `NotifySuppress` | frames behind the suppressed kick | 0 |
/// | `SpuriousWake` | 0 | 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A record (or batch) sealed onto the TX path.
    SealOk,
    /// A seal attempt failed (the stream refused or the channel died).
    SealFail,
    /// A record (or batch) authenticated and opened on the RX path.
    OpenOk,
    /// An open attempt failed AEAD verification (fail-closed).
    OpenFail,
    /// A multi-record producer commit published to a cio ring.
    BatchCommit,
    /// A doorbell notification posted to the peer.
    Doorbell,
    /// `World::send` bounced with transient backpressure.
    Backpressure,
    /// A session opened through the control plane.
    SessionOpen,
    /// A session closed and its slot reclaimed.
    SessionClose,
    /// A session advanced its cTLS key epoch.
    SessionRekey,
    /// A session quarantined fail-closed.
    SessionQuarantine,
    /// A cTLS handshake completed.
    HandshakeOk,
    /// A cTLS handshake failed.
    HandshakeFail,
    /// An adversary-matrix scenario produced its verdict.
    AttackVerdict,
    /// A ring consumer armed event-idx notifications (went idle and
    /// published how far it has consumed).
    NotifyArm,
    /// A producer publish whose doorbell was suppressed because the
    /// event-idx window proved the consumer still awake.
    NotifySuppress,
    /// A doorbell woke the consumer but the ring was already drained.
    SpuriousWake,
}

impl EventKind {
    /// Number of event kinds.
    pub const COUNT: usize = 17;

    /// Every kind, in declaration order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::SealOk,
        EventKind::SealFail,
        EventKind::OpenOk,
        EventKind::OpenFail,
        EventKind::BatchCommit,
        EventKind::Doorbell,
        EventKind::Backpressure,
        EventKind::SessionOpen,
        EventKind::SessionClose,
        EventKind::SessionRekey,
        EventKind::SessionQuarantine,
        EventKind::HandshakeOk,
        EventKind::HandshakeFail,
        EventKind::AttackVerdict,
        EventKind::NotifyArm,
        EventKind::NotifySuppress,
        EventKind::SpuriousWake,
    ];

    /// Dotted display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SealOk => "seal.ok",
            EventKind::SealFail => "seal.fail",
            EventKind::OpenOk => "open.ok",
            EventKind::OpenFail => "open.fail",
            EventKind::BatchCommit => "batch.commit",
            EventKind::Doorbell => "doorbell",
            EventKind::Backpressure => "backpressure",
            EventKind::SessionOpen => "session.open",
            EventKind::SessionClose => "session.close",
            EventKind::SessionRekey => "session.rekey",
            EventKind::SessionQuarantine => "session.quarantine",
            EventKind::HandshakeOk => "handshake.ok",
            EventKind::HandshakeFail => "handshake.fail",
            EventKind::AttackVerdict => "attack.verdict",
            EventKind::NotifyArm => "notify.arm",
            EventKind::NotifySuppress => "notify.suppress",
            EventKind::SpuriousWake => "wakeup.spurious",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event: fixed-size and `Copy`, so ring storage never
/// allocates. Payload semantics are listed on [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time of the event.
    pub at: Cycles,
    /// Queue (RSS lane) the event belongs to.
    pub queue: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// Preallocated overwrite-oldest event ring for one queue.
#[derive(Debug)]
struct EventRing {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

impl EventRing {
    fn new() -> Self {
        EventRing {
            events: VecDeque::with_capacity(FLIGHT_RING_CAPACITY),
            dropped: 0,
        }
    }

    /// Appends `e`; evicts (and counts) the oldest event once full, so
    /// the preallocated storage never grows.
    fn push(&mut self, e: FlightEvent) {
        if self.events.len() == FLIGHT_RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

/// The timeline half of a telemetry domain: one event ring per queue.
/// Plain storage; the domain's lock guards it.
#[derive(Debug)]
pub(crate) struct Timeline {
    rings: Vec<EventRing>,
}

impl Timeline {
    /// Storage for `queues` queues. Zero queues is the unarmed timeline:
    /// nothing is preallocated and every query answers empty.
    pub(crate) fn new(queues: usize) -> Self {
        Timeline {
            rings: (0..queues).map(|_| EventRing::new()).collect(),
        }
    }

    /// Appends `e` to its queue's ring. Allocation-free in the steady
    /// state.
    pub(crate) fn record(&mut self, e: FlightEvent) {
        self.rings[e.queue as usize].push(e);
    }

    /// Drains `worker` into `self`: per-queue events append in recording
    /// order (same eviction discipline) and drop counters add; the worker
    /// resets. Allocation-free in the steady state.
    pub(crate) fn absorb(&mut self, worker: &mut Timeline) {
        for (ring, w) in self.rings.iter_mut().zip(worker.rings.iter_mut()) {
            for e in w.events.drain(..) {
                ring.push(e);
            }
            ring.dropped += std::mem::take(&mut w.dropped);
        }
    }

    /// Every queue's retained events, oldest first, with the queue's
    /// eviction count.
    pub(crate) fn rings(&self) -> impl Iterator<Item = (&VecDeque<FlightEvent>, u64)> {
        self.rings.iter().map(|r| (&r.events, r.dropped))
    }

    /// The event timeline as deterministic text, one line per event in
    /// queue order.
    pub(crate) fn event_log(&self) -> String {
        let mut out = String::new();
        for (q, (events, dropped)) in self.rings().enumerate() {
            for e in events {
                out.push_str(&format!(
                    "q={q} t={} kind={} a={} b={}\n",
                    e.at.get(),
                    e.kind.name(),
                    e.a,
                    e.b
                ));
            }
            if dropped > 0 {
                out.push_str(&format!("q={q} dropped={dropped}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Telemetry};

    /// A domain with only the timeline armed.
    fn observer(clock: &Clock, queues: usize) -> Telemetry {
        Telemetry::with_arming(clock, queues, false, true)
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let clock = Clock::new();
        let f = observer(&clock, 1);
        let n = FLIGHT_RING_CAPACITY as u64 + 6;
        for i in 0..n {
            clock.advance(Cycles(1));
            f.record(0, EventKind::Doorbell, i, 0);
        }
        let evs = f.events(0);
        assert_eq!(evs.len(), FLIGHT_RING_CAPACITY);
        assert_eq!(evs[0].a, 6);
        assert_eq!(evs.last().unwrap().a, n - 1);
        assert_eq!(f.total_dropped(), 6);
        assert!(f.event_log().ends_with("q=0 dropped=6\n"));
    }

    #[test]
    fn events_are_clock_stamped_and_queue_clamped() {
        let clock = Clock::new();
        let f = observer(&clock, 2);
        clock.advance(Cycles(123));
        f.record(9, EventKind::SealOk, 5, 1);
        let evs = f.events(1);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at, Cycles(123));
        assert_eq!(evs[0].queue, 1);
    }

    #[test]
    fn event_log_round_trips_every_kind_name() {
        let f = observer(&Clock::new(), 1);
        for kind in EventKind::ALL {
            f.record(0, kind, 1, 2);
        }
        let log = f.event_log();
        for (line, kind) in log.lines().zip(EventKind::ALL) {
            assert_eq!(line, format!("q=0 t=0 kind={kind} a=1 b=2"));
        }
        assert_eq!(log.lines().count(), EventKind::COUNT);
    }
}
