//! The typed event timeline: plain data, pure functions, and the SLO
//! watchdog.
//!
//! The instruments of a [`Telemetry`] domain answer *where the cycles
//! went* in aggregate; the timeline half of the same domain answers *what
//! happened*: a bounded, allocation-free record of typed dataplane events
//! (seal/open outcomes, batch commits, doorbells, backpressure, session
//! lifecycle, handshake results, adversary-matrix verdicts, SLO breaches)
//! stamped with the virtual clock. This module holds what that half is
//! made of. There is no handle here: [`Telemetry::record`] is the one
//! emission point and the domain's lock is the only lock.
//!
//! * [`EventKind`] / [`FlightEvent`] — the typed event, fixed-size and
//!   `Copy`, kept in preallocated per-queue rings (evictions are counted,
//!   never silently lost).
//! * The **audit chain**: security-relevant events are additionally
//!   appended to a hash-chained log where every record's digest covers
//!   the previous record's digest (ChaCha20-derived one-time Poly1305
//!   keys over the record payload). [`verify_audit_chain`] detects
//!   truncation, reordering, and mutation, and names the exact link that
//!   broke.
//! * The **SLO watchdog** ([`SloWatchdog`]): consumes the domain's RTT
//!   histograms incrementally, evaluates a windowed p99 against the
//!   latency SLO plus a short/long-window burn rate, and feeds breaches
//!   back into the timeline and the [`Meter`].

use crate::telemetry::HIST_BUCKETS;
use crate::{Cycles, Histogram, Meter, Telemetry};
use cio_crypto::{chacha20, poly1305::Poly1305};
use std::collections::VecDeque;
use std::fmt;

/// Per-queue event-ring capacity (events retained per queue).
pub const FLIGHT_RING_CAPACITY: usize = 1024;

/// Preallocated audit-chain capacity (records before the first growth
/// reallocation; security events are rare, so the steady state never
/// grows it — the E22 zero-allocation audit records one security event
/// per cycle and must stay under this).
const AUDIT_PREALLOC: usize = 1024;

/// The audit chain's key-derivation key.
///
/// The reproduction uses a fixed, documented constant so every export is
/// reproducible from the seed alone; a deployment would provision this
/// per boot from TEE-sealed storage. The chain's tamper evidence comes
/// from the *structure* (every digest covers its predecessor), not from
/// the secrecy of this constant.
pub const AUDIT_CHAIN_KEY: [u8; 32] = [0xC1; 32];

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
/// | `SloBreach` | measured p99 (or burn ppm) | threshold |
/// | `NotifyArm` | event index published | 0 |
/// | `NotifySuppress` | frames behind the suppressed kick | 0 |
/// | `SpuriousWake` | 0 | 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A record (or batch) sealed onto the TX path.
    SealOk = 0,
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
    /// The SLO watchdog flagged a breach.
    SloBreach,
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
    pub const COUNT: usize = 18;

    /// Every kind, in wire-code order.
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
        EventKind::SloBreach,
        EventKind::NotifyArm,
        EventKind::NotifySuppress,
        EventKind::SpuriousWake,
    ];

    /// Stable wire code (the discriminant), used by the audit digest.
    #[inline]
    pub fn code(self) -> u16 {
        self as u16
    }

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
            EventKind::SloBreach => "slo.breach",
            EventKind::NotifyArm => "notify.arm",
            EventKind::NotifySuppress => "notify.suppress",
            EventKind::SpuriousWake => "wakeup.spurious",
        }
    }

    /// Whether events of this kind are security-relevant and therefore
    /// also appended to the tamper-evident audit chain.
    pub fn is_security(self) -> bool {
        matches!(
            self,
            EventKind::SealFail
                | EventKind::OpenFail
                | EventKind::SessionQuarantine
                | EventKind::HandshakeFail
                | EventKind::AttackVerdict
        )
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

/// One link of the tamper-evident audit chain.
///
/// `digest` authenticates the record payload *and* the previous record's
/// digest, so any mutation, reordering, or splice invalidates every
/// digest from the tampered link onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// Position in the chain (0-based, dense).
    pub seq: u64,
    /// Virtual time of the underlying event.
    pub at: Cycles,
    /// Queue of the underlying event.
    pub queue: u32,
    /// Kind of the underlying event.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Chained Poly1305 digest over the payload and the previous digest.
    pub digest: [u8; 16],
}

/// The chain head a verifier trusts out of band: how many records the
/// chain holds and the digest of the last one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditHead {
    /// Number of records in the chain.
    pub len: u64,
    /// Digest of the final record (all zeros for an empty chain).
    pub digest: [u8; 16],
}

/// What [`verify_audit_chain`] found wrong, naming the exact link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditViolation {
    /// Record at `link` does not carry sequence number `link`: a record
    /// was removed, duplicated, or spliced in.
    BadSequence {
        /// 0-based index of the offending record.
        link: u64,
    },
    /// Record at `link` fails digest verification: its payload or its
    /// predecessor's digest was mutated, or records were reordered.
    BadDigest {
        /// 0-based index of the offending record.
        link: u64,
    },
    /// The chain length does not match the trusted head (records were
    /// truncated from, or appended to, the end).
    Truncated {
        /// Length the trusted head claims.
        expected: u64,
        /// Length actually presented.
        got: u64,
    },
    /// Every link verified but the final digest does not match the
    /// trusted head: the whole chain was regenerated.
    HeadMismatch,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::BadSequence { link } => write!(f, "bad sequence at link {link}"),
            AuditViolation::BadDigest { link } => write!(f, "bad digest at link {link}"),
            AuditViolation::Truncated { expected, got } => {
                write!(f, "chain length {got} != trusted head {expected}")
            }
            AuditViolation::HeadMismatch => write!(f, "final digest != trusted head"),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Computes the chained digest for one audit record.
///
/// A one-time Poly1305 key is derived per sequence number from the
/// chain key (one ChaCha20 block keyed by [`AUDIT_CHAIN_KEY`] with the
/// sequence number as nonce), then MACs `prev_digest || seq || at ||
/// queue || kind || a || b`. Per-record keys keep Poly1305's one-time
/// requirement, and chaining the previous digest makes the records a
/// hash chain.
pub fn audit_digest(
    prev: &[u8; 16],
    seq: u64,
    at: Cycles,
    queue: u32,
    kind: EventKind,
    a: u64,
    b: u64,
) -> [u8; 16] {
    let mut nonce = [0u8; chacha20::NONCE_LEN];
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    let block = chacha20::block(&AUDIT_CHAIN_KEY, 0, &nonce);
    let mut key = [0u8; 32];
    key.copy_from_slice(&block[..32]);
    let mut msg = [0u8; 54];
    msg[..16].copy_from_slice(prev);
    msg[16..24].copy_from_slice(&seq.to_le_bytes());
    msg[24..32].copy_from_slice(&at.get().to_le_bytes());
    msg[32..36].copy_from_slice(&queue.to_le_bytes());
    msg[36..38].copy_from_slice(&kind.code().to_le_bytes());
    msg[38..46].copy_from_slice(&a.to_le_bytes());
    msg[46..54].copy_from_slice(&b.to_le_bytes());
    Poly1305::mac(&key, &msg)
}

/// Verifies a presented chain against a trusted [`AuditHead`].
///
/// Walks every link recomputing digests from genesis, so a mutation or
/// reorder is pinned to the first offending link; the head comparison
/// catches truncation and wholesale regeneration.
///
/// # Errors
///
/// The first [`AuditViolation`] encountered.
pub fn verify_audit_chain(records: &[AuditRecord], head: &AuditHead) -> Result<(), AuditViolation> {
    let mut prev = [0u8; 16];
    for (i, r) in records.iter().enumerate() {
        if r.seq != i as u64 {
            return Err(AuditViolation::BadSequence { link: i as u64 });
        }
        let d = audit_digest(&prev, r.seq, r.at, r.queue, r.kind, r.a, r.b);
        if d != r.digest {
            return Err(AuditViolation::BadDigest { link: i as u64 });
        }
        prev = d;
    }
    if head.len != records.len() as u64 {
        return Err(AuditViolation::Truncated {
            expected: head.len,
            got: records.len() as u64,
        });
    }
    if head.digest != prev {
        return Err(AuditViolation::HeadMismatch);
    }
    Ok(())
}

/// The timeline half of a telemetry domain: per-queue event rings plus
/// the audit chain. Plain storage; the domain's lock guards it.
#[derive(Debug)]
pub(crate) struct Timeline {
    rings: Vec<EventRing>,
    audit: Vec<AuditRecord>,
    audit_head: [u8; 16],
}

impl Timeline {
    /// Storage for `queues` queues. Zero queues is the unarmed timeline:
    /// nothing is preallocated and every query answers empty.
    pub(crate) fn new(queues: usize) -> Self {
        Timeline {
            rings: (0..queues).map(|_| EventRing::new()).collect(),
            audit: Vec::with_capacity(if queues > 0 { AUDIT_PREALLOC } else { 0 }),
            audit_head: [0u8; 16],
        }
    }

    /// Appends `e` to its queue's ring; security-relevant kinds
    /// ([`EventKind::is_security`]) also extend the audit chain.
    /// Allocation-free in the steady state.
    pub(crate) fn record(&mut self, e: FlightEvent) {
        self.rings[e.queue as usize].push(e);
        if e.kind.is_security() {
            self.chain(e);
        }
    }

    fn chain(&mut self, e: FlightEvent) {
        let seq = self.audit.len() as u64;
        let digest = audit_digest(&self.audit_head, seq, e.at, e.queue, e.kind, e.a, e.b);
        self.audit.push(AuditRecord {
            seq,
            at: e.at,
            queue: e.queue,
            kind: e.kind,
            a: e.a,
            b: e.b,
            digest,
        });
        self.audit_head = digest;
    }

    /// Drains `worker` into `self`: per-queue events append in recording
    /// order (same eviction discipline), drop counters add, and the
    /// worker's audit payloads are re-chained under this chain's head
    /// (digests recomputed at their new positions); the worker resets.
    /// Allocation-free in the steady state (the audit splice only runs
    /// when the worker saw security events).
    pub(crate) fn absorb(&mut self, worker: &mut Timeline) {
        for (ring, w) in self.rings.iter_mut().zip(worker.rings.iter_mut()) {
            for e in w.events.drain(..) {
                ring.push(e);
            }
            ring.dropped += std::mem::take(&mut w.dropped);
        }
        for r in worker.audit.drain(..) {
            self.chain(FlightEvent {
                at: r.at,
                queue: r.queue,
                kind: r.kind,
                a: r.a,
                b: r.b,
            });
        }
        worker.audit_head = [0u8; 16];
    }

    /// Every queue's retained events, oldest first, with the queue's
    /// eviction count.
    pub(crate) fn rings(&self) -> impl Iterator<Item = (&VecDeque<FlightEvent>, u64)> {
        self.rings.iter().map(|r| (&r.events, r.dropped))
    }

    pub(crate) fn audit(&self) -> &[AuditRecord] {
        &self.audit
    }

    pub(crate) fn head(&self) -> AuditHead {
        AuditHead {
            len: self.audit.len() as u64,
            digest: self.audit_head,
        }
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

    /// The audit chain as deterministic text, one line per record plus a
    /// trailing head line (hex digests).
    pub(crate) fn audit_log(&self) -> String {
        let hex = |d: &[u8; 16]| -> String { d.iter().map(|b| format!("{b:02x}")).collect() };
        let mut out = String::with_capacity(96 * self.audit.len() + 64);
        for r in &self.audit {
            out.push_str(&format!(
                "seq={} t={} q={} kind={} a={} b={} digest={}\n",
                r.seq,
                r.at.get(),
                r.queue,
                r.kind.name(),
                r.a,
                r.b,
                hex(&r.digest)
            ));
        }
        out.push_str(&format!(
            "head len={} digest={}\n",
            self.audit.len(),
            hex(&self.audit_head)
        ));
        out
    }
}

/// SLO watchdog thresholds.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Windowed p99 RTT must stay at or below this (the E21 SLO).
    pub p99_slo: Cycles,
    /// Short burn-rate window span (virtual cycles).
    pub short_window: Cycles,
    /// Long burn-rate window span (virtual cycles).
    pub long_window: Cycles,
    /// Error budget in parts-per-million of round trips allowed over the
    /// SLO; burn breaches fire when both windows exceed it.
    pub budget_ppm: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            p99_slo: Cycles(25_000),
            short_window: Cycles(250_000),
            long_window: Cycles(2_500_000),
            budget_ppm: 10_000,
        }
    }
}

/// Accumulated RTT samples for one burn-rate window of one queue.
#[derive(Debug, Clone, Default)]
struct WatchWindow {
    start: Cycles,
    /// The window's bucket deltas ([`Histogram::add_bucket`]), so its
    /// percentiles read as the holding bucket's upper bound.
    rtt: Histogram,
    over: u64,
}

impl WatchWindow {
    fn reset(&mut self, now: Cycles) {
        *self = WatchWindow {
            start: now,
            ..WatchWindow::default()
        };
    }

    /// Burn rate in ppm of samples over the SLO (0 for an empty window).
    fn burn_ppm(&self) -> u64 {
        (self.over * 1_000_000)
            .checked_div(self.rtt.count())
            .unwrap_or(0)
    }
}

/// Online SLO watchdog over the telemetry RTT histograms.
///
/// [`SloWatchdog::pump`] is called from the world's housekeeping step:
/// it diffs each queue's cumulative RTT buckets against the last pump
/// (so it consumes the histograms incrementally, without keeping raw
/// samples), accumulates the deltas into a short and a long window, and
/// evaluates on window close:
///
/// * **p99 breach** — the window's p99 exceeds [`SloConfig::p99_slo`]
///   (checked on every short-window close); the breach event carries
///   `(measured p99, slo)`.
/// * **burn breach** — the fraction of round trips over the SLO exceeds
///   [`SloConfig::budget_ppm`] in the *long* window while the most
///   recently completed *short* window also exceeded it (the classic
///   two-window burn-rate alert: sustained burn, still burning); the
///   breach event carries `(long-window ppm, budget ppm)`.
///
/// Breaches land in the domain's timeline as [`EventKind::SloBreach`]
/// events and bump the [`Meter`]'s `slo_breaches` counter, which both
/// telemetry exporters surface. Everything is integer arithmetic over
/// the virtual clock: deterministic, and allocation-free after
/// construction.
#[derive(Debug)]
pub struct SloWatchdog {
    cfg: SloConfig,
    queues: usize,
    /// Cumulative RTT buckets seen at the last pump, per queue.
    seen: Vec<[u64; HIST_BUCKETS]>,
    short: Vec<WatchWindow>,
    long: Vec<WatchWindow>,
    /// Burn ppm of the most recently *completed* short window.
    last_short_ppm: Vec<u64>,
    breaches: u64,
}

impl SloWatchdog {
    /// Creates a watchdog for `queues` queues (at least one).
    pub fn new(cfg: SloConfig, queues: usize) -> Self {
        let queues = queues.max(1);
        SloWatchdog {
            cfg,
            queues,
            seen: vec![[0; HIST_BUCKETS]; queues],
            short: vec![WatchWindow::default(); queues],
            long: vec![WatchWindow::default(); queues],
            last_short_ppm: vec![0; queues],
            breaches: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Total breaches emitted so far.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Ingests new RTT samples from `telemetry` and evaluates any
    /// windows that closed at `now`; breaches are recorded into the same
    /// domain's timeline and counted on `meter`. Returns the number of
    /// breaches emitted by this pump. A no-op unless the instruments are
    /// armed (the RTT histograms are where the samples come from).
    pub fn pump(&mut self, telemetry: &Telemetry, meter: &Meter, now: Cycles) -> u64 {
        if !telemetry.enabled() {
            return 0;
        }
        let slo = self.cfg.p99_slo.get();
        let mut emitted = 0u64;
        for q in 0..self.queues.min(telemetry.queues()) {
            let h = telemetry.rtt_histogram(q);
            let b = h.buckets();
            for (i, &count) in b.iter().enumerate() {
                let delta = count.saturating_sub(self.seen[q][i]);
                if delta == 0 {
                    continue;
                }
                self.seen[q][i] = count;
                // A bucket counts as over-SLO when its entire value
                // range exceeds the SLO (conservative and deterministic:
                // sub-bucket positions are unknowable from the deltas).
                let lower = if i == 0 {
                    0
                } else {
                    Histogram::bucket_upper_bound(i - 1)
                };
                for w in [&mut self.short[q], &mut self.long[q]] {
                    w.rtt.add_bucket(i, delta);
                    if lower >= slo {
                        w.over += delta;
                    }
                }
            }
            if now.saturating_sub(self.short[q].start) >= self.cfg.short_window {
                let w = &self.short[q];
                if w.rtt.count() > 0 {
                    let p99 = w.rtt.p99();
                    self.last_short_ppm[q] = w.burn_ppm();
                    if p99 > slo {
                        telemetry.record(q, EventKind::SloBreach, p99, slo);
                        meter.slo_breaches(1);
                        emitted += 1;
                    }
                }
                self.short[q].reset(now);
            }
            if now.saturating_sub(self.long[q].start) >= self.cfg.long_window {
                let w = &self.long[q];
                let long_ppm = w.burn_ppm();
                if w.rtt.count() > 0
                    && long_ppm > self.cfg.budget_ppm
                    && self.last_short_ppm[q] > self.cfg.budget_ppm
                {
                    telemetry.record(q, EventKind::SloBreach, long_ppm, self.cfg.budget_ppm);
                    meter.slo_breaches(1);
                    emitted += 1;
                }
                self.long[q].reset(now);
            }
        }
        self.breaches += emitted;
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clock;

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
    fn security_events_land_in_audit_chain() {
        let f = observer(&Clock::new(), 2);
        f.record(0, EventKind::SealOk, 1, 1); // not security
        f.record(1, EventKind::OpenFail, 0, 0);
        f.record(0, EventKind::AttackVerdict, 3, 2);
        let records = f.audit_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, EventKind::OpenFail);
        assert_eq!(records[1].kind, EventKind::AttackVerdict);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        f.verify_audit().expect("fresh chain verifies");
        assert_eq!(f.audit_head().len, 2);
    }

    #[test]
    fn audit_chain_flags_mutation_at_the_exact_link() {
        let f = observer(&Clock::new(), 1);
        for i in 0..5u64 {
            f.record(0, EventKind::OpenFail, i, 0);
        }
        let head = f.audit_head();
        let mut records = f.audit_records();
        verify_audit_chain(&records, &head).expect("untampered chain verifies");
        records[2].a ^= 1;
        assert_eq!(
            verify_audit_chain(&records, &head),
            Err(AuditViolation::BadDigest { link: 2 })
        );
    }

    #[test]
    fn audit_chain_flags_reorder_truncation_and_regeneration() {
        let f = observer(&Clock::new(), 1);
        for i in 0..4u64 {
            f.record(0, EventKind::SealFail, i, 0);
        }
        let head = f.audit_head();
        let records = f.audit_records();

        // Reorder: swapping two links breaks the sequence check first.
        let mut swapped = records.clone();
        swapped.swap(1, 2);
        assert_eq!(
            verify_audit_chain(&swapped, &head),
            Err(AuditViolation::BadSequence { link: 1 })
        );

        // Truncation: dropping the tail is caught by the trusted head.
        assert_eq!(
            verify_audit_chain(&records[..3], &head),
            Err(AuditViolation::Truncated {
                expected: 4,
                got: 3
            })
        );

        // Regeneration: a self-consistent forged chain fails the head.
        let g = observer(&Clock::new(), 1);
        for i in 0..4u64 {
            g.record(0, EventKind::SealFail, i + 100, 0);
        }
        let forged = g.audit_records();
        verify_audit_chain(&forged, &g.audit_head()).expect("forged chain is self-consistent");
        assert_eq!(
            verify_audit_chain(&forged, &head),
            Err(AuditViolation::HeadMismatch)
        );
    }

    #[test]
    fn digest_swap_between_links_is_bad_digest() {
        let f = observer(&Clock::new(), 1);
        f.record(0, EventKind::OpenFail, 1, 0);
        f.record(0, EventKind::OpenFail, 2, 0);
        let head = f.audit_head();
        let mut records = f.audit_records();
        let d = records[0].digest;
        records[0].digest = records[1].digest;
        records[1].digest = d;
        assert_eq!(
            verify_audit_chain(&records, &head),
            Err(AuditViolation::BadDigest { link: 0 })
        );
    }

    #[test]
    fn event_log_round_trips_every_kind_name() {
        let f = observer(&Clock::new(), 1);
        for kind in EventKind::ALL {
            f.record(0, kind, 1, 2);
        }
        let log = f.event_log();
        for kind in EventKind::ALL {
            assert!(
                log.contains(&format!("kind={}", kind.name())),
                "{} missing from log",
                kind.name()
            );
            assert_eq!(EventKind::ALL[kind.code() as usize], kind);
        }
        assert_eq!(f.audit_records().len(), 5, "five kinds are security");
    }

    #[test]
    fn watchdog_is_silent_under_the_slo() {
        let clock = Clock::new();
        let t = Telemetry::with_arming(&clock, 1, true, true);
        let m = Meter::new();
        let mut w = SloWatchdog::new(SloConfig::default(), 1);
        for _ in 0..100 {
            t.record_rtt(0, Cycles(10_000));
            clock.advance(Cycles(10_000));
            w.pump(&t, &m, clock.now());
        }
        assert_eq!(w.breaches(), 0);
        assert_eq!(m.snapshot().slo_breaches, 0);
        assert!(t.events(0).is_empty());
    }

    #[test]
    fn watchdog_flags_p99_breach_with_payload() {
        let clock = Clock::new();
        let t = Telemetry::with_arming(&clock, 1, true, true);
        let m = Meter::new();
        let mut w = SloWatchdog::new(SloConfig::default(), 1);
        // Every RTT lands far over the 25k SLO; first short-window close
        // must flag the p99.
        for _ in 0..100 {
            t.record_rtt(0, Cycles(60_000));
            clock.advance(Cycles(10_000));
            w.pump(&t, &m, clock.now());
        }
        assert!(w.breaches() > 0);
        assert_eq!(m.snapshot().slo_breaches, w.breaches());
        let evs = t.events(0);
        assert!(!evs.is_empty());
        assert_eq!(evs[0].kind, EventKind::SloBreach);
        assert!(evs[0].a > 25_000, "payload carries the measured p99");
        assert_eq!(evs[0].b, 25_000, "payload carries the threshold");
    }

    #[test]
    fn watchdog_burn_rate_needs_both_windows() {
        let clock = Clock::new();
        let t = Telemetry::with_arming(&clock, 1, true, true);
        let m = Meter::new();
        let cfg = SloConfig::default();
        let mut w = SloWatchdog::new(cfg, 1);
        // 5% of round trips over the SLO (budget is 1%), sustained past
        // the long window: expect at least one burn breach whose payload
        // is (ppm, budget).
        let mut i = 0u64;
        while clock.now() < Cycles(6_000_000) {
            let rtt = if i.is_multiple_of(20) { 80_000 } else { 8_000 };
            t.record_rtt(0, Cycles(rtt));
            clock.advance(Cycles(5_000));
            w.pump(&t, &m, clock.now());
            i += 1;
        }
        let burn: Vec<_> = t
            .events(0)
            .into_iter()
            .filter(|e| e.kind == EventKind::SloBreach && e.b == cfg.budget_ppm)
            .collect();
        assert!(!burn.is_empty(), "sustained burn must breach");
        assert!(burn[0].a > cfg.budget_ppm);
    }

    #[test]
    fn watchdog_needs_the_instruments_and_is_deterministic() {
        let run = |instruments: bool| {
            let clock = Clock::new();
            let t = Telemetry::with_arming(&clock, 2, instruments, true);
            let m = Meter::new();
            let mut w = SloWatchdog::new(SloConfig::default(), 2);
            for i in 0..200u64 {
                t.record_rtt((i % 2) as usize, Cycles(20_000 + (i % 7) * 3_000));
                clock.advance(Cycles(5_000));
                w.pump(&t, &m, clock.now());
            }
            (t.event_log(), w.breaches())
        };
        assert_eq!(run(true), run(true));
        assert!(run(true).1 > 0);
        // No RTT histograms to read: the pump is a no-op.
        assert_eq!(run(false), (String::new(), 0));
    }

    #[test]
    fn audit_digest_is_position_dependent() {
        let zero = [0u8; 16];
        let a = audit_digest(&zero, 0, Cycles(1), 0, EventKind::OpenFail, 1, 2);
        let b = audit_digest(&zero, 1, Cycles(1), 0, EventKind::OpenFail, 1, 2);
        let c = audit_digest(&a, 1, Cycles(1), 0, EventKind::OpenFail, 1, 2);
        assert_ne!(a, b, "sequence number keys the digest");
        assert_ne!(b, c, "previous digest chains in");
    }

    #[test]
    fn audit_log_is_deterministic_and_hex_terminated() {
        let f = observer(&Clock::new(), 1);
        f.record(0, EventKind::HandshakeFail, 42, 0);
        let log = f.audit_log();
        assert!(log.contains("kind=handshake.fail"));
        assert!(log.contains("head len=1"));
        assert_eq!(log, f.audit_log());
    }
}
