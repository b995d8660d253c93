//! Deterministic telemetry: spans, latency histograms, cycle attribution.
//!
//! The [`Meter`] counts *what happened* and the
//! [`Clock`] tracks *how long everything took*, but neither
//! can say *where in the path* the cycles went. This module adds that
//! third axis without giving up determinism: every measurement rides the
//! virtual clock, so two runs with the same seed produce byte-identical
//! exports.
//!
//! One [`Telemetry`] handle is the whole observation domain. Its first
//! half is three instruments:
//!
//! * **Spans** — [`Telemetry::span`] returns a guard that records
//!   enter/exit [`Cycles`] for one [`Stage`] of the dataplane path
//!   (guest send → cTLS seal → ring produce → exit → host service →
//!   ring consume → open). Spans nest; a fixed-depth preallocated stack
//!   makes enter/exit allocation-free in steady state.
//! * **Histograms** — [`Histogram`] buckets values by power of two
//!   (preallocated arrays, no allocation per sample) and answers
//!   p50/p95/p99/max. Used for per-queue RTT, per-stage residency, and
//!   batch sizes.
//! * **Cycle attribution** — closed spans fold into a per-stage/per-queue
//!   [`Profile`] of *self* cycles (elapsed minus time spent in child
//!   spans), answering "what fraction of virtual time went to crypto vs.
//!   copies vs. ring ops vs. exits".
//!
//! Its second half is the typed event **timeline** ([`crate::flight`]):
//! [`Telemetry::record`] is the single emission point for "what happened"
//! events, which land in bounded per-queue rings.
//!
//! Both halves live in one state behind one lock and are armed by two
//! independent bits ([`Telemetry::with_arming`]); a half whose bit is off
//! answers every query exactly as a disabled handle does. The domain has
//! one machine-readable export, [`Telemetry::json_snapshot`], with
//! [`Profile::render_table`] as its text view and
//! [`Telemetry::event_log`] as the timeline's rendering. Each walks
//! fixed-order arrays, so identical runs export identical bytes.
//!
//! A disabled handle ([`Telemetry::disabled`]) is an inert no-op that
//! costs one branch per call site; components hold one unconditionally
//! and worlds only arm it when asked.

use crate::flight::{EventKind, FlightEvent, Timeline};
use crate::{Clock, Cycles, Meter};
use std::sync::{Arc, Mutex};

/// Maximum span nesting depth. Deeper spans are counted as overflows and
/// dropped instead of allocating.
pub const MAX_SPAN_DEPTH: usize = 16;

/// Number of power-of-two histogram buckets (covers the full `u64`
/// range).
const HIST_BUCKETS: usize = 64;

/// One stage of the dual-boundary dataplane path.
///
/// Stages are listed in path order; [`Stage::ALL`] iterates them in a
/// fixed order so reports and exports are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Application `send` call on the guest (outermost send-side span).
    GuestSend,
    /// cTLS seal of outgoing application data.
    TxSeal,
    /// Producing onto a cio ring (either side of the boundary).
    RingProduce,
    /// World switches to the host (VM exits / OCALL marshalling).
    HostExit,
    /// Host backend servicing one queue (outermost host-side span).
    HostService,
    /// Consuming from a cio ring (either side of the boundary).
    RingConsume,
    /// cTLS open of incoming records on the guest.
    RxOpen,
    /// AEAD work charged by the record layer (flat attribution from
    /// `cio-ctls`, nested under whichever span is open).
    Crypto,
    /// Guest-side interface poll (stack processing + device receive).
    GuestPoll,
    /// Per-connection stream flushing (protocol bytes, record reassembly).
    AppFlush,
    /// Remote peer servicing (not on the guest's critical path).
    Peer,
    /// Idle: a world round that moved nothing waits for the fabric's next
    /// delivery (at most one step quantum).
    Idle,
    /// Block request submission on the guest (frontend framing + commit).
    BlkSubmit,
    /// Storage AEAD: sealing a block into (or opening one out of) ring
    /// slot memory, including tag-metadata maintenance.
    BlkSeal,
    /// Block-ring traffic itself (reserve/commit/consume on the request
    /// and response rings, doorbells included).
    BlkRing,
    /// Host backend servicing block requests against the backing disk.
    BlkService,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 16;

    /// Every stage, in fixed path order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::GuestSend,
        Stage::TxSeal,
        Stage::RingProduce,
        Stage::HostExit,
        Stage::HostService,
        Stage::RingConsume,
        Stage::RxOpen,
        Stage::Crypto,
        Stage::GuestPoll,
        Stage::AppFlush,
        Stage::Peer,
        Stage::Idle,
        Stage::BlkSubmit,
        Stage::BlkSeal,
        Stage::BlkRing,
        Stage::BlkService,
    ];

    /// Stable dotted name used in tables and exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::GuestSend => "guest.send",
            Stage::TxSeal => "tx.seal",
            Stage::RingProduce => "ring.produce",
            Stage::HostExit => "exit",
            Stage::HostService => "host.service",
            Stage::RingConsume => "ring.consume",
            Stage::RxOpen => "rx.open",
            Stage::Crypto => "crypto",
            Stage::GuestPoll => "guest.poll",
            Stage::AppFlush => "app.flush",
            Stage::Peer => "peer",
            Stage::Idle => "idle",
            Stage::BlkSubmit => "blk.submit",
            Stage::BlkSeal => "blk.seal",
            Stage::BlkRing => "blk.ring",
            Stage::BlkService => "blk.service",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A log-bucketed histogram: bucket `i` counts values whose binary
/// magnitude is `i` (bucket 0 holds zero; bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]`). The bucket array is preallocated, so recording
/// never allocates.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HIST_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The `p`-th percentile (`0..=100`), reported as the upper bound of
    /// the bucket holding that rank, clamped to the recorded maximum.
    /// Returns 0 for an empty histogram. Integer arithmetic only, so the
    /// answer is deterministic.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * p.min(100)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` bucket-by-bucket (counts and sums add,
    /// maxima combine). Merging is associative and commutative, so a set
    /// of per-worker histograms merged in any order yields the same
    /// result; the parallel host still merges in ascending queue order
    /// for uniformity. Allocation-free.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += *s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }
}

/// One open span on the fixed stack.
#[derive(Debug, Clone, Copy)]
struct SpanFrame {
    stage: Stage,
    queue: usize,
    start: u64,
    /// Virtual time spent in (direct) child spans and flat charges, so
    /// the parent attributes only its *self* time.
    child: u64,
}

const IDLE_FRAME: SpanFrame = SpanFrame {
    stage: Stage::Idle,
    queue: 0,
    start: 0,
    child: 0,
};

#[derive(Debug)]
struct State {
    queues: usize,
    stack: [SpanFrame; MAX_SPAN_DEPTH],
    depth: usize,
    overflows: u64,
    /// Total cycles covered by top-level spans and top-level flat
    /// charges. Per-stage self cycles partition this exactly.
    covered: u64,
    /// `queues * Stage::COUNT` self-cycle cells, indexed
    /// `q * Stage::COUNT + stage`.
    attr_cycles: Vec<u64>,
    attr_counts: Vec<u64>,
    residency: Vec<Histogram>,
    rtt: Vec<Histogram>,
    batch: Vec<Histogram>,
    /// Attached operation meter ([`Telemetry::attach_meter`]): lets the
    /// export derive dataplane copy-discipline gauges
    /// (`copies_per_record`, `bytes_copied`) from the ring
    /// producer/consumer counters.
    meter: Option<Meter>,
    /// Session control-plane gauges ([`Telemetry::publish_sessions`]):
    /// per-shard live/peak occupancy plus flow-table totals. `None` until
    /// a session layer publishes; the export omits the section then.
    sessions: Option<SessionGauges>,
    /// The timeline half: per-queue event rings (empty storage unless
    /// the domain observes).
    log: Timeline,
}

/// Point-in-time session control-plane gauges (per-RSS-shard occupancy
/// plus flow-table totals), published by the session layer each tick.
#[derive(Debug, Clone, Default)]
struct SessionGauges {
    /// Live sessions per shard (index = shard = RSS lane).
    live: Vec<u64>,
    /// Peak concurrent sessions per shard.
    peak: Vec<u64>,
    /// Sessions ever opened through the flow table.
    created: u64,
    /// Sessions closed and their slots reclaimed.
    reclaimed: u64,
    /// Flow-table slots ever allocated (the memory footprint; bounded by
    /// peak concurrency when reclamation works).
    slots: u64,
}

impl State {
    fn new(queues: usize, observe: bool) -> Self {
        State {
            queues,
            stack: [IDLE_FRAME; MAX_SPAN_DEPTH],
            depth: 0,
            overflows: 0,
            covered: 0,
            attr_cycles: vec![0; queues * Stage::COUNT],
            attr_counts: vec![0; queues * Stage::COUNT],
            residency: vec![Histogram::new(); Stage::COUNT],
            rtt: vec![Histogram::new(); queues],
            batch: vec![Histogram::new(); queues],
            meter: None,
            sessions: None,
            log: Timeline::new(if observe { queues } else { 0 }),
        }
    }

    #[inline]
    fn cell(&self, queue: usize, stage: Stage) -> usize {
        queue.min(self.queues - 1) * Stage::COUNT + stage.idx()
    }

    /// Every histogram of the domain, in one fixed order.
    fn histograms_mut(&mut self) -> impl Iterator<Item = &mut Histogram> {
        (self.residency.iter_mut())
            .chain(&mut self.rtt)
            .chain(&mut self.batch)
    }
}

#[derive(Debug)]
struct Inner {
    clock: Clock,
    /// Arm bits, fixed at construction and read before the lock: a call
    /// into a half that is off costs one branch, like a disabled handle.
    instruments: bool,
    observe: bool,
    state: Mutex<State>,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("telemetry poisoned")
    }

    fn enter(&self, queue: usize, stage: Stage) -> bool {
        let now = self.clock.now().get();
        let mut s = self.lock();
        if s.depth == MAX_SPAN_DEPTH {
            s.overflows += 1;
            return false;
        }
        let queue = queue.min(s.queues - 1);
        let depth = s.depth;
        s.stack[depth] = SpanFrame {
            stage,
            queue,
            start: now,
            child: 0,
        };
        s.depth = depth + 1;
        true
    }

    fn exit(&self) {
        let now = self.clock.now().get();
        let mut s = self.lock();
        if s.depth == 0 {
            return;
        }
        s.depth -= 1;
        let f = s.stack[s.depth];
        let elapsed = now.saturating_sub(f.start);
        let self_cycles = elapsed.saturating_sub(f.child);
        let cell = s.cell(f.queue, f.stage);
        s.attr_cycles[cell] += self_cycles;
        s.attr_counts[cell] += 1;
        s.residency[f.stage.idx()].record(elapsed);
        if s.depth > 0 {
            let d = s.depth - 1;
            s.stack[d].child = s.stack[d].child.saturating_add(elapsed);
        } else {
            s.covered = s.covered.saturating_add(elapsed);
        }
    }

    /// Flat attribution: `cycles` already charged to the clock are booked
    /// to `(queue, stage)` as a zero-depth child of the open span (so the
    /// enclosing span does not double-count them). With `queue` `None`,
    /// the innermost open span's queue is used.
    fn attribute(&self, queue: Option<usize>, stage: Stage, cycles: u64) {
        let mut s = self.lock();
        let queue = queue.unwrap_or(if s.depth > 0 {
            s.stack[s.depth - 1].queue
        } else {
            0
        });
        let cell = s.cell(queue, stage);
        s.attr_cycles[cell] += cycles;
        s.attr_counts[cell] += 1;
        s.residency[stage.idx()].record(cycles);
        if s.depth > 0 {
            let d = s.depth - 1;
            s.stack[d].child = s.stack[d].child.saturating_add(cycles);
        } else {
            s.covered = s.covered.saturating_add(cycles);
        }
    }
}

/// Shared handle to one deterministic observation domain.
///
/// Cloning is cheap (an `Arc` bump) and yields a handle to the same
/// state; a [`Telemetry::disabled`] handle makes every operation a no-op.
/// All steady-state operations (spans, histogram records, flat
/// attribution, event recording) are allocation-free — the stack, bucket
/// arrays and event rings are preallocated at construction.
///
/// # Examples
///
/// ```
/// use cio_sim::{Clock, Cycles, Stage, Telemetry};
/// let clock = Clock::new();
/// let t = Telemetry::new(clock.clone(), 1);
/// {
///     let _outer = t.span(0, Stage::GuestSend);
///     clock.advance(Cycles(10));
///     {
///         let _seal = t.span(0, Stage::TxSeal);
///         clock.advance(Cycles(30));
///     }
/// }
/// let p = t.profile();
/// assert_eq!(p.cycles(0, Stage::GuestSend), 10); // self time only
/// assert_eq!(p.cycles(0, Stage::TxSeal), 30);
/// assert_eq!(p.covered(), Cycles(40));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// Creates a domain over `clock` with the instruments armed (spans,
    /// histograms, attribution) for `queues` queues (at least one) and
    /// the timeline off.
    pub fn new(clock: Clock, queues: usize) -> Self {
        Telemetry::with_arming(&clock, queues, true, false)
    }

    /// Creates a domain with each half armed independently:
    /// `instruments` arms spans, histograms and attribution; `observe`
    /// arms the event timeline. With neither, the handle is
    /// [`Telemetry::disabled`].
    pub fn with_arming(clock: &Clock, queues: usize, instruments: bool, observe: bool) -> Self {
        Telemetry {
            inner: (instruments || observe).then(|| {
                Arc::new(Inner {
                    clock: clock.clone(),
                    instruments,
                    observe,
                    state: Mutex::new(State::new(queues.max(1), observe)),
                })
            }),
        }
    }

    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether the instruments record anything.
    pub fn enabled(&self) -> bool {
        self.ins().is_some()
    }

    /// Whether the event timeline records anything.
    pub fn observing(&self) -> bool {
        self.obs().is_some()
    }

    /// The domain, if its instruments are armed.
    fn ins(&self) -> Option<&Arc<Inner>> {
        self.inner.as_ref().filter(|i| i.instruments)
    }

    /// The domain, if its timeline is armed.
    fn obs(&self) -> Option<&Arc<Inner>> {
        self.inner.as_ref().filter(|i| i.observe)
    }

    /// Opens a span for `stage` on `queue`; the returned guard closes it
    /// on drop. The guard owns a handle clone, so holding it borrows
    /// nothing.
    pub fn span(&self, queue: usize, stage: Stage) -> Span {
        Span {
            inner: self
                .ins()
                .filter(|inner| inner.enter(queue, stage))
                .cloned(),
        }
    }

    /// Books `cycles` (already charged to the clock) to `(queue, stage)`
    /// without a span — used where the cost is known at the charge site
    /// (exits, idle quanta).
    pub fn attribute(&self, queue: usize, stage: Stage, cycles: Cycles) {
        if let Some(inner) = self.ins() {
            inner.attribute(Some(queue), stage, cycles.get());
        }
    }

    /// Like [`Telemetry::attribute`], but books to the queue of the
    /// innermost open span (queue 0 when none) — used by layers that
    /// don't know their queue, like the record layer's AEAD charge.
    pub fn attribute_here(&self, stage: Stage, cycles: Cycles) {
        if let Some(inner) = self.ins() {
            inner.attribute(None, stage, cycles.get());
        }
    }

    /// Records one request round-trip time for `queue`.
    pub fn record_rtt(&self, queue: usize, rtt: Cycles) {
        if let Some(inner) = self.ins() {
            let mut s = inner.lock();
            let q = queue.min(s.queues - 1);
            s.rtt[q].record(rtt.get());
        }
    }

    /// Records one batch size (frames per servicing batch) for `queue`.
    pub fn record_batch(&self, queue: usize, frames: u64) {
        if let Some(inner) = self.ins() {
            let mut s = inner.lock();
            let q = queue.min(s.queues - 1);
            s.batch[q].record(frames);
        }
    }

    /// Records one typed event on `queue`, stamped with the domain's
    /// clock — the single emission point for the timeline.
    /// Allocation-free in the steady state; a no-op unless the timeline
    /// is armed.
    pub fn record(&self, queue: usize, kind: EventKind, a: u64, b: u64) {
        if let Some(inner) = self.obs() {
            let at = inner.clock.now();
            let mut s = inner.lock();
            let queue = queue.min(s.queues - 1) as u32;
            s.log.record(FlightEvent {
                at,
                queue,
                kind,
                a,
                b,
            });
        }
    }

    /// Attaches the simulation's operation [`Meter`], so the export can
    /// derive copy-discipline gauges (`copies_per_record`, `bytes_copied`,
    /// `bytes_zero_copy`) from the counters the ring producer/consumer
    /// charge. A no-op on a disabled handle; without an attached meter the
    /// export simply omits the dataplane section.
    pub fn attach_meter(&self, meter: &Meter) {
        if let Some(inner) = self.ins() {
            inner.lock().meter = Some(meter.clone());
        }
    }

    /// Publishes session control-plane gauges: per-shard live/peak
    /// session counts plus the flow table's created/reclaimed/slots
    /// totals. Gauges are last-write-wins (the session layer republishes
    /// each tick), and [`Telemetry::absorb`] never touches them, so only
    /// the coordinator's table is ever reported. After the first call the
    /// per-shard vectors are reused, so steady-state republishing
    /// allocates nothing. A no-op on a disabled handle.
    pub fn publish_sessions(
        &self,
        live: &[u64],
        peak: &[u64],
        created: u64,
        reclaimed: u64,
        slots: u64,
    ) {
        if let Some(inner) = self.ins() {
            let mut s = inner.lock();
            let g = s.sessions.get_or_insert_with(SessionGauges::default);
            g.live.clear();
            g.live.extend_from_slice(live);
            g.peak.clear();
            g.peak.extend_from_slice(peak);
            g.created = created;
            g.reclaimed = reclaimed;
            g.slots = slots;
        }
    }

    /// Creates a worker-private fork of this domain: a fresh domain with
    /// the same queue count and arm bits, bound to `clock` (a worker's
    /// lane clock in the parallel host). Forking a disabled handle
    /// yields a disabled handle. The fork has its own span stack and
    /// event rings, so a worker thread can record without racing the
    /// shared domain; the coordinator folds it back with
    /// [`Telemetry::absorb`].
    pub fn fork(&self, clock: Clock) -> Telemetry {
        match &self.inner {
            Some(i) => Telemetry::with_arming(&clock, i.lock().queues, i.instruments, i.observe),
            None => Telemetry::disabled(),
        }
    }

    /// Drains `worker` into this domain and resets it, so the next round
    /// is not double-counted: attribution cells, residency/RTT/batch
    /// histograms, covered cycles and span overflows add; per-queue
    /// events append in recording order and drop counters add.
    ///
    /// The instrument merge is order-insensitive cell-wise, but event
    /// order is not: the parallel host absorbs forks in ascending queue
    /// order after every barrier, which reproduces the serial schedule's
    /// recording order and keeps every export byte-identical regardless
    /// of worker scheduling. A no-op when
    /// either handle is disabled or both are the same domain.
    /// Allocation-free in the steady state.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the worker has no open spans and that queue
    /// counts match (forks always satisfy both).
    pub fn absorb(&self, worker: &Telemetry) {
        let (Some(inner), Some(wi)) = (&self.inner, &worker.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, wi) {
            return;
        }
        let mut ws = wi.lock();
        let mut s = inner.lock();
        debug_assert_eq!(ws.depth, 0, "absorb with open worker spans");
        debug_assert_eq!(ws.queues, s.queues, "absorb across queue counts");
        for (d, src) in s.attr_cycles.iter_mut().zip(ws.attr_cycles.iter_mut()) {
            *d += std::mem::take(src);
        }
        for (d, src) in s.attr_counts.iter_mut().zip(ws.attr_counts.iter_mut()) {
            *d += std::mem::take(src);
        }
        for (d, src) in s.histograms_mut().zip(ws.histograms_mut()) {
            d.merge_from(src);
            *src = Histogram::new();
        }
        s.covered = s.covered.saturating_add(std::mem::take(&mut ws.covered));
        s.overflows += std::mem::take(&mut ws.overflows);
        s.log.absorb(&mut ws.log);
    }

    /// Snapshot of the cycle-attribution table (empty unless the
    /// instruments are armed).
    pub fn profile(&self) -> Profile {
        let Some(inner) = self.ins() else {
            return Profile::default();
        };
        let s = inner.lock();
        Profile {
            queues: s.queues,
            covered: s.covered,
            overflows: s.overflows,
            cycles: s.attr_cycles.clone(),
            counts: s.attr_counts.clone(),
        }
    }

    /// Snapshot of `queue`'s RTT histogram (empty when disabled).
    pub fn rtt_histogram(&self, queue: usize) -> Histogram {
        self.hist(|s| s.rtt.get(queue).cloned())
    }

    /// Snapshot of `stage`'s residency (span-elapsed) histogram.
    pub fn residency_histogram(&self, stage: Stage) -> Histogram {
        self.hist(|s| s.residency.get(stage.idx()).cloned())
    }

    /// Snapshot of `queue`'s batch-size histogram (empty when disabled).
    pub fn batch_histogram(&self, queue: usize) -> Histogram {
        self.hist(|s| s.batch.get(queue).cloned())
    }

    fn hist(&self, f: impl FnOnce(&State) -> Option<Histogram>) -> Histogram {
        self.ins().and_then(|i| f(&i.lock())).unwrap_or_default()
    }

    /// Runs `f` over the timeline; a handle without one (disabled, or
    /// the timeline bit off) answers from empty storage.
    fn log<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        match &self.inner {
            Some(inner) => f(&inner.lock().log),
            None => f(&Timeline::new(0)),
        }
    }

    /// Snapshot of `queue`'s retained events, oldest first (empty when
    /// not observing or out of range). Allocates; export-path only.
    pub fn events(&self, queue: usize) -> Vec<FlightEvent> {
        self.log(|l| {
            l.rings()
                .nth(queue)
                .map_or_else(Vec::new, |(events, _)| events.iter().copied().collect())
        })
    }

    /// Events evicted from the rings across all queues.
    pub fn total_dropped(&self) -> u64 {
        self.log(|l| l.rings().map(|(_, dropped)| dropped).sum())
    }

    /// Renders the full event timeline as deterministic text, one line
    /// per event in queue order: the byte-identity artifact the E22
    /// determinism suite compares across reruns and thread counts.
    pub fn event_log(&self) -> String {
        self.log(Timeline::event_log)
    }

    /// Renders every instrument as a JSON document (fixed key order,
    /// integers and fixed-precision fractions only — byte-identical for
    /// identical runs). Returns `{"enabled":false}` unless the
    /// instruments are armed.
    pub fn json_snapshot(&self) -> String {
        let Some(inner) = self.ins() else {
            return String::from("{\"enabled\":false}");
        };
        let s = inner.lock();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"enabled\": true,\n  \"queues\": {},\n",
            s.queues
        ));
        out.push_str(&format!("  \"covered_cycles\": {},\n", s.covered));
        out.push_str(&format!("  \"span_overflows\": {},\n", s.overflows));

        out.push_str("  \"stages\": [\n");
        for (si, stage) in Stage::ALL.iter().enumerate() {
            let per_q: Vec<u64> = (0..s.queues)
                .map(|q| s.attr_cycles[q * Stage::COUNT + stage.idx()])
                .collect();
            let spans: Vec<u64> = (0..s.queues)
                .map(|q| s.attr_counts[q * Stage::COUNT + stage.idx()])
                .collect();
            let total: u64 = per_q.iter().sum();
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"cycles\": {per_q:?}, \"spans\": {spans:?}, \
                 \"total_cycles\": {total}, \"fraction\": {:.6}}}{}\n",
                stage.name(),
                ratio(total, s.covered),
                if si + 1 < Stage::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");

        let hist_json = |h: &Histogram| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p95(),
                h.p99()
            )
        };
        out.push_str("  \"rtt\": [\n");
        for (q, h) in s.rtt.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"queue\": {q}, \"hist\": {}}}{}\n",
                hist_json(h),
                if q + 1 < s.queues { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"residency\": [\n");
        for (si, stage) in Stage::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"hist\": {}}}{}\n",
                stage.name(),
                hist_json(&s.residency[stage.idx()]),
                if si + 1 < Stage::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"batch\": [\n");
        for (q, h) in s.batch.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"queue\": {q}, \"hist\": {}}}{}\n",
                hist_json(h),
                if q + 1 < s.queues { "," } else { "" }
            ));
        }
        out.push_str("  ]");
        // Each flat section is one object, opened at its first row.
        let mut section = "";
        for row in flat_rows(&s, inner.observe) {
            if row.section == section {
                out.push_str(", ");
            } else {
                if !section.is_empty() {
                    out.push('}');
                }
                out.push_str(&format!(",\n  \"{}\": {{", row.section));
                section = row.section;
            }
            out.push_str(&format!("\"{}\": {}", row.name, row.value.json()));
        }
        if !section.is_empty() {
            out.push('}');
        }
        out.push_str("\n}\n");
        out
    }
}

/// `n / d`, reading 0 before the denominator moved.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// One scalar (or one per-index series) of the JSON export.
struct Row {
    /// JSON object the row belongs to.
    section: &'static str,
    /// JSON key inside the section.
    name: &'static str,
    value: Value,
}

enum Value {
    Int(u64),
    /// Numerator over denominator, rendered to six places.
    Ratio(u64, u64),
    /// One integer per index (shard or queue).
    PerIndex(Vec<u64>),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Ratio(n, d) => format!("{:.6}", ratio(*n, *d)),
            Value::PerIndex(vs) => format!("{vs:?}"),
        }
    }
}

/// The flat export sections — dataplane, storage, sessions, observe — as
/// one fixed-order table. Dataplane and storage rows need an attached
/// meter, session rows a published table, observe rows an armed
/// timeline; a missing source drops its rows (and with them the JSON
/// section).
#[rustfmt::skip]
fn flat_rows(s: &State, observe: bool) -> Vec<Row> {
    use Value::{Int, PerIndex, Ratio};
    let mut rows = Vec::new();
    let mut row = |section, name, value| rows.push(Row { section, name, value });
    if let Some(m) = s.meter.as_ref().map(Meter::snapshot) {
        let doorbells = m.notifications_sent + m.interrupts_received;
        row("dataplane", "ring_records", Int(m.ring_records));
        row("dataplane", "copies", Int(m.copies));
        row("dataplane", "bytes_copied", Int(m.bytes_copied));
        row("dataplane", "bytes_zero_copy", Int(m.bytes_zero_copy));
        row("dataplane", "copies_per_record", Ratio(m.copies, m.ring_records));
        row("dataplane", "records_per_commit", Ratio(m.ring_records, m.ring_commits));
        row("dataplane", "lock_acquisitions_per_record", Ratio(m.lock_acquisitions, m.ring_records));
        row("dataplane", "doorbells_per_record", Ratio(doorbells, m.ring_records));
        row("dataplane", "suppressed_kicks", Int(m.suppressed_kicks));
        row("dataplane", "spurious_wakeups", Int(m.spurious_wakeups));
        row("storage", "blk_records", Int(m.blk_records));
        row("storage", "blk_copies", Int(m.blk_copies));
        row("storage", "blk_commits", Int(m.blk_commits));
        row("storage", "blk_doorbells", Int(m.blk_doorbells));
        row("storage", "blk_copies_per_record", Ratio(m.blk_copies, m.blk_records));
        row("storage", "blk_records_per_commit", Ratio(m.blk_records, m.blk_commits));
        row("storage", "blk_doorbells_per_record", Ratio(m.blk_doorbells, m.blk_records));
    }
    if let Some(g) = &s.sessions {
        row("sessions", "live", PerIndex(g.live.clone()));
        row("sessions", "peak", PerIndex(g.peak.clone()));
        row("sessions", "created", Int(g.created));
        row("sessions", "reclaimed", Int(g.reclaimed));
        row("sessions", "slots", Int(g.slots));
    }
    if observe {
        let dropped = s.log.rings().map(|(_, dropped)| dropped).collect();
        row("observe", "flight_events_dropped", PerIndex(dropped));
    }
    rows
}

/// Span guard: closes its span when dropped. Obtained from
/// [`Telemetry::span`]; owns a handle clone, so it borrows nothing.
#[derive(Debug)]
#[must_use = "a span measures the scope it is held for"]
pub struct Span {
    inner: Option<Arc<Inner>>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner.exit();
        }
    }
}

/// Snapshot of the per-stage/per-queue cycle-attribution table.
///
/// Self cycles (span elapsed minus child spans) partition
/// [`Profile::covered`] exactly: summing [`Profile::cycles`] over every
/// queue and stage reproduces the covered total, which is what makes the
/// fractions sum to 1.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    queues: usize,
    covered: u64,
    overflows: u64,
    cycles: Vec<u64>,
    counts: Vec<u64>,
}

impl Profile {
    /// Number of queues in the table.
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// Total virtual cycles covered by top-level spans.
    pub fn covered(&self) -> Cycles {
        Cycles(self.covered)
    }

    /// Spans dropped because the fixed stack was full (0 in a correctly
    /// instrumented world).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Self cycles attributed to `stage` on `queue`.
    pub fn cycles(&self, queue: usize, stage: Stage) -> u64 {
        self.cycles
            .get(queue * Stage::COUNT + stage.idx())
            .copied()
            .unwrap_or(0)
    }

    /// Closed spans (and flat charges) for `stage` on `queue`.
    pub fn spans(&self, queue: usize, stage: Stage) -> u64 {
        self.counts
            .get(queue * Stage::COUNT + stage.idx())
            .copied()
            .unwrap_or(0)
    }

    /// Self cycles for `stage` summed over all queues.
    pub fn stage_cycles(&self, stage: Stage) -> u64 {
        (0..self.queues).map(|q| self.cycles(q, stage)).sum()
    }

    /// Sum of self cycles over every queue and stage (equals
    /// [`Profile::covered`] when instrumentation is balanced).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `stage`'s share of the covered virtual time (0 when nothing was
    /// covered).
    pub fn fraction(&self, stage: Stage) -> f64 {
        ratio(self.stage_cycles(stage), self.covered)
    }

    /// Renders the attribution table: one row per stage with per-queue
    /// self cycles, the row total, and its share of covered time. Rows
    /// that never fired are omitted; a footer row totals the columns.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>14}", "stage"));
        for q in 0..self.queues {
            out.push_str(&format!("{:>14}", format!("q{q} cycles")));
        }
        out.push_str(&format!("{:>16}{:>9}\n", "total", "share"));
        for stage in Stage::ALL {
            let total = self.stage_cycles(stage);
            let spans: u64 = (0..self.queues).map(|q| self.spans(q, stage)).sum();
            if total == 0 && spans == 0 {
                continue;
            }
            out.push_str(&format!("{:>14}", stage.name()));
            for q in 0..self.queues {
                out.push_str(&format!("{:>14}", self.cycles(q, stage)));
            }
            out.push_str(&format!(
                "{:>16}{:>8.2}%\n",
                total,
                100.0 * self.fraction(stage)
            ));
        }
        out.push_str(&format!("{:>14}", "(covered)"));
        for q in 0..self.queues {
            let col: u64 = Stage::ALL.iter().map(|&st| self.cycles(q, st)).sum();
            out.push_str(&format!("{:>14}", col));
        }
        let frac = if self.covered > 0 {
            100.0 * self.total_cycles() as f64 / self.covered as f64
        } else {
            0.0
        };
        out.push_str(&format!("{:>16}{:>8.2}%\n", self.covered, frac));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[11], 1); // 1024
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, ub 127
        }
        h.record(100_000);
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p95(), 127);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.percentile(100), 100_000);
        assert_eq!(Histogram::new().p99(), 0);
    }

    #[test]
    fn percentile_clamps_to_max() {
        let mut h = Histogram::new();
        h.record(5); // bucket 3, ub 7 — but max is 5
        assert_eq!(h.p50(), 5);
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 2);
        {
            let _svc = t.span(1, Stage::HostService);
            clock.advance(Cycles(5));
            {
                let _ring = t.span(1, Stage::RingConsume);
                clock.advance(Cycles(20));
            }
            clock.advance(Cycles(7));
        }
        let p = t.profile();
        assert_eq!(p.cycles(1, Stage::HostService), 12);
        assert_eq!(p.cycles(1, Stage::RingConsume), 20);
        assert_eq!(p.covered(), Cycles(32));
        assert_eq!(p.total_cycles(), 32);
        assert_eq!(p.spans(1, Stage::HostService), 1);
        // Residency records elapsed (with children), not self time.
        assert_eq!(t.residency_histogram(Stage::HostService).max(), 32);
    }

    #[test]
    fn flat_attribution_is_a_zero_depth_child() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 1);
        {
            let _seal = t.span(0, Stage::TxSeal);
            clock.advance(Cycles(10));
            // e.g. the record layer charging AEAD inside the seal span.
            t.attribute_here(Stage::Crypto, Cycles(6));
        }
        let p = t.profile();
        assert_eq!(p.cycles(0, Stage::TxSeal), 4);
        assert_eq!(p.cycles(0, Stage::Crypto), 6);
        assert_eq!(p.covered(), Cycles(10));
        // Top-level flat attribution extends coverage directly.
        t.attribute(0, Stage::Idle, Cycles(50));
        assert_eq!(t.profile().covered(), Cycles(60));
        assert_eq!(t.profile().total_cycles(), 60);
    }

    #[test]
    fn overflowing_spans_are_counted_not_grown() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 1);
        let mut guards = Vec::new();
        for _ in 0..MAX_SPAN_DEPTH + 3 {
            guards.push(t.span(0, Stage::GuestPoll));
            clock.advance(Cycles(1));
        }
        drop(guards);
        let p = t.profile();
        assert_eq!(p.overflows(), 3);
        assert_eq!(p.covered().get(), MAX_SPAN_DEPTH as u64 + 3);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        {
            let _g = t.span(0, Stage::GuestSend);
        }
        t.attribute(0, Stage::Idle, Cycles(5));
        t.record_rtt(0, Cycles(5));
        t.record_batch(0, 5);
        assert_eq!(t.profile().covered(), Cycles::ZERO);
        assert_eq!(t.json_snapshot(), "{\"enabled\":false}");
        assert_eq!(t.rtt_histogram(0).count(), 0);
        t.record(0, EventKind::SealOk, 1, 2);
        assert!(!t.observing());
        assert!(t.events(0).is_empty());
        assert_eq!(t.total_dropped(), 0);
        assert_eq!(t.event_log(), "");
    }

    #[test]
    fn a_half_that_is_off_answers_like_a_disabled_handle() {
        let off = Telemetry::disabled();
        let drive = |t: &Telemetry, clock: &Clock| {
            {
                let _g = t.span(0, Stage::GuestSend);
                clock.advance(Cycles(5));
            }
            t.record_rtt(0, Cycles(5));
            t.record(0, EventKind::OpenFail, 1, 2);
        };
        // Instruments only: the timeline half is inert.
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 2);
        drive(&t, &clock);
        assert!(t.enabled() && !t.observing());
        assert_eq!(t.event_log(), off.event_log());
        assert!(t.events(0).is_empty());
        assert!(!t.json_snapshot().contains("\"observe\""));
        // Timeline only: the instrument half is inert.
        let clock = Clock::new();
        let t = Telemetry::with_arming(&clock, 2, false, true);
        drive(&t, &clock);
        assert!(!t.enabled() && t.observing());
        assert_eq!(t.json_snapshot(), off.json_snapshot());
        assert_eq!(t.profile().render_table(), off.profile().render_table());
        assert_eq!(t.rtt_histogram(0).count(), 0);
        assert_eq!(t.events(0).len(), 1);
        // Neither bit: the handle itself is the disabled one.
        assert!(Telemetry::with_arming(&clock, 2, false, false)
            .inner
            .is_none());
    }

    #[test]
    fn queue_indices_clamp() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 2);
        {
            let _g = t.span(99, Stage::GuestPoll);
            clock.advance(Cycles(3));
        }
        t.record_rtt(99, Cycles(1));
        t.record_batch(99, 1);
        assert_eq!(t.profile().cycles(1, Stage::GuestPoll), 3);
        assert_eq!(t.rtt_histogram(1).count(), 1);
        assert_eq!(t.batch_histogram(1).count(), 1);
    }

    #[test]
    fn exporters_are_deterministic_and_roundworthy() {
        let run = || {
            let clock = Clock::new();
            let t = Telemetry::new(clock.clone(), 2);
            for q in 0..2 {
                let _g = t.span(q, Stage::HostService);
                clock.advance(Cycles(100 + q as u64));
                t.record_batch(q, 4);
            }
            t.record_rtt(0, Cycles(12_345));
            t.json_snapshot()
        };
        let ja = run();
        assert_eq!(ja, run());
        assert!(ja.contains(
            "{\"stage\": \"host.service\", \"cycles\": [100, 101], \"spans\": [1, 1], \
             \"total_cycles\": 201, \"fraction\": 1.000000}"
        ));
        assert!(ja.contains("{\"queue\": 0, \"hist\": {\"count\": 1, \"sum\": 12345,"));
        assert!(ja.contains("\"covered_cycles\": 201"));
    }

    #[test]
    fn dataplane_gauges_ride_the_attached_meter() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 1);
        // Without a meter the dataplane section is absent.
        assert!(!t.json_snapshot().contains("\"dataplane\""));

        let m = Meter::new();
        m.ring_records(8);
        m.copies(2);
        m.bytes_copied(1024);
        m.bytes_zero_copy(4096);
        m.ring_commits(2);
        m.lock_acquisitions(4);
        m.notifications_sent(1);
        m.interrupts_received(1);
        m.suppressed_kicks(6);
        m.spurious_wakeups(1);
        m.blk_records(16);
        m.blk_commits(2);
        m.blk_doorbells(4);
        t.attach_meter(&m);

        let ja = t.json_snapshot();
        assert_eq!(
            ja,
            t.json_snapshot(),
            "json export must be byte-deterministic"
        );
        assert!(ja.contains(
            "\"dataplane\": {\"ring_records\": 8, \"copies\": 2, \
             \"bytes_copied\": 1024, \"bytes_zero_copy\": 4096, \
             \"copies_per_record\": 0.250000, \"records_per_commit\": 4.000000, \
             \"lock_acquisitions_per_record\": 0.500000, \
             \"doorbells_per_record\": 0.250000, \"suppressed_kicks\": 6, \
             \"spurious_wakeups\": 1}"
        ));
        assert!(ja.contains(
            "\"storage\": {\"blk_records\": 16, \"blk_copies\": 0, \
             \"blk_commits\": 2, \"blk_doorbells\": 4, \
             \"blk_copies_per_record\": 0.000000, \
             \"blk_records_per_commit\": 8.000000, \
             \"blk_doorbells_per_record\": 0.250000}"
        ));

        // A zero-copy steady state reads exactly 0; no commits reads 0
        // rather than dividing by zero.
        let zc = Meter::new();
        zc.ring_records(100);
        t.attach_meter(&zc);
        assert!(t.json_snapshot().contains(
            "\"copies_per_record\": 0.000000, \"records_per_commit\": 0.000000, \
             \"lock_acquisitions_per_record\": 0.000000, \
             \"doorbells_per_record\": 0.000000"
        ));
    }

    #[test]
    fn histogram_merge_adds_and_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        a.record(100);
        b.record(0);
        b.record(1 << 20);
        a.merge_from(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 4 + 100 + (1 << 20));
        assert_eq!(a.max(), 1 << 20);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[3], 1);
    }

    #[test]
    fn fork_and_absorb_reproduce_direct_attribution() {
        // Direct: everything recorded on one domain.
        let run_direct = || {
            let clock = Clock::new();
            let t = Telemetry::new(clock.clone(), 2);
            for q in 0..2 {
                let _g = t.span(q, Stage::HostService);
                clock.advance(Cycles(50 + 10 * q as u64));
                t.record_batch(q, 4);
            }
            t.record_rtt(0, Cycles(777));
            t.json_snapshot()
        };
        // Forked: each queue's spans recorded on a worker fork over a
        // private clock positioned where the shared clock would have
        // been, then absorbed in queue order.
        let run_forked = || {
            let clock = Clock::new();
            let t = Telemetry::new(clock.clone(), 2);
            let mut forks = Vec::new();
            for q in 0..2 {
                let wclock = Clock::new();
                wclock.reposition(clock.now());
                let f = t.fork(wclock.clone());
                {
                    let _g = f.span(q, Stage::HostService);
                    wclock.advance(Cycles(50 + 10 * q as u64));
                }
                f.record_batch(q, 4);
                forks.push(f);
            }
            for f in &forks {
                t.absorb(f);
            }
            t.record_rtt(0, Cycles(777));
            t.json_snapshot()
        };
        assert_eq!(
            run_direct(),
            run_forked(),
            "forked exports must match direct exports"
        );
    }

    #[test]
    fn fork_absorb_matches_direct_event_recording() {
        let clock = Clock::new();
        let direct = Telemetry::with_arming(&clock, 2, true, true);
        let parent = Telemetry::with_arming(&clock, 2, true, true);
        let lane = Clock::new();
        let f = parent.fork(lane.clone());
        assert!(f.enabled() && f.observing(), "a fork keeps both arm bits");
        for i in 0..6u64 {
            clock.advance(Cycles(10));
            lane.reposition(clock.now());
            direct.record((i % 2) as usize, EventKind::BatchCommit, i, 0);
            f.record((i % 2) as usize, EventKind::BatchCommit, i, 0);
            if i == 3 {
                direct.record(0, EventKind::OpenFail, i, 0);
                f.record(0, EventKind::OpenFail, i, 0);
            }
        }
        parent.absorb(&f);
        assert_eq!(parent.event_log(), direct.event_log());
        assert_eq!(parent.json_snapshot(), direct.json_snapshot());
        // The export carries the timeline's drop counters.
        assert!(parent
            .json_snapshot()
            .contains("\"observe\": {\"flight_events_dropped\": [0, 0]}"));
        // The fork drained: a second absorb adds nothing.
        parent.absorb(&f);
        assert_eq!(parent.event_log(), direct.event_log());
        assert_eq!(f.event_log(), "");
    }

    #[test]
    fn absorb_carries_drop_counters() {
        let parent = Telemetry::with_arming(&Clock::new(), 1, false, true);
        let f = parent.fork(Clock::new());
        let n = crate::flight::FLIGHT_RING_CAPACITY as u64 + 3;
        for i in 0..n {
            f.record(0, EventKind::Doorbell, i, 0);
        }
        assert_eq!(f.total_dropped(), 3);
        parent.absorb(&f);
        assert_eq!(parent.total_dropped(), 3);
        assert_eq!(parent.events(0)[0].a, 3);
        assert_eq!(f.total_dropped(), 0, "worker counters reset on absorb");
        assert_eq!(parent.json_snapshot(), "{\"enabled\":false}");
    }

    #[test]
    fn absorb_drains_the_worker() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 1);
        let f = t.fork(clock.clone());
        {
            let _g = f.span(0, Stage::RingConsume);
            clock.advance(Cycles(9));
        }
        t.absorb(&f);
        assert_eq!(t.profile().cycles(0, Stage::RingConsume), 9);
        assert_eq!(f.profile().covered(), Cycles::ZERO, "worker reset");
        // Absorbing again adds nothing.
        t.absorb(&f);
        assert_eq!(t.profile().cycles(0, Stage::RingConsume), 9);
    }

    #[test]
    fn fork_and_absorb_of_disabled_handles_are_inert() {
        let d = Telemetry::disabled();
        assert!(!d.fork(Clock::new()).enabled());
        let t = Telemetry::new(Clock::new(), 1);
        t.absorb(&d); // no-op, no panic
        d.absorb(&t); // no-op, no panic
        t.absorb(&t); // self-absorb is a no-op
        assert_eq!(t.profile().covered(), Cycles::ZERO);
    }

    #[test]
    fn profile_table_renders_rows_and_footer() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 2);
        {
            let _g = t.span(0, Stage::GuestSend);
            clock.advance(Cycles(40));
        }
        let table = t.profile().render_table();
        assert!(table.contains("guest.send"));
        assert!(table.contains("(covered)"));
        assert!(!table.contains("rx.open"), "zero rows omitted:\n{table}");
    }
}
