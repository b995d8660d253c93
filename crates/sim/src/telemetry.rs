//! Deterministic telemetry: spans, latency histograms, cycle attribution.
//!
//! The [`Meter`](crate::Meter) counts *what happened* and the
//! [`Clock`](crate::Clock) tracks *how long everything took*, but neither
//! can say *where in the path* the cycles went. This module adds that
//! third axis without giving up determinism: every measurement rides the
//! virtual clock, so two runs with the same seed produce byte-identical
//! exports.
//!
//! Three instruments share one [`Telemetry`] handle:
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
//! Exporters ([`Telemetry::prometheus_text`],
//! [`Telemetry::json_snapshot`]) walk fixed-order arrays, so identical
//! runs export identical bytes.
//!
//! A disabled handle ([`Telemetry::disabled`]) is an inert no-op that
//! costs one branch per call site; components hold one unconditionally
//! and worlds only arm it when asked.

use crate::{Clock, Cycles, Meter};
use std::sync::{Arc, Mutex};

/// Maximum span nesting depth. Deeper spans are counted as overflows and
/// dropped instead of allocating.
pub const MAX_SPAN_DEPTH: usize = 16;

/// Number of power-of-two histogram buckets (covers the full `u64`
/// range).
pub const HIST_BUCKETS: usize = 64;

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
    /// Idle step quantum (the world made no progress this round).
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

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
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
    /// exporters derive dataplane copy-discipline gauges
    /// (`copies_per_record`, `bytes_copied`) from the ring
    /// producer/consumer counters.
    meter: Option<Meter>,
    /// Session control-plane gauges ([`Telemetry::publish_sessions`]):
    /// per-shard live/peak occupancy plus flow-table totals. `None` until
    /// a session layer publishes; exporters omit the section then.
    sessions: Option<SessionGauges>,
    /// Attached flight recorder ([`Telemetry::attach_flight`]): lets the
    /// exporters surface per-queue `flight_events_dropped` counters.
    flight: Option<crate::flight::FlightRecorder>,
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
    fn new(queues: usize) -> Self {
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
            flight: None,
        }
    }

    #[inline]
    fn cell(&self, queue: usize, stage: Stage) -> usize {
        queue.min(self.queues - 1) * Stage::COUNT + stage.idx()
    }
}

#[derive(Debug)]
struct Inner {
    clock: Clock,
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

/// Shared handle to one deterministic telemetry domain.
///
/// Cloning is cheap (an `Arc` bump) and yields a handle to the same
/// state; a [`Telemetry::disabled`] handle makes every operation a no-op.
/// All steady-state operations (spans, histogram records, flat
/// attribution) are allocation-free — the stack and bucket arrays are
/// preallocated at construction.
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
    /// Creates an armed telemetry domain over `clock` with per-queue
    /// instruments for `queues` queues (at least one).
    pub fn new(clock: Clock, queues: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock,
                state: Mutex::new(State::new(queues.max(1))),
            })),
        }
    }

    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of instrumented queues (0 when disabled).
    pub fn queues(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.lock().queues)
    }

    /// Opens a span for `stage` on `queue`; the returned guard closes it
    /// on drop. The guard owns a handle clone, so holding it borrows
    /// nothing.
    pub fn span(&self, queue: usize, stage: Stage) -> Span {
        let active = match &self.inner {
            Some(inner) => inner.enter(queue, stage),
            None => false,
        };
        Span {
            inner: if active { self.inner.clone() } else { None },
        }
    }

    /// Books `cycles` (already charged to the clock) to `(queue, stage)`
    /// without a span — used where the cost is known at the charge site
    /// (exits, idle quanta).
    pub fn attribute(&self, queue: usize, stage: Stage, cycles: Cycles) {
        if let Some(inner) = &self.inner {
            inner.attribute(Some(queue), stage, cycles.get());
        }
    }

    /// Like [`Telemetry::attribute`], but books to the queue of the
    /// innermost open span (queue 0 when none) — used by layers that
    /// don't know their queue, like the record layer's AEAD charge.
    pub fn attribute_here(&self, stage: Stage, cycles: Cycles) {
        if let Some(inner) = &self.inner {
            inner.attribute(None, stage, cycles.get());
        }
    }

    /// Records one request round-trip time for `queue`.
    pub fn record_rtt(&self, queue: usize, rtt: Cycles) {
        if let Some(inner) = &self.inner {
            let mut s = inner.lock();
            let q = queue.min(s.queues - 1);
            s.rtt[q].record(rtt.get());
        }
    }

    /// Attaches the simulation's operation [`Meter`], so the exporters can
    /// derive copy-discipline gauges (`copies_per_record`, `bytes_copied`,
    /// `bytes_zero_copy`) from the counters the ring producer/consumer
    /// charge. A no-op on a disabled handle; without an attached meter the
    /// exporters simply omit the dataplane section.
    pub fn attach_meter(&self, meter: &Meter) {
        if let Some(inner) = &self.inner {
            inner.lock().meter = Some(meter.clone());
        }
    }

    /// Attaches a [`crate::flight::FlightRecorder`], so the exporters
    /// can surface its per-queue `flight_events_dropped` eviction
    /// counters next to the instruments. A no-op on a disabled handle;
    /// without an attachment the exporters omit the observe section.
    pub fn attach_flight(&self, flight: &crate::flight::FlightRecorder) {
        if let Some(inner) = &self.inner {
            inner.lock().flight = Some(flight.clone());
        }
    }

    /// Records one batch size (frames per servicing batch) for `queue`.
    pub fn record_batch(&self, queue: usize, frames: u64) {
        if let Some(inner) = &self.inner {
            let mut s = inner.lock();
            let q = queue.min(s.queues - 1);
            s.batch[q].record(frames);
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
        if let Some(inner) = &self.inner {
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

    /// Creates a worker-private fork of this domain: a fresh armed
    /// domain with the same queue count, bound to `clock` (a worker's
    /// lane clock in the parallel host). Forking a disabled handle
    /// yields a disabled handle. The fork has its own span stack, so a
    /// worker thread can open spans without racing the shared domain;
    /// the coordinator folds it back with [`Telemetry::absorb`].
    pub fn fork(&self, clock: Clock) -> Telemetry {
        match &self.inner {
            Some(inner) => Telemetry::new(clock, inner.lock().queues),
            None => Telemetry::disabled(),
        }
    }

    /// Drains `worker`'s closed-span state into this domain: attribution
    /// cells, residency/RTT/batch histograms, covered cycles, and span
    /// overflows all add, and the worker's tallies reset to zero so the
    /// next round is not double-counted. Merging is order-insensitive
    /// cell-wise, but the parallel host absorbs forks in ascending queue
    /// order after every barrier so exports stay byte-identical
    /// regardless of worker scheduling. A no-op when either handle is
    /// disabled or both are the same domain. Allocation-free.
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
            *d += *src;
            *src = 0;
        }
        for (d, src) in s.attr_counts.iter_mut().zip(ws.attr_counts.iter_mut()) {
            *d += *src;
            *src = 0;
        }
        for (d, src) in s.residency.iter_mut().zip(ws.residency.iter_mut()) {
            d.merge_from(src);
            *src = Histogram::new();
        }
        for (d, src) in s.rtt.iter_mut().zip(ws.rtt.iter_mut()) {
            d.merge_from(src);
            *src = Histogram::new();
        }
        for (d, src) in s.batch.iter_mut().zip(ws.batch.iter_mut()) {
            d.merge_from(src);
            *src = Histogram::new();
        }
        s.covered = s.covered.saturating_add(ws.covered);
        s.overflows += ws.overflows;
        ws.covered = 0;
        ws.overflows = 0;
    }

    /// Snapshot of the cycle-attribution table.
    pub fn profile(&self) -> Profile {
        match &self.inner {
            Some(inner) => {
                let s = inner.lock();
                Profile {
                    queues: s.queues,
                    covered: s.covered,
                    overflows: s.overflows,
                    cycles: s.attr_cycles.clone(),
                    counts: s.attr_counts.clone(),
                }
            }
            None => Profile {
                queues: 0,
                covered: 0,
                overflows: 0,
                cycles: Vec::new(),
                counts: Vec::new(),
            },
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
        self.inner
            .as_ref()
            .and_then(|i| f(&i.lock()))
            .unwrap_or_default()
    }

    /// Renders every instrument in Prometheus exposition text. The walk
    /// order is fixed, so identical runs export identical bytes. Returns
    /// an empty string when disabled.
    pub fn prometheus_text(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let s = inner.lock();
        let mut out = String::with_capacity(4096);

        out.push_str(
            "# HELP cio_stage_cycles_total Self virtual cycles attributed to a dataplane stage.\n\
             # TYPE cio_stage_cycles_total counter\n",
        );
        for q in 0..s.queues {
            for stage in Stage::ALL {
                let cell = q * Stage::COUNT + stage.idx();
                out.push_str(&format!(
                    "cio_stage_cycles_total{{queue=\"{q}\",stage=\"{}\"}} {}\n",
                    stage.name(),
                    s.attr_cycles[cell]
                ));
            }
        }
        out.push_str(
            "# HELP cio_stage_spans_total Closed spans and flat charges per stage.\n\
             # TYPE cio_stage_spans_total counter\n",
        );
        for q in 0..s.queues {
            for stage in Stage::ALL {
                let cell = q * Stage::COUNT + stage.idx();
                out.push_str(&format!(
                    "cio_stage_spans_total{{queue=\"{q}\",stage=\"{}\"}} {}\n",
                    stage.name(),
                    s.attr_counts[cell]
                ));
            }
        }
        out.push_str(
            "# HELP cio_covered_cycles_total Virtual cycles covered by top-level spans.\n\
             # TYPE cio_covered_cycles_total counter\n",
        );
        out.push_str(&format!("cio_covered_cycles_total {}\n", s.covered));
        out.push_str(
            "# HELP cio_span_overflows_total Spans dropped because the fixed stack was full.\n\
             # TYPE cio_span_overflows_total counter\n",
        );
        out.push_str(&format!("cio_span_overflows_total {}\n", s.overflows));

        let emit_hist = |out: &mut String, name: &str, label: &str, value: &str, h: &Histogram| {
            let last = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().take(last).enumerate() {
                cum += c;
                let le = Histogram::bucket_upper_bound(i);
                out.push_str(&format!(
                    "{name}_bucket{{{label}=\"{value}\",le=\"{le}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("{name}_sum{{{label}=\"{value}\"}} {}\n", h.sum));
            out.push_str(&format!(
                "{name}_count{{{label}=\"{value}\"}} {}\n",
                h.count
            ));
        };

        out.push_str(
            "# HELP cio_rtt_cycles Per-queue request round-trip time in virtual cycles.\n\
             # TYPE cio_rtt_cycles histogram\n",
        );
        for (q, h) in s.rtt.iter().enumerate() {
            emit_hist(&mut out, "cio_rtt_cycles", "queue", &q.to_string(), h);
        }
        out.push_str(
            "# HELP cio_stage_residency_cycles Span elapsed time per stage in virtual cycles.\n\
             # TYPE cio_stage_residency_cycles histogram\n",
        );
        for stage in Stage::ALL {
            emit_hist(
                &mut out,
                "cio_stage_residency_cycles",
                "stage",
                stage.name(),
                &s.residency[stage.idx()],
            );
        }
        out.push_str(
            "# HELP cio_batch_frames Frames moved per servicing batch, per queue.\n\
             # TYPE cio_batch_frames histogram\n",
        );
        for (q, h) in s.batch.iter().enumerate() {
            emit_hist(&mut out, "cio_batch_frames", "queue", &q.to_string(), h);
        }
        if let Some(m) = &s.meter {
            let snap = m.snapshot();
            out.push_str(
                "# HELP cio_ring_records_total Records published onto cio rings.\n\
                 # TYPE cio_ring_records_total counter\n",
            );
            out.push_str(&format!("cio_ring_records_total {}\n", snap.ring_records));
            out.push_str(
                "# HELP cio_bytes_copied_total Payload bytes moved by staging copies.\n\
                 # TYPE cio_bytes_copied_total counter\n",
            );
            out.push_str(&format!("cio_bytes_copied_total {}\n", snap.bytes_copied));
            out.push_str(
                "# HELP cio_bytes_zero_copy_total Payload bytes positioned without a copy.\n\
                 # TYPE cio_bytes_zero_copy_total counter\n",
            );
            out.push_str(&format!(
                "cio_bytes_zero_copy_total {}\n",
                snap.bytes_zero_copy
            ));
            out.push_str(
                "# HELP cio_copies_per_record Staging copies per published ring record.\n\
                 # TYPE cio_copies_per_record gauge\n",
            );
            out.push_str(&format!(
                "cio_copies_per_record {:.6}\n",
                copies_per_record(&snap)
            ));
            out.push_str(
                "# HELP cio_records_per_commit Ring records published per producer index write.\n\
                 # TYPE cio_records_per_commit gauge\n",
            );
            out.push_str(&format!(
                "cio_records_per_commit {:.6}\n",
                records_per_commit(&snap)
            ));
            out.push_str(
                "# HELP cio_lock_acquisitions_per_record Memory-lock acquisitions per ring record.\n\
                 # TYPE cio_lock_acquisitions_per_record gauge\n",
            );
            out.push_str(&format!(
                "cio_lock_acquisitions_per_record {:.6}\n",
                locks_per_record(&snap)
            ));
            out.push_str(
                "# HELP cio_doorbells_per_record Doorbells (host notifies + injected interrupts) per ring record.\n\
                 # TYPE cio_doorbells_per_record gauge\n",
            );
            out.push_str(&format!(
                "cio_doorbells_per_record {:.6}\n",
                doorbells_per_record(&snap)
            ));
            out.push_str(
                "# HELP cio_suppressed_kicks_total Doorbells suppressed by the event-idx window.\n\
                 # TYPE cio_suppressed_kicks_total counter\n",
            );
            out.push_str(&format!(
                "cio_suppressed_kicks_total {}\n",
                snap.suppressed_kicks
            ));
            out.push_str(
                "# HELP cio_spurious_wakeups_total Doorbells that woke a consumer to a drained ring.\n\
                 # TYPE cio_spurious_wakeups_total counter\n",
            );
            out.push_str(&format!(
                "cio_spurious_wakeups_total {}\n",
                snap.spurious_wakeups
            ));
            out.push_str(
                "# HELP cio_slo_breaches_total SLO watchdog breach events.\n\
                 # TYPE cio_slo_breaches_total counter\n",
            );
            out.push_str(&format!("cio_slo_breaches_total {}\n", snap.slo_breaches));
            out.push_str(
                "# HELP cio_blk_records_total Logical blocks moved through the block transport.\n\
                 # TYPE cio_blk_records_total counter\n",
            );
            out.push_str(&format!("cio_blk_records_total {}\n", snap.blk_records));
            out.push_str(
                "# HELP cio_blk_copies_per_record Staging copies per block moved.\n\
                 # TYPE cio_blk_copies_per_record gauge\n",
            );
            out.push_str(&format!(
                "cio_blk_copies_per_record {:.6}\n",
                blk_copies_per_record(&snap)
            ));
            out.push_str(
                "# HELP cio_blk_records_per_commit Blocks published per block-ring producer index write.\n\
                 # TYPE cio_blk_records_per_commit gauge\n",
            );
            out.push_str(&format!(
                "cio_blk_records_per_commit {:.6}\n",
                blk_records_per_commit(&snap)
            ));
            out.push_str(
                "# HELP cio_blk_doorbells_per_record Doorbells actually rung on the block rings per block.\n\
                 # TYPE cio_blk_doorbells_per_record gauge\n",
            );
            out.push_str(&format!(
                "cio_blk_doorbells_per_record {:.6}\n",
                blk_doorbells_per_record(&snap)
            ));
        }
        if let Some(g) = &s.sessions {
            out.push_str(
                "# HELP cio_sessions_live Live sessions per RSS shard.\n\
                 # TYPE cio_sessions_live gauge\n",
            );
            for (q, v) in g.live.iter().enumerate() {
                out.push_str(&format!("cio_sessions_live{{shard=\"{q}\"}} {v}.000000\n"));
            }
            out.push_str(
                "# HELP cio_sessions_peak Peak concurrent sessions per RSS shard.\n\
                 # TYPE cio_sessions_peak gauge\n",
            );
            for (q, v) in g.peak.iter().enumerate() {
                out.push_str(&format!("cio_sessions_peak{{shard=\"{q}\"}} {v}.000000\n"));
            }
            out.push_str(
                "# HELP cio_sessions_created_total Sessions ever opened through the flow table.\n\
                 # TYPE cio_sessions_created_total counter\n",
            );
            out.push_str(&format!("cio_sessions_created_total {}\n", g.created));
            out.push_str(
                "# HELP cio_sessions_reclaimed_total Sessions closed and their slots reclaimed.\n\
                 # TYPE cio_sessions_reclaimed_total counter\n",
            );
            out.push_str(&format!("cio_sessions_reclaimed_total {}\n", g.reclaimed));
            out.push_str(
                "# HELP cio_session_table_slots Flow-table slots ever allocated (memory footprint).\n\
                 # TYPE cio_session_table_slots gauge\n",
            );
            out.push_str(&format!("cio_session_table_slots {}.000000\n", g.slots));
        }
        if let Some(fr) = &s.flight {
            out.push_str(
                "# HELP cio_flight_events_dropped_total Flight-recorder ring evictions per queue.\n\
                 # TYPE cio_flight_events_dropped_total counter\n",
            );
            for q in 0..fr.queues() {
                out.push_str(&format!(
                    "cio_flight_events_dropped_total{{queue=\"{q}\"}} {}\n",
                    fr.dropped(q)
                ));
            }
        }
        out
    }

    /// Renders every instrument as a JSON document (fixed key order,
    /// integers and fixed-precision fractions only — byte-identical for
    /// identical runs). Returns `{"enabled":false}` when disabled.
    pub fn json_snapshot(&self) -> String {
        let Some(inner) = &self.inner else {
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
            let frac = if s.covered > 0 {
                total as f64 / s.covered as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"cycles\": {per_q:?}, \"spans\": {spans:?}, \
                 \"total_cycles\": {total}, \"fraction\": {frac:.6}}}{}\n",
                stage.name(),
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
        if let Some(m) = &s.meter {
            let snap = m.snapshot();
            out.push_str(&format!(
                ",\n  \"dataplane\": {{\"ring_records\": {}, \"copies\": {}, \
                 \"bytes_copied\": {}, \"bytes_zero_copy\": {}, \
                 \"copies_per_record\": {:.6}, \"records_per_commit\": {:.6}, \
                 \"lock_acquisitions_per_record\": {:.6}, \
                 \"doorbells_per_record\": {:.6}, \"suppressed_kicks\": {}, \
                 \"spurious_wakeups\": {}}}",
                snap.ring_records,
                snap.copies,
                snap.bytes_copied,
                snap.bytes_zero_copy,
                copies_per_record(&snap),
                records_per_commit(&snap),
                locks_per_record(&snap),
                doorbells_per_record(&snap),
                snap.suppressed_kicks,
                snap.spurious_wakeups
            ));
            out.push_str(&format!(
                ",\n  \"storage\": {{\"blk_records\": {}, \"blk_copies\": {}, \
                 \"blk_commits\": {}, \"blk_doorbells\": {}, \
                 \"blk_copies_per_record\": {:.6}, \
                 \"blk_records_per_commit\": {:.6}, \
                 \"blk_doorbells_per_record\": {:.6}}}",
                snap.blk_records,
                snap.blk_copies,
                snap.blk_commits,
                snap.blk_doorbells,
                blk_copies_per_record(&snap),
                blk_records_per_commit(&snap),
                blk_doorbells_per_record(&snap)
            ));
        }
        if let Some(g) = &s.sessions {
            out.push_str(&format!(
                ",\n  \"sessions\": {{\"live\": {:?}, \"peak\": {:?}, \
                 \"created\": {}, \"reclaimed\": {}, \"slots\": {}}}",
                g.live, g.peak, g.created, g.reclaimed, g.slots
            ));
        }
        if let Some(fr) = &s.flight {
            let flight_dropped: Vec<u64> = (0..fr.queues()).map(|q| fr.dropped(q)).collect();
            let slo = s.meter.as_ref().map_or(0, |m| m.snapshot().slo_breaches);
            out.push_str(&format!(
                ",\n  \"observe\": {{\"flight_events_dropped\": {flight_dropped:?}, \
                 \"slo_breaches\": {slo}}}"
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Staging copies per published ring record (0 before any record moved).
fn copies_per_record(snap: &crate::MeterSnapshot) -> f64 {
    if snap.ring_records == 0 {
        0.0
    } else {
        snap.copies as f64 / snap.ring_records as f64
    }
}

/// Records published per producer-index write: 1.0 under the serial
/// policy, approaching the batch size as commits amortize.
fn records_per_commit(snap: &crate::MeterSnapshot) -> f64 {
    if snap.ring_commits == 0 {
        0.0
    } else {
        snap.ring_records as f64 / snap.ring_commits as f64
    }
}

/// Memory-lock acquisitions per ring record: below 1.0 once batched
/// paths cover runs of records with single locked regions.
fn locks_per_record(snap: &crate::MeterSnapshot) -> f64 {
    if snap.ring_records == 0 {
        0.0
    } else {
        snap.lock_acquisitions as f64 / snap.ring_records as f64
    }
}

/// Doorbells (guest-to-host notifies plus host-injected interrupts) per
/// ring record: 0 under pure polling, collapsing toward 0 under event-idx
/// suppression at load.
fn doorbells_per_record(snap: &crate::MeterSnapshot) -> f64 {
    if snap.ring_records == 0 {
        0.0
    } else {
        (snap.notifications_sent + snap.interrupts_received) as f64 / snap.ring_records as f64
    }
}

/// Staging copies per block moved through the block transport (0 before
/// any block moved; stays 0 on the seal-in-slot path).
fn blk_copies_per_record(snap: &crate::MeterSnapshot) -> f64 {
    if snap.blk_records == 0 {
        0.0
    } else {
        snap.blk_copies as f64 / snap.blk_records as f64
    }
}

/// Blocks published per block-ring producer-index write: 1.0 serial,
/// approaching the batch depth as commits amortize over runs.
fn blk_records_per_commit(snap: &crate::MeterSnapshot) -> f64 {
    if snap.blk_commits == 0 {
        0.0
    } else {
        snap.blk_records as f64 / snap.blk_commits as f64
    }
}

/// Doorbells actually rung on the block rings per block moved: collapses
/// toward 0 under event-idx suppression with batched runs.
fn blk_doorbells_per_record(snap: &crate::MeterSnapshot) -> f64 {
    if snap.blk_records == 0 {
        0.0
    } else {
        snap.blk_doorbells as f64 / snap.blk_records as f64
    }
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
#[derive(Debug, Clone)]
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
        if self.covered == 0 {
            return 0.0;
        }
        self.stage_cycles(stage) as f64 / self.covered as f64
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
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[11], 1); // 1024
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
        assert_eq!(t.prometheus_text(), "");
        assert_eq!(t.json_snapshot(), "{\"enabled\":false}");
        assert_eq!(t.rtt_histogram(0).count(), 0);
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
            (t.prometheus_text(), t.json_snapshot())
        };
        let (pa, ja) = run();
        let (pb, jb) = run();
        assert_eq!(pa, pb);
        assert_eq!(ja, jb);
        assert!(pa.contains("cio_stage_cycles_total{queue=\"0\",stage=\"host.service\"} 100"));
        assert!(pa.contains("cio_rtt_cycles_count{queue=\"0\"} 1"));
        assert!(ja.contains("\"covered_cycles\": 201"));
    }

    #[test]
    fn dataplane_gauges_ride_the_attached_meter() {
        let clock = Clock::new();
        let t = Telemetry::new(clock.clone(), 1);
        // Without a meter the dataplane section is absent.
        assert!(!t.prometheus_text().contains("cio_copies_per_record"));
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

        let run = || (t.prometheus_text(), t.json_snapshot());
        let (pa, ja) = run();
        let (pb, jb) = run();
        assert_eq!(pa, pb, "prometheus export must be byte-deterministic");
        assert_eq!(ja, jb, "json export must be byte-deterministic");
        assert!(pa.contains("cio_ring_records_total 8"));
        assert!(pa.contains("cio_bytes_copied_total 1024"));
        assert!(pa.contains("cio_bytes_zero_copy_total 4096"));
        assert!(pa.contains("cio_copies_per_record 0.250000"));
        assert!(pa.contains("cio_records_per_commit 4.000000"));
        assert!(pa.contains("cio_lock_acquisitions_per_record 0.500000"));
        assert!(pa.contains("cio_doorbells_per_record 0.250000"));
        assert!(pa.contains("cio_suppressed_kicks_total 6"));
        assert!(pa.contains("cio_spurious_wakeups_total 1"));
        assert!(ja.contains(
            "\"dataplane\": {\"ring_records\": 8, \"copies\": 2, \
             \"bytes_copied\": 1024, \"bytes_zero_copy\": 4096, \
             \"copies_per_record\": 0.250000, \"records_per_commit\": 4.000000, \
             \"lock_acquisitions_per_record\": 0.500000, \
             \"doorbells_per_record\": 0.250000, \"suppressed_kicks\": 6, \
             \"spurious_wakeups\": 1}"
        ));
        assert!(pa.contains("cio_blk_records_total 16"));
        assert!(pa.contains("cio_blk_copies_per_record 0.000000"));
        assert!(pa.contains("cio_blk_records_per_commit 8.000000"));
        assert!(pa.contains("cio_blk_doorbells_per_record 0.250000"));
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
        let p = t.prometheus_text();
        assert!(p.contains("cio_copies_per_record 0.000000"));
        assert!(p.contains("cio_records_per_commit 0.000000"));
        assert!(p.contains("cio_lock_acquisitions_per_record 0.000000"));
        assert!(p.contains("cio_doorbells_per_record 0.000000"));
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
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[3], 1);
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
            (t.prometheus_text(), t.json_snapshot())
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
            (t.prometheus_text(), t.json_snapshot())
        };
        let (pd, jd) = run_direct();
        let (pf, jf) = run_forked();
        assert_eq!(pd, pf, "forked exports must match direct exports");
        assert_eq!(jd, jf);
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
