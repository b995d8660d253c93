//! Paravirtual device backends: the host side of the guest's NIC.
//!
//! A backend shovels frames between a guest-facing transport (virtqueues
//! or cio-ring pairs) and a [`FabricPort`]. Every frame that passes
//! through is, by definition, host-visible, so backends record it on the
//! [`Recorder`] with wire-tap-equivalent metadata (L2 boundary
//! observability = what the network already sees, §2.4).
//!
//! Both backends are multi-queue: the guest interface is a set of
//! independent queues and the backend services them with batched
//! round-robin polling, steering inbound frames with the same symmetric
//! RSS hash the guest uses ([`cio_netstack::rss`]). The [`Backend`] trait
//! is the uniform host-side handle — callers that need a concrete device
//! model (the adversary harness, hot-swap) downcast through
//! [`Backend::as_any_mut`] instead of the `World` growing one accessor
//! per device type.

use crate::fabric::FabricPort;
use crate::observe::{bits, Recorder};
use crate::HostError;
use cio_mem::{CopyPolicy, HostView};
use cio_netstack::{rss, NetDevice};
use cio_sim::{Clock, Cycles, EventKind, Stage, Telemetry};
use cio_vring::cioring::{
    BatchPolicy, Consumer, MultiQueue, NotifyMode, NotifyPolicy, Producer, QueueLane, MAX_BATCH,
};
use cio_vring::virtqueue::{Chain, DeviceSide};
use cio_vring::RingError;
use std::any::Any;
use std::collections::VecDeque;

/// Frames a backend retains per queue while the guest is slow; beyond
/// this the queue tail-drops like a full NIC ring.
pub(crate) const PENDING_CAP: usize = 256;

/// Fewest consecutive empty service passes before an adaptive queue goes
/// cold (stops being polled every round).
pub const IDLE_BUDGET_MIN: u32 = 4;

/// Most consecutive empty service passes an adaptive queue may burn
/// before it goes cold — the idle-spin bound at zero load.
pub const IDLE_BUDGET_MAX: u32 = 32;

/// Re-poll heartbeat: a cold adaptive queue is force-serviced after this
/// many skipped rounds even if no doorbell arrived. This is the liveness
/// backstop against a hostile *stuck* event index on the guest->host
/// ring (the guest's kicks wrongly suppressed by a frozen event word):
/// records are delayed by at most this many rounds, never lost.
pub const REPOLL_EVERY: u32 = 64;

/// NAPI-style poll-vs-notify controller for one host queue
/// ([`NotifyPolicy::Adaptive`]).
///
/// While a queue is *hot* the host services it every round (polling —
/// the event-idx window keeps guest doorbells suppressed for free).
/// After a budget of consecutive empty passes the gate goes cold and
/// service passes are skipped outright, charging nothing, until a
/// doorbell, staged inbound work, or the [`REPOLL_EVERY`] heartbeat
/// wakes the queue. The idle budget scales with recently observed batch
/// sizes (a queue that was just moving big batches earns a longer
/// cooldown) and is clamped to [`IDLE_BUDGET_MIN`]..[`IDLE_BUDGET_MAX`],
/// so idle spin is bounded at zero load.
#[derive(Debug, Clone)]
pub struct NotifyGate {
    /// Hot = poll every round; cold = skip until woken.
    hot: bool,
    /// Consecutive empty service passes while hot.
    idle_streak: u32,
    /// Empty passes tolerated before going cold (hysteresis).
    budget: u32,
    /// Ring of recently observed batch sizes (saturated at 255).
    recent: [u8; 8],
    ri: usize,
    /// Rounds skipped since the last service pass (heartbeat counter).
    skipped: u32,
    /// Total empty passes burned while hot — the idle-spin audit trail
    /// E23 gates on (bounded per idle period by the budget).
    idle_passes: u64,
}

impl Default for NotifyGate {
    fn default() -> Self {
        NotifyGate::new()
    }
}

impl NotifyGate {
    /// A fresh gate: hot (a new queue is polled until proven idle) with
    /// the minimum idle budget.
    pub fn new() -> Self {
        NotifyGate {
            hot: true,
            idle_streak: 0,
            budget: IDLE_BUDGET_MIN,
            recent: [0; 8],
            ri: 0,
            skipped: 0,
            idle_passes: 0,
        }
    }

    /// Whether this round should service the queue: yes when the guest
    /// rang, work is staged, the queue is hot, or the re-poll heartbeat
    /// is due.
    pub fn should_service(&self, door: bool, work: bool) -> bool {
        door || work || self.hot || self.skipped >= REPOLL_EVERY
    }

    /// Accounts one serviced pass that moved `moved` frames.
    pub fn observe(&mut self, moved: usize) {
        self.skipped = 0;
        if moved > 0 {
            self.recent[self.ri] = moved.min(255) as u8;
            self.ri = (self.ri + 1) % self.recent.len();
            self.hot = true;
            self.idle_streak = 0;
            let avg: u32 = self.recent.iter().map(|&b| u32::from(b)).sum::<u32>() / 8;
            self.budget = (IDLE_BUDGET_MIN + avg).min(IDLE_BUDGET_MAX);
        } else {
            self.idle_passes += 1;
            self.idle_streak += 1;
            if self.idle_streak >= self.budget {
                self.hot = false;
            }
        }
    }

    /// Accounts one skipped round (the queue stayed cold).
    pub fn observe_skip(&mut self) {
        self.skipped = self.skipped.saturating_add(1);
    }

    /// Whether the queue is currently polled every round.
    pub fn is_hot(&self) -> bool {
        self.hot
    }

    /// Total empty passes burned while hot (the idle-spin audit trail).
    pub fn idle_passes(&self) -> u64 {
        self.idle_passes
    }
}

/// The uniform host-side device-backend interface.
///
/// One processing pass is split so a scheduler can attribute work to
/// queues: [`Backend::ingress`] pulls delivered frames off the fabric and
/// steers them (cost-free bookkeeping — the metered work is the ring
/// traffic), then [`Backend::service_queue`] does the per-queue batched
/// ring servicing. [`Backend::process`] is the convenience that does both
/// in round-robin order.
pub trait Backend {
    /// Number of guest-facing queues.
    fn queue_count(&self) -> usize {
        1
    }

    /// Pulls delivered frames from the fabric and steers them to queues.
    /// Returns frames staged for delivery.
    fn ingress(&mut self) -> usize {
        0
    }

    /// Services queue `q`: drains guest->net work and delivers staged
    /// net->guest frames, with batched index publication.
    ///
    /// # Errors
    ///
    /// Transport errors (a malicious *guest* could still wedge its own
    /// queues; the host defends itself and surfaces the error).
    fn service_queue(&mut self, q: usize) -> Result<usize, HostError>;

    /// One full processing pass over every queue; returns frames moved.
    ///
    /// # Errors
    ///
    /// As [`Backend::service_queue`].
    fn process(&mut self) -> Result<usize, HostError> {
        self.ingress();
        let mut moved = 0;
        for q in 0..self.queue_count() {
            moved += self.service_queue(q)?;
        }
        Ok(moved)
    }

    /// Downcast access for callers that need the concrete device model
    /// (adversary harness, per-queue ring access).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Consumes the boxed backend for ownership-taking teardown
    /// (hot-swap needs the fabric port back).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Backend for designs with no paravirtual device at all (the L5 socket
/// service and direct device assignment talk to the world differently).
#[derive(Debug, Default)]
pub struct NullBackend;

impl Backend for NullBackend {
    fn queue_count(&self) -> usize {
        0
    }

    fn service_queue(&mut self, _q: usize) -> Result<usize, HostError> {
        Ok(0)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Host backend for a virtio-net device: one TX + RX pair of split
/// virtqueues (the world rejects multi-queue virtio) with its posted
/// receive chains and inbound frames.
pub struct VirtioNetBackend {
    tx: DeviceSide,
    rx: DeviceSide,
    rx_chains: VecDeque<Chain>,
    pending: VecDeque<Vec<u8>>,
    port: FabricPort,
    recorder: Recorder,
    clock: Clock,
    /// When set, the backend injects an interrupt (charged) per received
    /// frame — the CVM notification model. Polling designs leave it off.
    pub irq_on_rx: bool,
    /// Cost model used for interrupt charging.
    pub cost: cio_sim::CostModel,
    meter: cio_sim::Meter,
    telemetry: Telemetry,
}

impl VirtioNetBackend {
    /// Creates the backend over the guest's TX and RX queues.
    pub fn new(
        tx: DeviceSide,
        rx: DeviceSide,
        port: FabricPort,
        recorder: Recorder,
        clock: Clock,
    ) -> Self {
        VirtioNetBackend {
            tx,
            rx,
            rx_chains: VecDeque::new(),
            pending: VecDeque::new(),
            port,
            recorder,
            clock,
            irq_on_rx: false,
            cost: cio_sim::CostModel::default(),
            meter: cio_sim::Meter::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Arms telemetry: queue servicing is recorded as
    /// [`Stage::HostService`] spans with batch-size histograms.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enables interrupt-driven receive charging against `meter`.
    pub fn enable_rx_interrupts(&mut self, cost: cio_sim::CostModel, meter: cio_sim::Meter) {
        self.irq_on_rx = true;
        self.cost = cost;
        self.meter = meter;
    }

    /// The guest-facing TX queue (adversary access).
    pub fn tx_device(&mut self) -> &mut DeviceSide {
        &mut self.tx
    }

    /// The guest-facing RX queue (adversary access).
    pub fn rx_device(&mut self) -> &mut DeviceSide {
        &mut self.rx
    }
}

impl Backend for VirtioNetBackend {
    fn queue_count(&self) -> usize {
        1
    }

    fn ingress(&mut self) -> usize {
        let mut staged = 0;
        while let Some(frame) = self.port.receive() {
            if self.pending.len() >= PENDING_CAP {
                continue; // tail-drop, like a full NIC queue
            }
            self.pending.push_back(frame);
            staged += 1;
        }
        staged
    }

    fn service_queue(&mut self, q: usize) -> Result<usize, HostError> {
        let _svc = self.telemetry.span(q, Stage::HostService);
        let mut moved = 0;

        // Guest -> network.
        while let Some(chain) = self.tx.pop()? {
            let frame = self.tx.read_payload(&chain)?;
            self.recorder.record(
                "frame.tx",
                bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
            );
            // Device-side MTU errors are the guest's problem; drop silently
            // like hardware would.
            let _ = self.port.transmit(&frame);
            self.tx.complete(chain.head, 0)?;
            moved += 1;
        }

        // Collect posted receive buffers.
        while let Some(chain) = self.rx.pop()? {
            self.rx_chains.push_back(chain);
        }

        // Network -> guest.
        while !self.rx_chains.is_empty() {
            let Some(frame) = self.pending.pop_front() else {
                break;
            };
            let chain = self.rx_chains.pop_front().expect("checked non-empty");
            self.recorder.record(
                "frame.rx",
                bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
            );
            let written = self.rx.write_payload(&chain, &frame)?;
            self.rx.complete(chain.head, written)?;
            if self.irq_on_rx {
                self.clock.advance(self.cost.interrupt_inject);
                self.meter.interrupts_received(1);
            }
            moved += 1;
        }
        if moved > 0 {
            self.telemetry.record_batch(q, moved as u64);
        }
        Ok(moved)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One host-side cio queue: consumer of the guest->host ring, producer of
/// the host->guest ring, plus the inbound frames steered to this queue.
pub(crate) struct HostQueue {
    pub(crate) tx: Consumer<HostView>,
    pub(crate) rx: Producer<HostView>,
    pub(crate) pending: VecDeque<Vec<u8>>,
}

/// Where serviced guest->net frames go.
///
/// The serial backend hands them straight to its [`FabricPort`]; the
/// thread-per-queue worker defers them to a per-queue outbox that the
/// coordinator flushes in queue order (keeping the fabric's shared PRNG
/// draw order deterministic). Factoring the sink out lets the serial and
/// parallel paths share one servicing routine, so they cannot drift.
pub(crate) trait FrameSink {
    /// Ships one frame stamped with the servicing clock's current time.
    fn send(&mut self, now: Cycles, frame: &[u8]);
}

/// Serial sink: transmit directly on the fabric (the port reads the
/// shared clock itself, which equals `now` on the serial path).
pub(crate) struct PortSink<'a> {
    pub(crate) port: &'a mut FabricPort,
}

impl FrameSink for PortSink<'_> {
    fn send(&mut self, _now: Cycles, frame: &[u8]) {
        // Device-side MTU errors are the guest's problem; drop silently
        // like hardware would.
        let _ = self.port.transmit(frame);
    }
}

/// Everything one cio lane-servicing pass needs besides the lane itself
/// and the frame sink. The serial backend borrows these from its own
/// fields; a worker owns per-thread instances (lane clock, telemetry
/// fork).
pub(crate) struct CioLaneCtx<'a> {
    pub(crate) batch: BatchPolicy,
    pub(crate) fbits: u32,
    pub(crate) recorder: &'a Recorder,
    pub(crate) clock: &'a Clock,
    pub(crate) telemetry: &'a Telemetry,
    /// Whether the guest rang the guest->host doorbell since the last
    /// pass (event-idx bookkeeping; always false outside
    /// [`NotifyMode::EventIdx`]). A rang-but-empty pass is metered as a
    /// spurious wakeup.
    pub(crate) door: bool,
}

/// Services one cio queue: drains guest->net records into `sink` and
/// delivers this queue's staged net->guest frames, with batched index
/// publication. Shared verbatim by [`CioNetBackend::service_queue`] and
/// the parallel [`CioQueueWorker`](crate::worker::CioQueueWorker).
pub(crate) fn service_cio_lane(
    lane: &mut QueueLane<HostQueue>,
    q: usize,
    ctx: &CioLaneCtx<'_>,
    sink: &mut dyn FrameSink,
) -> Result<usize, HostError> {
    let _svc = ctx.telemetry.span(q, Stage::HostService);
    let fbits = ctx.fbits;
    let tx_armed_before = lane.end.tx.is_armed();
    let mut moved = 0;

    // Guest -> network: each pass drains a run of up to the policy's
    // batch (Serial is the run of one) with one shared-index read, one
    // memory-lock acquisition, and one consumer-index write. Every record
    // is fetched exactly once and transmitted in ring order; whether the
    // sink sees slot memory or a private copy is the ring endpoint's
    // positioning, not this loop's business.
    let mut sent = 0;
    loop {
        let mut lens = [0usize; MAX_BATCH];
        let mut k = 0usize;
        let n = lane
            .end
            .tx
            .consume_batch_in_place(ctx.batch.max_batch(), |frames| {
                for frame in frames.iter() {
                    ctx.recorder.record("frame.tx", fbits);
                    sink.send(ctx.clock.now(), frame);
                    lens[k] = frame.len();
                    k += 1;
                }
            })?;
        if n == 0 {
            break;
        }
        for &len in &lens[..n] {
            lane.note_frame(len);
        }
        sent += n;
    }
    if sent > 0 {
        moved += sent;
        ctx.telemetry.record_batch(q, sent as u64);
    }

    // Network -> guest: stage every deliverable frame, then one index
    // publish (and at most one kick) for the whole batch.
    let mut staged = 0;
    while let Some(frame) = lane.end.pending.pop_front() {
        ctx.recorder.record("frame.rx", fbits);
        match lane.end.rx.stage(&frame) {
            Ok(()) => {
                lane.note_frame(frame.len());
                staged += 1;
                moved += 1;
            }
            Err(RingError::Full) => {
                // Guest slow: keep the frame for a later pass.
                lane.end.pending.push_front(frame);
                break;
            }
            Err(e) => return Err(e.into()),
        }
    }
    if staged > 0 {
        ctx.telemetry.record_batch(q, staged);
        ctx.telemetry.record(q, EventKind::BatchCommit, staged, 0);
        lane.end.rx.publish()?;
        let rang = lane.end.rx.kick();
        // In event-idx mode a suppressed kick is the interesting event;
        // in the legacy modes the timeline keeps its historical
        // Doorbell record (kick() is a no-op under Polling).
        if !rang && lane.end.rx.ring().config().notify == NotifyMode::EventIdx {
            ctx.telemetry
                .record(q, EventKind::NotifySuppress, staged, 0);
        } else {
            ctx.telemetry.record(q, EventKind::Doorbell, staged, 0);
        }
    }

    // Event-idx epilogue: if the TX consumer armed during this pass
    // (drained the ring and published its index), trace the transition;
    // if the guest rang but there was nothing to do, the wakeup was
    // spurious — the worst a hostile event index can cause.
    if !tx_armed_before && lane.end.tx.is_armed() {
        ctx.telemetry
            .record(q, EventKind::NotifyArm, lane.end.tx.armed_at() as u64, 0);
    }
    if ctx.door && moved == 0 {
        lane.end.tx.note_spurious_wakeup();
        ctx.telemetry.record(q, EventKind::SpuriousWake, 0, 0);
    }
    Ok(moved)
}

/// Host backend for the cio-ring interface: N independent ring pairs
/// serviced with batched round-robin polling.
pub struct CioNetBackend {
    queues: MultiQueue<HostQueue>,
    port: FabricPort,
    recorder: Recorder,
    clock: Clock,
    /// When set, frames are treated as opaque blobs (tunnel carrier): the
    /// recorder only sees length and timing, never headers.
    pub opaque: bool,
    /// Record-batching discipline for guest->net servicing: each pass
    /// drains runs of up to this many records with one shared-index read,
    /// one memory-lock acquisition, and one consumer-index write per run
    /// ([`BatchPolicy::Serial`], the default, is the run of one).
    batch: BatchPolicy,
    /// Notification discipline for ring servicing. Under the default
    /// [`NotifyPolicy::Always`] every pass services every queue (the
    /// historical path); [`NotifyPolicy::EventIdx`] adds suppression
    /// bookkeeping on the rings; [`NotifyPolicy::Adaptive`] additionally
    /// runs one [`NotifyGate`] per queue, skipping service passes
    /// (charging nothing) while a queue is provably idle.
    notify: NotifyPolicy,
    /// Per-queue poll-vs-notify controllers (active under `Adaptive`).
    gates: Vec<NotifyGate>,
    telemetry: Telemetry,
}

impl CioNetBackend {
    /// Creates the backend over one `(guest->host, host->guest)` ring
    /// pair per queue.
    ///
    /// # Errors
    ///
    /// [`HostError::Ring`] unless the queue count is a non-zero power of
    /// two — the ring's own masked-index rule, applied to steering.
    pub fn new(
        queues: Vec<(Consumer<HostView>, Producer<HostView>)>,
        port: FabricPort,
        recorder: Recorder,
        clock: Clock,
    ) -> Result<Self, HostError> {
        let queues = MultiQueue::new(
            queues
                .into_iter()
                .map(|(tx, rx)| HostQueue {
                    tx,
                    rx,
                    pending: VecDeque::new(),
                })
                .collect(),
        )?;
        let gates = (0..queues.queues()).map(|_| NotifyGate::new()).collect();
        Ok(CioNetBackend {
            queues,
            port,
            recorder,
            clock,
            opaque: false,
            batch: BatchPolicy::default(),
            notify: NotifyPolicy::default(),
            gates,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Wires the data-positioning discipline onto every queue's ring
    /// endpoints. Under the default [`CopyPolicy::InPlace`], guest->net
    /// records are handed to the fabric straight out of slot memory and
    /// net->guest frames are placed with a single positioning write;
    /// [`CopyPolicy::CopyEarly`] makes both directions pay the explicit
    /// early copy (the defensive arm for adversarial double-fetch
    /// configurations).
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        for lane in self.queues.iter_mut() {
            lane.end.tx.set_copy_policy(policy);
            lane.end.rx.set_copy_policy(policy);
        }
    }

    /// Sets the record-batching discipline for guest->net servicing.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch = batch;
    }

    /// Sets the notification discipline for ring servicing.
    pub fn set_notify_policy(&mut self, notify: NotifyPolicy) {
        self.notify = notify;
    }

    /// The active notification discipline.
    pub fn notify_policy(&self) -> NotifyPolicy {
        self.notify
    }

    /// Total empty service passes burned by the adaptive controllers
    /// while hot — the idle-spin audit trail E23 gates on.
    pub fn idle_passes(&self) -> u64 {
        self.gates.iter().map(NotifyGate::idle_passes).sum()
    }

    /// Arms telemetry: queue servicing is recorded as
    /// [`Stage::HostService`] spans with batch-size histograms, every
    /// queue's ring endpoints report their own ring-op spans, and batch
    /// commits and doorbells on the host->guest path are recorded as
    /// typed events per queue.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for q in 0..self.queues.queues() {
            let lane = self.queues.lane_mut(q);
            lane.end.tx.set_telemetry(telemetry.clone(), q);
            lane.end.rx.set_telemetry(telemetry.clone(), q);
        }
        self.telemetry = telemetry;
    }

    /// Single-queue convenience constructor.
    pub fn single(
        tx: Consumer<HostView>,
        rx: Producer<HostView>,
        port: FabricPort,
        recorder: Recorder,
        clock: Clock,
    ) -> Self {
        CioNetBackend::new(vec![(tx, rx)], port, recorder, clock)
            .expect("one queue is a power of two")
    }

    fn frame_bits(&self) -> u32 {
        if self.opaque {
            bits::LENGTH + bits::TIMING
        } else {
            bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING
        }
    }

    /// Dismantles the backend, returning the fabric port so a fresh
    /// backend can be attached to the same link (device hot-swap, §3.2).
    pub fn into_port(self) -> FabricPort {
        self.port
    }

    /// Per-queue traffic snapshot (frames in `copies`, bytes in
    /// `bytes_copied`).
    pub fn queue_meter(&self, q: usize) -> cio_sim::MeterSnapshot {
        self.queues.lane(q).meter.snapshot()
    }

    /// The guest->host consumer of queue `q` (adversary access).
    pub fn tx_ring_of(&mut self, q: usize) -> &mut Consumer<HostView> {
        &mut self.queues.lane_mut(q).end.tx
    }

    /// The host->guest producer of queue `q` (adversary access).
    pub fn rx_ring_of(&mut self, q: usize) -> &mut Producer<HostView> {
        &mut self.queues.lane_mut(q).end.rx
    }

    /// The guest->host consumer of queue 0 (adversary access).
    pub fn tx_ring(&mut self) -> &mut Consumer<HostView> {
        self.tx_ring_of(0)
    }

    /// The host->guest producer of queue 0 (adversary access).
    pub fn rx_ring(&mut self) -> &mut Producer<HostView> {
        self.rx_ring_of(0)
    }

    /// Splits the backend for thread-per-queue execution: the fabric port
    /// and steering arithmetic stay with the coordinator (as a
    /// [`CioSteer`]), and each queue lane becomes a self-contained
    /// [`CioQueueWorker`](crate::worker::CioQueueWorker) that can be moved
    /// to its own OS thread.
    ///
    /// `ctx_for(q)` supplies queue `q`'s execution context: its private
    /// lane clock, a telemetry fork bound to that clock, and a host view
    /// whose memory handle charges it. Ring endpoints are rebound
    /// mid-stream onto that view ([`Consumer::rebind`]) — indices,
    /// pending frames, and per-queue meters all carry over, so
    /// splitting is transparent to the guest.
    pub fn split_parallel(
        self,
        mut ctx_for: impl FnMut(usize) -> WorkerCtx,
    ) -> (CioSteer, Vec<crate::worker::CioQueueWorker>) {
        let fbits = self.frame_bits();
        let mask = self.queues.mask();
        let mut workers = Vec::new();
        for (q, lane) in self.queues.into_lanes().into_iter().enumerate() {
            let ctx = ctx_for(q);
            let HostQueue { tx, rx, pending } = lane.end;
            let mut tx = tx.rebind(ctx.view.clone());
            let mut rx = rx.rebind(ctx.view);
            tx.set_telemetry(ctx.telemetry.clone(), q);
            rx.set_telemetry(ctx.telemetry.clone(), q);
            workers.push(crate::worker::CioQueueWorker::new(
                q,
                QueueLane {
                    end: HostQueue { tx, rx, pending },
                    meter: lane.meter,
                },
                self.batch,
                fbits,
                self.recorder.clone(),
                ctx.clock,
                ctx.telemetry,
            ));
        }
        (
            CioSteer {
                port: self.port,
                mask,
            },
            workers,
        )
    }
}

/// Per-worker execution context supplied to
/// [`CioNetBackend::split_parallel`].
pub struct WorkerCtx {
    /// The worker's private lane clock (repositioned by the coordinator
    /// at the lane's virtual-time frontier each round).
    pub clock: Clock,
    /// Telemetry fork bound to the lane clock (absorbed by the
    /// coordinator after each round, in queue order).
    pub telemetry: Telemetry,
    /// Host view of the shared guest memory whose handle charges the
    /// lane clock.
    pub view: HostView,
}

/// The coordinator's share of a split [`CioNetBackend`]: the fabric port
/// plus the RSS steering arithmetic. Workers never touch the fabric (its
/// shared PRNG would make draw order schedule-dependent); the
/// coordinator drains inbound frames here and flushes worker outboxes
/// through [`CioSteer::port_mut`] with
/// [`FabricPort::transmit_at`].
pub struct CioSteer {
    port: FabricPort,
    mask: u32,
}

impl CioSteer {
    /// Number of queues being steered to.
    pub fn queues(&self) -> usize {
        self.mask as usize + 1
    }

    /// Pulls every delivered frame off the fabric and steers it into
    /// `staged[q]` by the symmetric RSS hash — the same masked-index
    /// discipline as the serial backend's ingress. Tail-dropping against
    /// the per-queue pending cap happens at the owning worker (which
    /// sees the queue's true backlog).
    pub fn drain_into(&mut self, staged: &mut [Vec<Vec<u8>>]) -> usize {
        debug_assert_eq!(staged.len(), self.queues());
        let mut n = 0;
        while let Some(frame) = self.port.receive() {
            staged[rss::steer(&frame, self.mask)].push(frame);
            n += 1;
        }
        n
    }

    /// The fabric port (deferred-transmit flushing).
    pub fn port_mut(&mut self) -> &mut FabricPort {
        &mut self.port
    }

    /// Dismantles the coordinator, returning the fabric port.
    pub fn into_port(self) -> FabricPort {
        self.port
    }
}

impl Backend for CioNetBackend {
    fn queue_count(&self) -> usize {
        self.queues.queues()
    }

    fn ingress(&mut self) -> usize {
        let mask = self.queues.mask();
        let mut staged = 0;
        while let Some(frame) = self.port.receive() {
            let lane = self.queues.lane_mut(rss::steer(&frame, mask));
            if lane.end.pending.len() >= PENDING_CAP {
                continue; // tail-drop, like a full NIC queue
            }
            lane.end.pending.push_back(frame);
            staged += 1;
        }
        staged
    }

    fn service_queue(&mut self, q: usize) -> Result<usize, HostError> {
        let lane = self.queues.lane_mut(q);
        let event_idx = lane.end.tx.ring().config().notify == NotifyMode::EventIdx;
        let door = if event_idx {
            lane.end.tx.take_doorbell()?
        } else {
            false
        };
        let adaptive = event_idx && self.notify == NotifyPolicy::Adaptive;
        if adaptive {
            let work = !lane.end.pending.is_empty();
            if !self.gates[q].should_service(door, work) {
                // Skip the pass outright: no telemetry span, no ring
                // traffic, no virtual-time charge — the queue is cold.
                self.gates[q].observe_skip();
                return Ok(0);
            }
        }
        let ctx = CioLaneCtx {
            batch: self.batch,
            fbits: self.frame_bits(),
            recorder: &self.recorder,
            clock: &self.clock,
            telemetry: &self.telemetry,
            door,
        };
        let mut sink = PortSink {
            port: &mut self.port,
        };
        let moved = service_cio_lane(self.queues.lane_mut(q), q, &ctx, &mut sink)?;
        if adaptive {
            self.gates[q].observe(moved);
        }
        Ok(moved)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, LinkParams};
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_netstack::MacAddr;
    use cio_sim::{CostModel, Meter};
    use cio_vring::cioring::{CioRing, DataMode, RingConfig};
    use cio_vring::virtqueue::{DescSeg, Driver, Layout};

    fn fabric_pair(clock: &Clock) -> (FabricPort, FabricPort) {
        let fabric = Fabric::new(clock.clone(), 7);
        let a = fabric.port(MacAddr([0xAA; 6]), 1500);
        let b = fabric.port(MacAddr([0xBB; 6]), 1500);
        fabric
            .connect(
                &a,
                &b,
                LinkParams {
                    latency: cio_sim::Cycles::ZERO,
                    loss: 0.0,
                },
            )
            .unwrap();
        (a, b)
    }

    #[test]
    fn virtio_backend_moves_frames_both_ways() {
        let clock = Clock::new();
        let meter = Meter::new();
        let mem = GuestMemory::new(64, clock.clone(), CostModel::default(), meter.clone());
        mem.share_range(GuestAddr(0), 24 * PAGE_SIZE).unwrap();

        let tx_layout = Layout::new(GuestAddr(0), 8).unwrap();
        let rx_layout = Layout::new(GuestAddr(4 * PAGE_SIZE as u64), 8).unwrap();
        let mut tx_drv = Driver::new(mem.guest(), tx_layout, meter.clone()).unwrap();
        let mut rx_drv = Driver::new(mem.guest(), rx_layout, meter).unwrap();

        let (dev_port, mut peer_port) = fabric_pair(&clock);
        let recorder = Recorder::new();
        let mut backend = VirtioNetBackend::new(
            DeviceSide::new(mem.host(), tx_layout),
            DeviceSide::new(mem.host(), rx_layout),
            dev_port,
            recorder.clone(),
            clock.clone(),
        );

        // Buffer arena in pages 8..24.
        let buf = |i: u64| GuestAddr(8 * PAGE_SIZE as u64 + i * 2048);

        // TX path.
        mem.guest().write(buf(0), b"frame out").unwrap();
        tx_drv
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 9,
                }],
                &[],
                1,
            )
            .unwrap();
        backend.process().unwrap();
        assert_eq!(peer_port.receive().unwrap(), b"frame out");
        assert!(tx_drv.poll_used().unwrap().is_some());

        // RX path: post a buffer, then a frame arrives.
        rx_drv
            .add_buf(
                &[],
                &[DescSeg {
                    addr: buf(1),
                    len: 2048,
                }],
                2,
            )
            .unwrap();
        peer_port.transmit(b"frame in").unwrap();
        backend.process().unwrap();
        let done = rx_drv.poll_used().unwrap().unwrap();
        assert_eq!(done.len, 8);
        let mut got = vec![0u8; 8];
        mem.guest().read(buf(1), &mut got).unwrap();
        assert_eq!(got, b"frame in");

        // Observability: both frames were recorded.
        let s = recorder.summary();
        assert_eq!(s.by_kind["frame.tx"], 1);
        assert_eq!(s.by_kind["frame.rx"], 1);
    }

    fn cio_ring_pair(mem: &GuestMemory, base_page: u64, area_page: u64) -> (CioRing, CioRing) {
        let cfg = RingConfig {
            slots: 64,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 2048,
            area_size: 1 << 17,
            ..RingConfig::default()
        };
        let tx_ring = CioRing::new(
            cfg.clone(),
            GuestAddr(base_page * PAGE_SIZE as u64),
            GuestAddr(area_page * PAGE_SIZE as u64),
        )
        .unwrap();
        let rx_ring = CioRing::new(
            cfg,
            GuestAddr((base_page + 1) * PAGE_SIZE as u64),
            GuestAddr((area_page + 32) * PAGE_SIZE as u64),
        )
        .unwrap();
        mem.share_range(tx_ring.prod_idx_addr(), tx_ring.ring_bytes())
            .unwrap();
        mem.share_range(rx_ring.prod_idx_addr(), rx_ring.ring_bytes())
            .unwrap();
        mem.share_range(
            GuestAddr(area_page * PAGE_SIZE as u64),
            tx_ring.area_bytes(),
        )
        .unwrap();
        mem.share_range(
            GuestAddr((area_page + 32) * PAGE_SIZE as u64),
            rx_ring.area_bytes(),
        )
        .unwrap();
        (tx_ring, rx_ring)
    }

    #[test]
    fn cio_backend_moves_frames_both_ways() {
        let clock = Clock::new();
        let mem = GuestMemory::new(600, clock.clone(), CostModel::default(), Meter::new());
        let (tx_ring, rx_ring) = cio_ring_pair(&mem, 0, 16);

        let mut guest_tx = Producer::new(tx_ring.clone(), mem.guest()).unwrap();
        let host_tx = Consumer::new(tx_ring, mem.host()).unwrap();
        let host_rx = Producer::new(rx_ring.clone(), mem.host()).unwrap();
        let mut guest_rx = Consumer::new(rx_ring, mem.guest()).unwrap();

        let (dev_port, mut peer_port) = fabric_pair(&clock);
        let recorder = Recorder::new();
        let mut backend =
            CioNetBackend::single(host_tx, host_rx, dev_port, recorder.clone(), clock);

        guest_tx.produce(b"cio frame out").unwrap();
        backend.process().unwrap();
        assert_eq!(peer_port.receive().unwrap(), b"cio frame out");

        peer_port.transmit(b"cio frame in").unwrap();
        backend.process().unwrap();
        assert_eq!(guest_rx.consume().unwrap().unwrap(), b"cio frame in");

        assert_eq!(recorder.summary().events, 2);
        assert_eq!(backend.queue_meter(0).copies, 2);
    }

    #[test]
    fn cio_backend_in_place_policy_avoids_staging_copies() {
        let clock = Clock::new();
        let meter = Meter::new();
        let mem = GuestMemory::new(600, clock.clone(), CostModel::default(), meter.clone());
        let (tx_ring, rx_ring) = cio_ring_pair(&mem, 0, 16);

        let mut guest_tx = Producer::new(tx_ring.clone(), mem.guest()).unwrap();
        let host_tx = Consumer::new(tx_ring, mem.host()).unwrap();
        let host_rx = Producer::new(rx_ring.clone(), mem.host()).unwrap();
        let mut guest_rx = Consumer::new(rx_ring, mem.guest()).unwrap();

        let (dev_port, mut peer_port) = fabric_pair(&clock);
        let mut backend = CioNetBackend::single(host_tx, host_rx, dev_port, Recorder::new(), clock);
        assert_eq!(backend.rx_ring().copy_policy(), CopyPolicy::InPlace);

        // Guest positions the payload once; the backend reads it in place.
        guest_tx.produce(b"out with no copies").unwrap();
        let before = meter.snapshot().copies;
        backend.process().unwrap();
        assert_eq!(peer_port.receive().unwrap(), b"out with no copies");

        // Inbound: the backend positions once, the guest reads in place.
        peer_port.transmit(b"in with no copies!").unwrap();
        backend.process().unwrap();
        let got = guest_rx.consume_in_place(|f| f.to_vec()).unwrap().unwrap();
        assert_eq!(got, b"in with no copies!");
        assert_eq!(
            meter.snapshot().copies,
            before,
            "steady-state ring servicing performs zero metered copies"
        );

        // The defensive policy restores the staged-copy discipline.
        backend.set_copy_policy(CopyPolicy::CopyEarly);
        peer_port.transmit(b"copied early").unwrap();
        backend.process().unwrap();
        assert!(meter.snapshot().copies > before);
    }

    #[test]
    fn cio_backend_requires_power_of_two_queues() {
        let clock = Clock::new();
        let (dev_port, _peer) = fabric_pair(&clock);
        assert!(CioNetBackend::new(Vec::new(), dev_port, Recorder::new(), clock).is_err());
    }

    #[test]
    fn cio_backend_services_queues_round_robin() {
        let clock = Clock::new();
        let mem = GuestMemory::new(2048, clock.clone(), CostModel::default(), Meter::new());
        let mut guest = Vec::new();
        let mut host = Vec::new();
        for q in 0..4u64 {
            let (tx_ring, rx_ring) = cio_ring_pair(&mem, q * 2, 100 + q * 80);
            guest.push((
                Producer::new(tx_ring.clone(), mem.guest()).unwrap(),
                Consumer::new(rx_ring.clone(), mem.guest()).unwrap(),
            ));
            host.push((
                Consumer::new(tx_ring, mem.host()).unwrap(),
                Producer::new(rx_ring, mem.host()).unwrap(),
            ));
        }

        let (dev_port, mut peer_port) = fabric_pair(&clock);
        let recorder = Recorder::new();
        let mut backend = CioNetBackend::new(host, dev_port, recorder, clock).unwrap();
        assert_eq!(backend.queue_count(), 4);

        // A frame produced on every guest queue crosses in one pass.
        for (q, (tx, _)) in guest.iter_mut().enumerate() {
            tx.produce(format!("queue {q}").as_bytes()).unwrap();
        }
        assert_eq!(backend.process().unwrap(), 4);
        let mut seen = Vec::new();
        while let Some(f) = peer_port.receive() {
            seen.push(String::from_utf8(f).unwrap());
        }
        seen.sort();
        assert_eq!(seen, ["queue 0", "queue 1", "queue 2", "queue 3"]);
        for q in 0..4 {
            assert_eq!(
                backend.queue_meter(q).copies,
                1,
                "queue {q} moved its frame"
            );
        }

        // Inbound non-flow traffic steers to queue 0.
        peer_port.transmit(b"not ip").unwrap();
        backend.process().unwrap();
        assert_eq!(guest[0].1.consume().unwrap().unwrap(), b"not ip");
        for (q, (_, rx)) in guest.iter_mut().enumerate().skip(1) {
            assert_eq!(rx.available().unwrap(), 0, "queue {q} stays idle");
        }
    }
}
