//! Paravirtual device backends: the host side of the guest's NIC.
//!
//! A backend shovels frames between a guest-facing transport (virtqueues
//! or cio-ring pairs) and a [`FabricPort`]. Every frame that passes
//! through is, by definition, host-visible, so backends record it on the
//! [`Recorder`] with wire-tap-equivalent metadata (L2 boundary
//! observability = what the network already sees, §2.4).
//!
//! The [`Backend`] trait is the uniform host-side handle, and it has one
//! world-facing entry point: [`Backend::round`], "the host side of one
//! scheduling round". Inside it a backend pulls delivered frames off the
//! fabric, steers them with the same symmetric RSS hash the guest uses
//! ([`cio_netstack::rss`]), and services each queue on that queue's
//! [`Lanes`] lane; what a queue error means is the backend's own policy
//! (virtio propagates it, cio swallows a wedged queue). Four
//! implementations exist: [`NullBackend`], [`VirtioNetBackend`],
//! [`CioNetBackend`], and the thread-per-queue
//! [`ParallelHost`](crate::parallel::ParallelHost) a `CioNetBackend`
//! splits into. Callers that need a concrete device model (the adversary
//! harness, hot-swap) downcast through [`Backend::as_any_mut`] instead of
//! the `World` growing one accessor per device type.
//!
//! Whether a cio queue is serviced at all in a round is decided once, by
//! `Admission`: it takes the queue's door word and consults the
//! queue's [`NotifyGate`]. Whoever drives the round owns it — the serial
//! backend, or after the split the parallel host's coordinator, which is
//! handed the same object (gate state included) and so never wakes a cold
//! queue's thread.

use crate::fabric::FabricPort;
use crate::mq::{MultiQueue, QueueLane};
use crate::observe::{bits, Recorder};
use crate::HostError;
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, HostView, MemView};
use cio_netstack::{rss, NetDevice};
use cio_sim::{Clock, Cycles, EventKind, Lanes, MeterSnapshot, Stage, Telemetry};
use cio_vring::cioring::{
    BatchPolicy, CioRing, Consumer, NotifyMode, NotifyPolicy, Producer, MAX_BATCH,
};
use cio_vring::virtqueue::{Chain, DeviceSide};
use cio_vring::RingError;
use std::any::Any;
use std::collections::VecDeque;

/// Frames a backend retains per queue while the guest is slow; beyond
/// this the queue tail-drops like a full NIC ring.
const PENDING_CAP: usize = 256;

/// Pulls every delivered frame off the fabric and hands it to `stage`
/// with the queue the symmetric RSS hash steers it to (`mask` = queue
/// count - 1) — cost-free bookkeeping; the metered work is the ring
/// traffic.
pub(crate) fn steer_ingress(
    port: &mut FabricPort,
    mask: u32,
    mut stage: impl FnMut(usize, Vec<u8>),
) {
    while let Some(frame) = port.receive() {
        stage(rss::steer(&frame, mask), frame);
    }
}

/// Queues one inbound frame for delivery to the guest, tail-dropping
/// against [`PENDING_CAP`] like a full NIC queue. The cap is judged
/// against the queue's true backlog, so whoever owns `pending` (serial
/// backend or worker) drops exactly the same frames.
pub(crate) fn enqueue_capped(pending: &mut VecDeque<Vec<u8>>, frame: Vec<u8>) {
    if pending.len() < PENDING_CAP {
        pending.push_back(frame);
    }
}

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

/// The per-round admission decision for a set of cio queues: door-take
/// plus [`NotifyGate`], written once for both hosts.
///
/// Owned by whoever drives the round: the serial [`CioNetBackend`], and
/// after the split the parallel host's coordinator, which is handed this
/// object — gate state included — so the decision stays coordinator-side
/// and a cold queue's worker thread is never woken.
pub(crate) struct Admission {
    /// The host's window onto guest memory, for the uncharged door-word
    /// reads (the kick that set the word paid for the notification).
    host: HostView,
    pub(crate) policy: NotifyPolicy,
    /// Door-word address of each queue's guest->host ring (`None` unless
    /// that ring runs [`NotifyMode::EventIdx`]).
    doors: Vec<Option<GuestAddr>>,
    /// Per-queue poll-vs-notify controllers (consulted under
    /// [`NotifyPolicy::Adaptive`] on event-idx rings).
    gates: Vec<NotifyGate>,
}

impl Admission {
    pub(crate) fn new<'a>(
        host: HostView,
        policy: NotifyPolicy,
        tx_rings: impl Iterator<Item = &'a CioRing>,
    ) -> Self {
        let doors: Vec<_> = tx_rings
            .map(|r| (r.config().notify == NotifyMode::EventIdx).then(|| r.door_addr()))
            .collect();
        Admission {
            host,
            policy,
            gates: vec![NotifyGate::new(); doors.len()],
            doors,
        }
    }

    /// Takes queue `q`'s door word (read and clear) and decides whether
    /// this round services the queue, given whether inbound `work` is
    /// staged for it. `Some(door)` admits the pass, `door` telling it
    /// whether the guest rang; `None` keeps the queue cold — no span, no
    /// ring traffic, no virtual-time charge — and accounts the skip.
    ///
    /// An unreadable door word (the guest pulled the ring header from
    /// under the host) fails toward service, like every other
    /// notification doubt: the pass is admitted as rung, meets the same
    /// fault on the ring itself, and surfaces it there. A skip never
    /// rests on a word that could not be read.
    pub(crate) fn admit(&mut self, q: usize, work: bool) -> Option<bool> {
        let Some(addr) = self.doors[q] else {
            return Some(false);
        };
        // Anything but a readable zero counts as rung.
        let door = self.host.read_u32(addr) != Ok(0);
        if door {
            let _ = self.host.write_u32(addr, 0);
        }
        if self.policy == NotifyPolicy::Adaptive && !self.gates[q].should_service(door, work) {
            self.gates[q].observe_skip();
            return None;
        }
        Some(door)
    }

    /// Accounts an admitted pass over queue `q` that moved `moved` frames
    /// (a pass that failed counts as empty).
    pub(crate) fn observe(&mut self, q: usize, moved: usize) {
        if self.policy == NotifyPolicy::Adaptive && self.doors[q].is_some() {
            self.gates[q].observe(moved);
        }
    }

    /// Total empty passes burned by the gates while hot.
    pub(crate) fn idle_passes(&self) -> u64 {
        self.gates.iter().map(NotifyGate::idle_passes).sum()
    }

    /// The guest memory the door words live in (the split derives its
    /// per-lane views from it).
    pub(crate) fn memory(&self) -> &GuestMemory {
        self.host.memory()
    }
}

/// The uniform host-side device-backend interface: the host side of one
/// world round.
pub trait Backend {
    /// Runs the host's share of one scheduling round: pulls delivered
    /// frames off the fabric, steers them, and services every queue `q`
    /// on lane `q` of `lanes` (a one-lane set is the shared clock, see
    /// [`Lanes`]). Returns frames moved.
    ///
    /// # Errors
    ///
    /// Each backend owns its error policy. The virtio backends propagate
    /// transport errors (a corrupted virtqueue is fatal to the device).
    /// The cio backends swallow a wedged queue — the violation surfaces
    /// on the meter and the world keeps stepping — and fail only when the
    /// host itself breaks (a worker thread died).
    fn round(&mut self, lanes: &mut Lanes) -> Result<usize, HostError>;

    /// Per-queue traffic snapshots (frames in `copies`, bytes in
    /// `bytes_copied`), index = queue id; empty for backends that keep
    /// none.
    fn queue_meters(&self) -> Vec<MeterSnapshot> {
        Vec::new()
    }

    /// Total empty service passes burned by the adaptive notify
    /// controllers while hot — the idle-spin audit trail E23 gates on.
    fn idle_passes(&self) -> u64 {
        0
    }

    /// Host worker threads servicing the queues (`0`: the round runs on
    /// the calling thread).
    fn threads(&self) -> usize {
        0
    }

    /// Downcast access for callers that need the concrete device model
    /// (adversary harness, per-queue ring access, hot swap).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Backend for designs with no paravirtual device at all (the L5 socket
/// service and direct device assignment talk to the world differently).
#[derive(Debug, Default)]
pub struct NullBackend;

impl Backend for NullBackend {
    fn round(&mut self, _lanes: &mut Lanes) -> Result<usize, HostError> {
        Ok(0)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
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

    /// Services the queue pair: drains guest->net chains and delivers
    /// pending net->guest frames into posted receive buffers.
    fn service(&mut self) -> Result<usize, HostError> {
        let _svc = self.telemetry.span(0, Stage::HostService);
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
            self.telemetry.record_batch(0, moved as u64);
        }
        Ok(moved)
    }
}

impl Backend for VirtioNetBackend {
    fn round(&mut self, lanes: &mut Lanes) -> Result<usize, HostError> {
        // One queue pair: nothing to steer.
        while let Some(frame) = self.port.receive() {
            enqueue_capped(&mut self.pending, frame);
        }
        let base = lanes.begin(0);
        let serviced = self.service();
        lanes.end(0, base);
        serviced
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
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
    pub(crate) queues: MultiQueue<HostQueue>,
    pub(crate) port: FabricPort,
    pub(crate) recorder: Recorder,
    pub(crate) clock: Clock,
    /// When set, frames are treated as opaque blobs (tunnel carrier): the
    /// recorder only sees length and timing, never headers.
    pub opaque: bool,
    /// Record-batching discipline for guest->net servicing: each pass
    /// drains runs of up to this many records with one shared-index read,
    /// one memory-lock acquisition, and one consumer-index write per run
    /// ([`BatchPolicy::Serial`], the default, is the run of one).
    pub(crate) batch: BatchPolicy,
    /// The data positioning wired onto every ring endpoint (kept so a
    /// hot swap wires the replacement endpoints the same way).
    copy: CopyPolicy,
    /// Which queues a round services. Under the default
    /// [`NotifyPolicy::Always`] every round services every queue;
    /// [`NotifyPolicy::EventIdx`] adds suppression bookkeeping on the
    /// rings; [`NotifyPolicy::Adaptive`] additionally runs one
    /// [`NotifyGate`] per queue, skipping service passes (charging
    /// nothing) while a queue is provably idle.
    pub(crate) admission: Admission,
    pub(crate) telemetry: Telemetry,
}

/// Wraps `(guest->host, host->guest)` endpoint pairs as steerable host
/// queues with empty backlogs.
fn host_queues(
    pairs: Vec<(Consumer<HostView>, Producer<HostView>)>,
) -> Result<MultiQueue<HostQueue>, HostError> {
    let ends = pairs.into_iter().map(|(tx, rx)| HostQueue {
        tx,
        rx,
        pending: VecDeque::new(),
    });
    Ok(MultiQueue::new(ends.collect())?)
}

impl CioNetBackend {
    /// Creates the backend over one `(guest->host, host->guest)` ring
    /// pair per queue. `host` is the host's window onto guest memory,
    /// through which the round's admission decision reads the door words.
    ///
    /// # Errors
    ///
    /// [`HostError::Ring`] unless the queue count is a non-zero power of
    /// two — the ring's own masked-index rule, applied to steering.
    pub fn new(
        queues: Vec<(Consumer<HostView>, Producer<HostView>)>,
        host: HostView,
        port: FabricPort,
        recorder: Recorder,
        clock: Clock,
    ) -> Result<Self, HostError> {
        let queues = host_queues(queues)?;
        let tx_rings = queues.iter().map(|lane| lane.end.tx.ring());
        let admission = Admission::new(host, NotifyPolicy::default(), tx_rings);
        Ok(CioNetBackend {
            queues,
            port,
            recorder,
            clock,
            opaque: false,
            batch: BatchPolicy::default(),
            copy: CopyPolicy::default(),
            admission,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Hot swap (§3.2): attaches the replacement device's endpoints — in
    /// a world, fresh endpoints over the *same* rings, since the fixed
    /// config fixes the layout too — to the same link. Frames the old
    /// device still held are lost (TCP recovers them); per-queue meters
    /// and admission state start afresh; batch, positioning, notify and
    /// telemetry wiring carry over.
    ///
    /// # Errors
    ///
    /// As [`CioNetBackend::new`], before anything of the old device is
    /// retired.
    pub fn reattach(
        &mut self,
        queues: Vec<(Consumer<HostView>, Producer<HostView>)>,
    ) -> Result<(), HostError> {
        self.queues = host_queues(queues)?;
        let tx_rings = self.queues.iter().map(|lane| lane.end.tx.ring());
        self.admission =
            Admission::new(self.admission.host.clone(), self.admission.policy, tx_rings);
        self.set_copy_policy(self.copy);
        self.set_telemetry(self.telemetry.clone());
        Ok(())
    }

    /// Wires the data-positioning discipline onto every queue's ring
    /// endpoints. Under the default [`CopyPolicy::InPlace`], guest->net
    /// records are handed to the fabric straight out of slot memory and
    /// net->guest frames are placed with a single positioning write;
    /// [`CopyPolicy::CopyEarly`] makes both directions pay the explicit
    /// early copy (the defensive arm for adversarial double-fetch
    /// configurations).
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        self.copy = policy;
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
        self.admission.policy = notify;
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

    pub(crate) fn frame_bits(&self) -> u32 {
        if self.opaque {
            bits::LENGTH + bits::TIMING
        } else {
            bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING
        }
    }

    /// The guest->host consumer of queue `q` (adversary access).
    pub fn tx_ring_of(&mut self, q: usize) -> &mut Consumer<HostView> {
        &mut self.queues.lane_mut(q).end.tx
    }

    /// The host->guest producer of queue `q` (adversary access).
    pub fn rx_ring_of(&mut self, q: usize) -> &mut Producer<HostView> {
        &mut self.queues.lane_mut(q).end.rx
    }

    /// One admitted service pass over queue `q`.
    fn service_queue(&mut self, q: usize, door: bool) -> Result<usize, HostError> {
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
        service_cio_lane(self.queues.lane_mut(q), q, &ctx, &mut sink)
    }
}

impl Backend for CioNetBackend {
    fn round(&mut self, lanes: &mut Lanes) -> Result<usize, HostError> {
        let queues = &mut self.queues;
        steer_ingress(&mut self.port, queues.mask(), |q, frame| {
            enqueue_capped(&mut queues.lane_mut(q).end.pending, frame);
        });
        let mut moved = 0;
        for q in 0..self.queues.queues() {
            let work = !self.queues.lane(q).end.pending.is_empty();
            let Some(door) = self.admission.admit(q, work) else {
                continue;
            };
            let base = lanes.begin(q);
            // The adversary may have wedged this queue: the violation
            // surfaces on the meter, the pass counts as empty, and the
            // other queues (and later rounds) keep running.
            let n = self.service_queue(q, door).unwrap_or(0);
            lanes.end(q, base);
            self.admission.observe(q, n);
            moved += n;
        }
        Ok(moved)
    }

    fn queue_meters(&self) -> Vec<MeterSnapshot> {
        self.queues
            .iter()
            .map(|lane| lane.meter.snapshot())
            .collect()
    }

    fn idle_passes(&self) -> u64 {
        self.admission.idle_passes()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
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

    /// One un-laned host round (a one-lane set is the shared clock).
    fn pass(backend: &mut impl Backend, clock: &Clock) -> usize {
        backend.round(&mut Lanes::new(clock.clone(), 1)).unwrap()
    }

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
        pass(&mut backend, &clock);
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
        pass(&mut backend, &clock);
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
        let mut backend = CioNetBackend::new(
            vec![(host_tx, host_rx)],
            mem.host(),
            dev_port,
            recorder.clone(),
            clock.clone(),
        )
        .unwrap();

        guest_tx.produce(b"cio frame out").unwrap();
        pass(&mut backend, &clock);
        assert_eq!(peer_port.receive().unwrap(), b"cio frame out");

        peer_port.transmit(b"cio frame in").unwrap();
        pass(&mut backend, &clock);
        assert_eq!(guest_rx.consume().unwrap().unwrap(), b"cio frame in");

        assert_eq!(recorder.summary().events, 2);
        assert_eq!(backend.queue_meters()[0].copies, 2);
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
        let mut backend = CioNetBackend::new(
            vec![(host_tx, host_rx)],
            mem.host(),
            dev_port,
            Recorder::new(),
            clock.clone(),
        )
        .unwrap();
        assert_eq!(backend.rx_ring_of(0).copy_policy(), CopyPolicy::InPlace);

        // Guest positions the payload once; the backend reads it in place.
        guest_tx.produce(b"out with no copies").unwrap();
        let before = meter.snapshot().copies;
        pass(&mut backend, &clock);
        assert_eq!(peer_port.receive().unwrap(), b"out with no copies");

        // Inbound: the backend positions once, the guest reads in place.
        peer_port.transmit(b"in with no copies!").unwrap();
        pass(&mut backend, &clock);
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
        pass(&mut backend, &clock);
        assert!(meter.snapshot().copies > before);
    }

    #[test]
    fn cio_backend_requires_power_of_two_queues() {
        let clock = Clock::new();
        let mem = GuestMemory::new(1, clock.clone(), CostModel::default(), Meter::new());
        let (dev_port, _peer) = fabric_pair(&clock);
        assert!(
            CioNetBackend::new(Vec::new(), mem.host(), dev_port, Recorder::new(), clock).is_err()
        );
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
        let mut backend =
            CioNetBackend::new(host, mem.host(), dev_port, recorder, clock.clone()).unwrap();
        assert_eq!(backend.queue_meters().len(), 4);

        // A frame produced on every guest queue crosses in one pass.
        for (q, (tx, _)) in guest.iter_mut().enumerate() {
            tx.produce(format!("queue {q}").as_bytes()).unwrap();
        }
        assert_eq!(pass(&mut backend, &clock), 4);
        let mut seen = Vec::new();
        while let Some(f) = peer_port.receive() {
            seen.push(String::from_utf8(f).unwrap());
        }
        seen.sort();
        assert_eq!(seen, ["queue 0", "queue 1", "queue 2", "queue 3"]);
        for q in 0..4 {
            assert_eq!(
                backend.queue_meters()[q].copies,
                1,
                "queue {q} moved its frame"
            );
        }

        // Inbound non-flow traffic steers to queue 0.
        peer_port.transmit(b"not ip").unwrap();
        pass(&mut backend, &clock);
        assert_eq!(guest[0].1.consume().unwrap().unwrap(), b"not ip");
        for (q, (_, rx)) in guest.iter_mut().enumerate().skip(1) {
            assert_eq!(rx.available().unwrap(), 0, "queue {q} stays idle");
        }
    }
}
