//! Complete simulated deployments: one [`World`] per boundary design.
//!
//! A `World` owns everything Figure 1 draws — the confidential workload
//! (①), host software (③), host hardware / fabric (④), and a remote
//! confidential peer — wired for one [`BoundaryKind`]. All worlds expose
//! the same application API (connect / send / recv over optionally-cTLS
//! streams), so experiments E4/E9/E10/E11 run identical workloads across
//! designs and differences are attributable to the boundary alone.

mod parallel;
pub mod speer;

use crate::dev::{
    CioRingDevice, GuestLayoutAlloc, HardenedVirtioNetDevice, IdeNetDevice, RecvMode, SendMode,
    TunnelDevice, VirtqueueNetDevice, VqArena,
};
use crate::session::SessionTable;
use crate::{CioError, Transient};
use cio_ctls::{Channel, RecordScratch, SimHooks};
use cio_host::backend::{Backend, CioNetBackend, NullBackend, VirtioNetBackend};
use cio_host::fabric::{Fabric, FabricPort, LinkParams};
use cio_host::l5::L5Service;
use cio_host::observe::Recorder;
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, PAGE_SIZE};
use cio_netstack::stack::{Interface, InterfaceConfig, SocketHandle};
use cio_netstack::{rss, Ipv4Addr, MacAddr, NetDevice, PairDevice};
use cio_sim::{
    Clock, CostModel, Cycles, EventKind, Lanes, Meter, SimRng, SloConfig, SloWatchdog, Stage,
    Telemetry,
};
use cio_tee::compartment::Gate;
use cio_tee::dda::{spdm_attest, Device, IdeChannel};
use cio_tee::{Tee, TeeKind};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use cio_vring::hardened::HardenedDriver;
use cio_vring::virtqueue::{
    driver_negotiate, ConfigSpace, DeviceSide, Driver, Layout, F_NET_MAC, F_NET_MTU, F_VERSION_1,
};
use parallel::ParallelHost;
use speer::{FeedResult, SecurePeer, SecureStream, TunnelGateway};

pub use cio_vring::cioring::{BatchPolicy, NotifyMode, NotifyPolicy};
pub use speer::{ECHO_PORT, RPC_PORT};

// The session-layer types are part of the world's public API surface:
// `connect` issues [`SessionId`]s and the `_into` receive family fills
// [`SessionScratch`]es.
pub use crate::session::{SessionError, SessionId, SessionScratch};

/// The boundary designs under comparison (see crate docs for the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// Socket-level boundary; the stack is host software (Graphene/CCF).
    L5Host,
    /// Raw virtio split queue, no hardening (traditional lift-and-shift,
    /// DPDK-style shared buffers, polling).
    L2VirtioUnhardened,
    /// Linux-retrofit hardened virtio: validation + SWIOTLB + interrupts.
    L2VirtioHardened,
    /// The paper's safe ring, single confidential domain (no intra-TEE
    /// boundary) — the "ShieldBox with a better interface" point.
    L2CioRing,
    /// The paper's full design: safe ring at L2 plus the intra-TEE L5
    /// compartment boundary (ternary trust model).
    DualBoundary,
    /// L2-over-TLS to a trusted gateway (LightBox-shaped).
    Tunneled,
    /// SPDM-attested, IDE-protected direct device assignment (§3.4).
    Dda,
}

/// All boundary kinds, for experiment iteration.
pub const ALL_BOUNDARIES: [BoundaryKind; 7] = [
    BoundaryKind::L5Host,
    BoundaryKind::L2VirtioUnhardened,
    BoundaryKind::L2VirtioHardened,
    BoundaryKind::L2CioRing,
    BoundaryKind::DualBoundary,
    BoundaryKind::Tunneled,
    BoundaryKind::Dda,
];

impl std::fmt::Display for BoundaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BoundaryKind::L5Host => "l5-host",
            BoundaryKind::L2VirtioUnhardened => "virtio-unhardened",
            BoundaryKind::L2VirtioHardened => "virtio-hardened",
            BoundaryKind::L2CioRing => "cio-ring",
            BoundaryKind::DualBoundary => "dual-boundary",
            BoundaryKind::Tunneled => "tunneled",
            BoundaryKind::Dda => "dda",
        };
        f.write_str(s)
    }
}

/// Tuning for a world.
#[derive(Clone)]
pub struct WorldOptions {
    /// The platform cost model.
    pub cost: CostModel,
    /// Fabric link characteristics.
    pub link: LinkParams,
    /// End-to-end cTLS for application data (mandatory for the dual
    /// boundary; uniform across designs for fair comparison).
    pub app_tls: bool,
    /// cio-ring transmit mode.
    pub send_mode: SendMode,
    /// cio-ring receive mode.
    pub recv_mode: RecvMode,
    /// cio-ring notification mode.
    pub notify: NotifyMode,
    /// Notification economics on top of `notify`
    /// ([`NotifyPolicy::Always`] by default: the historical one kick per
    /// publish in doorbell mode, bit-identical to the pre-suppression
    /// paths). With `notify` set to [`NotifyMode::Doorbell`],
    /// [`NotifyPolicy::EventIdx`] upgrades the rings to event-idx
    /// suppression (one doorbell covers many batches while the other
    /// side is provably awake) and [`NotifyPolicy::Adaptive`] adds the
    /// per-queue poll-vs-notify controller on the host (skip service
    /// passes while idle, bounded idle spin, re-poll heartbeat).
    /// Ignored under [`NotifyMode::Polling`], which stays byte-identical
    /// regardless of policy.
    pub notify_policy: NotifyPolicy,
    /// Dual boundary: charge an app→stack payload copy instead of
    /// trusted-component-allocates zero-copy (E9's contrast arm).
    pub l5_app_copy: bool,
    /// Data-positioning discipline for the record/ring dataplane
    /// ([`CopyPolicy::InPlace`] by default: records are sealed into and
    /// consumed out of slot memory with no staging copies). Set
    /// [`CopyPolicy::CopyEarly`] to force the staged copy path everywhere
    /// — the defensive arm for adversarial double-fetch configurations.
    /// Ring layouts that cannot support in-place positioning (inline
    /// slots) fall back to the staged path automatically regardless.
    pub copy_policy: CopyPolicy,
    /// Record-batch discipline for the whole dataplane
    /// ([`BatchPolicy::Serial`] by default: every boundary crossing
    /// covers exactly one record, bit-identical to the pre-batching
    /// paths). Non-serial policies amortize the memory lock, index
    /// publish, doorbell, and AEAD setup over runs of records at every
    /// endpoint — guest device, host backend, tunnel carrier, secure
    /// peer, and client stream — with per-record validation, nonces, and
    /// tags untouched.
    pub batch: BatchPolicy,
    /// Deterministic seed.
    pub seed: u64,
    /// Per-session key-rotation interval: every cTLS channel (client
    /// stream and peer side alike) derives a fresh epoch key after this
    /// many records in each direction. `None` disables rotation. The
    /// default matches [`cio_ctls::REKEY_INTERVAL`], so rotation is on
    /// everywhere unless explicitly tuned.
    pub rekey_interval: Option<u64>,
    /// DDA: the attested device misbehaves after attestation.
    pub dda_tamper: bool,
    /// Minimum virtual-time progress per [`World::step`].
    pub step_quantum: Cycles,
    /// TEE flavour.
    pub tee_kind: TeeKind,
    /// Dataplane queue count (cio-ring designs only). Must be a non-zero
    /// power of two, at most [`MAX_QUEUES`]. With more than one queue,
    /// flows are RSS-steered and each queue is serviced on its own
    /// virtual core (see [`cio_sim::Lanes`]).
    pub queues: usize,
    /// Host worker threads (cio-ring designs only). `0` (default) keeps
    /// host servicing on the stepping thread. With `n > 0`, the host
    /// backend is split thread-per-queue: `n` persistent OS threads each
    /// own `queues / n` queue pairs end-to-end (rings, backlog, pool,
    /// lane clock, telemetry fork) and service them concurrently in wall
    /// clock, while the virtual-time schedule stays record-for-record
    /// identical to the serial multiqueue sweep. Must divide `queues`.
    pub parallel: usize,
    /// Arm the instruments of the world's telemetry domain (spans,
    /// histograms, cycle attribution — see [`cio_sim::telemetry`]). Off
    /// by default: an unarmed half costs one branch per instrumentation
    /// site and records nothing. Telemetry never advances the clock, so
    /// enabling it cannot perturb the simulation.
    pub telemetry: bool,
    /// Arm the timeline of the same domain plus the SLO watchdog (typed
    /// events, the tamper-evident audit chain, breach detection — see
    /// [`cio_sim::flight`]). Off by default, and independent of
    /// [`WorldOptions::telemetry`]: the adversary matrix seals verdicts
    /// with the timeline alone, the determinism suites arm the
    /// instruments alone. Recording never advances the clock either.
    pub observe: bool,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            cost: CostModel::default(),
            link: LinkParams::default(),
            app_tls: true,
            send_mode: SendMode::Copy,
            recv_mode: RecvMode::Copy,
            notify: NotifyMode::Polling,
            notify_policy: NotifyPolicy::Always,
            l5_app_copy: false,
            copy_policy: CopyPolicy::default(),
            batch: BatchPolicy::default(),
            seed: 0xC10,
            rekey_interval: Some(cio_ctls::REKEY_INTERVAL),
            dda_tamper: false,
            step_quantum: Cycles(5_000),
            tee_kind: TeeKind::ConfidentialVm,
            queues: 1,
            parallel: 0,
            telemetry: false,
            observe: false,
        }
    }
}

/// Upper bound on [`WorldOptions::queues`], set by the guest memory
/// budget (each queue pair carves its rings and payload areas out of the
/// fixed guest layout).
pub const MAX_QUEUES: usize = 8;

/// Unsent-backlog threshold above which [`World::send`] reports
/// backpressure ([`Transient::WouldBlock`]) instead of buffering more.
pub const SEND_HIGH_WATER: usize = 64 * 1024;

/// Guest address of the world (fixed).
pub const GUEST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Peer address of the world (fixed).
pub const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

const GUEST_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x01]);
const PEER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x02]);
const FABRIC_MTU: usize = 2200;
const GUEST_PAGES: usize = 4096;

// One long-lived guest per world: variant size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Guest {
    Stack {
        iface: Interface<Box<dyn NetDevice>>,
    },
    Dual {
        iface: Interface<Box<dyn NetDevice>>,
        gate: Gate,
        app: cio_tee::CompartmentId,
        iostack: cio_tee::CompartmentId,
    },
    L5 {
        svc: L5Service,
    },
}

#[allow(clippy::large_enum_variant)] // one per world
enum PeerNode {
    Direct(SecurePeer<FabricPort>),
    Tunnel {
        gw_port: FabricPort,
        gw: TunnelGateway,
        peer: SecurePeer<PairDevice>,
    },
}

/// Pieces produced when building a cio-ring data path.
type CioRingParts = (Box<dyn NetDevice>, CioNetBackend, Vec<(CioRing, CioRing)>);

/// Layout facts the adversary harness needs to aim its attacks.
#[derive(Debug, Clone, Default)]
pub struct Anatomy {
    /// Virtqueue layouts (tx, rx) and the config page, when present.
    pub virtio: Option<(Layout, Layout, GuestAddr)>,
    /// Queue-0 cio rings (tx, rx), when present (kept for callers that
    /// predate multi-queue; identical to `cio_queues[0]`).
    pub cio_rings: Option<(CioRing, CioRing)>,
    /// All cio ring pairs (tx, rx), one per queue, in queue order.
    pub cio_queues: Vec<(CioRing, CioRing)>,
}

/// A snapshot of a world's session-table bookkeeping (see
/// [`World::session_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently open.
    pub live: u64,
    /// Peak concurrent sessions (sum of per-shard peaks).
    pub peak_live: u64,
    /// Table slots ever allocated — bounded by peak concurrency, not by
    /// `created`, because closed slots are reclaimed.
    pub capacity: usize,
    /// Sessions ever opened.
    pub created: u64,
    /// Sessions closed and reclaimed.
    pub reclaimed: u64,
    /// Hot-path handle lookups performed.
    pub lookups: u64,
    /// Slot probes those lookups cost (`== lookups`: direct-mapped).
    pub probes: u64,
}

struct ConnState {
    handle: SocketHandle,
    stream: SecureStream,
    /// Protocol bytes (handshake continuations) awaiting transmission.
    outbox: Vec<u8>,
    /// Decrypted application bytes awaiting the app.
    app_in: Vec<u8>,
    /// Reusable stream-feed output buffers (steady state allocates
    /// nothing per poll).
    feed_scratch: FeedResult,
    /// The virtual core / queue this connection's flow steers to
    /// (always 0 when the world runs a single queue).
    lane: usize,
    /// Highest transmit key epoch already reported to the event
    /// timeline (rekey events fire on the transition past this mark).
    epoch_seen: u64,
}

/// One complete simulated deployment.
pub struct World {
    kind: BoundaryKind,
    opts: WorldOptions,
    clock: Clock,
    meter: Meter,
    recorder: Recorder,
    tee: Tee,
    guest: Guest,
    backend: Box<dyn Backend>,
    peer: PeerNode,
    /// The session control plane: one shard per dataplane queue, O(1)
    /// generational lookup, slots reclaimed on close. Handles issued by
    /// [`World::connect`] are [`SessionId`]s into this table.
    conns: SessionTable<ConnState>,
    /// TCP handles of closed sessions awaiting full teardown; their
    /// netstack slots (and ephemeral ports) are released once the
    /// connection drains to `Closed`/`TimeWait`, so socket memory — like
    /// session-table memory — is bounded by peak concurrency under churn.
    draining: Vec<SocketHandle>,
    /// Reusable id buffer for the per-step flush sweep (steady-state
    /// stepping allocates nothing once warmed).
    flush_ids: Vec<SessionId>,
    rng: SimRng,
    anatomy: Anatomy,
    layout: GuestLayoutAlloc,
    /// Per-queue virtual-core accounting (one lane when single-queue).
    lanes: Lanes,
    /// Reusable scratch for sealing outgoing application data.
    seal_scratch: RecordScratch,
    /// Reusable scratch the stack's received bytes are read into before
    /// they are fed to a session's stream.
    recv_scratch: Vec<u8>,
    /// The observation domain: instruments armed by
    /// [`WorldOptions::telemetry`], timeline by
    /// [`WorldOptions::observe`]; a disabled no-op handle with neither.
    telemetry: Telemetry,
    /// Online SLO watchdog, pumped once per step against the telemetry
    /// RTT histograms (present only when [`WorldOptions::observe`] is
    /// set; silently idle unless telemetry is armed too, since the RTT
    /// histograms are its only input).
    watchdog: Option<SloWatchdog>,
    /// Thread-per-queue host execution (replaces `backend` when
    /// [`WorldOptions::parallel`] is non-zero; `backend` then holds a
    /// [`NullBackend`]).
    parallel: Option<ParallelHost>,
}

/// Step-by-step construction of a [`World`].
///
/// Obtained from [`World::builder`]; finish with
/// [`build`](WorldBuilder::build). Setters cover the common knobs; the
/// rest of [`WorldOptions`] is reachable through
/// [`options`](WorldBuilder::options).
///
/// # Examples
///
/// ```
/// use cio::world::{BoundaryKind, World};
/// let w = World::builder(BoundaryKind::L2CioRing)
///     .queues(4)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(w.queues(), 4);
/// ```
#[derive(Clone)]
pub struct WorldBuilder {
    kind: BoundaryKind,
    opts: WorldOptions,
}

impl WorldBuilder {
    /// Replaces the whole option set (escape hatch for knobs without a
    /// dedicated setter).
    pub fn options(mut self, opts: WorldOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Dataplane queue count (cio-ring designs; power of two, <=
    /// [`MAX_QUEUES`]).
    pub fn queues(mut self, queues: usize) -> Self {
        self.opts.queues = queues;
        self
    }

    /// Host worker threads (cio-ring designs; must divide the queue
    /// count). `0` keeps host servicing on the stepping thread.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.opts.parallel = threads;
        self
    }

    /// The platform cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.opts.cost = cost;
        self
    }

    /// Deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Fabric link characteristics.
    pub fn link(mut self, link: LinkParams) -> Self {
        self.opts.link = link;
        self
    }

    /// End-to-end cTLS for application data.
    pub fn app_tls(mut self, on: bool) -> Self {
        self.opts.app_tls = on;
        self
    }

    /// Data-positioning discipline for the record/ring dataplane.
    pub fn copy_policy(mut self, policy: CopyPolicy) -> Self {
        self.opts.copy_policy = policy;
        self
    }

    /// Record-batch discipline for the dataplane (serial by default).
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.opts.batch = batch;
        self
    }

    /// cio-ring notification mode (polling by default).
    pub fn notify(mut self, notify: NotifyMode) -> Self {
        self.opts.notify = notify;
        self
    }

    /// Notification economics on top of the notify mode (`Always` by
    /// default; see [`WorldOptions::notify_policy`]).
    pub fn notify_policy(mut self, policy: NotifyPolicy) -> Self {
        self.opts.notify_policy = policy;
        self
    }

    /// Per-session key-rotation interval (`None` disables rotation).
    pub fn rekey_interval(mut self, interval: Option<u64>) -> Self {
        self.opts.rekey_interval = interval;
        self
    }

    /// Adversary mode: the DDA device misbehaves after attestation.
    pub fn dda_tamper(mut self, on: bool) -> Self {
        self.opts.dda_tamper = on;
        self
    }

    /// Arms the deterministic telemetry layer (spans, latency
    /// histograms, per-stage cycle attribution). Off by default.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.opts.telemetry = on;
        self
    }

    /// Arms the event timeline and SLO watchdog (typed events, the
    /// tamper-evident audit chain, breach detection). Off by default.
    pub fn observe(mut self, on: bool) -> Self {
        self.opts.observe = on;
        self
    }

    /// Returns the accumulated option set without building, for harnesses
    /// that construct many same-shaped worlds from one builder recipe.
    pub fn into_options(self) -> WorldOptions {
        self.opts
    }

    /// Builds the world.
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] for configuration errors; transport errors
    /// during setup.
    pub fn build(self) -> Result<World, CioError> {
        let WorldBuilder { kind, opts } = self;
        if opts.queues == 0 || !opts.queues.is_power_of_two() || opts.queues > MAX_QUEUES {
            return Err(CioError::Fatal(
                "queue count must be a power of two between 1 and MAX_QUEUES",
            ));
        }
        if opts.queues > 1 && !matches!(kind, BoundaryKind::L2CioRing | BoundaryKind::DualBoundary)
        {
            return Err(CioError::Fatal(
                "multi-queue is implemented for the cio-ring designs",
            ));
        }
        if opts.parallel > 0 {
            if !matches!(kind, BoundaryKind::L2CioRing | BoundaryKind::DualBoundary) {
                return Err(CioError::Fatal(
                    "parallel host execution is implemented for the cio-ring designs",
                ));
            }
            if opts.queues % opts.parallel != 0 {
                return Err(CioError::Fatal(
                    "parallel worker count must divide the queue count",
                ));
            }
        }
        let tee = Tee::new(opts.tee_kind, GUEST_PAGES, opts.cost.clone());
        let clock = tee.clock().clone();
        let meter = tee.meter().clone();
        let mem = tee.memory().clone();
        let recorder = Recorder::new();
        let telemetry = Telemetry::with_arming(&clock, opts.queues, opts.telemetry, opts.observe);
        telemetry.attach_meter(&meter);
        let watchdog = opts
            .observe
            .then(|| SloWatchdog::new(SloConfig::default(), opts.queues));
        let fabric = Fabric::new(clock.clone(), opts.seed);
        let mut rng = SimRng::seed_from(opts.seed ^ 0x5EED);

        let nic_port = fabric.port(GUEST_MAC, FABRIC_MTU);
        let peer_port = fabric.port(PEER_MAC, FABRIC_MTU);
        fabric.connect(&nic_port, &peer_port, opts.link)?;

        let mut anatomy = Anatomy::default();
        let mut tee = tee;
        let mut layout =
            GuestLayoutAlloc::new(GuestAddr(0), GuestAddr((GUEST_PAGES * PAGE_SIZE) as u64));

        let (guest, backend, mut peer) = match kind {
            BoundaryKind::L5Host => {
                let svc = L5Service::new(
                    nic_port,
                    InterfaceConfig::new(GUEST_IP),
                    clock.clone(),
                    recorder.clone(),
                );
                let peer = SecurePeer::new(
                    peer_port,
                    PEER_IP,
                    clock.clone(),
                    opts.app_tls,
                    opts.seed ^ 1,
                );
                (
                    Guest::L5 { svc },
                    Box::new(NullBackend) as Box<dyn Backend>,
                    PeerNode::Direct(peer),
                )
            }

            BoundaryKind::L2VirtioUnhardened | BoundaryKind::L2VirtioHardened => {
                let hardened = kind == BoundaryKind::L2VirtioHardened;
                let qsize: u16 = 128;
                let stride: u32 = 2048;

                let tx_q = layout.alloc_pages(2)?;
                let rx_q = layout.alloc_pages(2)?;
                let cfg_page = layout.alloc_pages(1)?;
                mem.share_range(tx_q, 2 * PAGE_SIZE)?;
                mem.share_range(rx_q, 2 * PAGE_SIZE)?;
                mem.share_range(cfg_page, PAGE_SIZE)?;

                let tx_layout = Layout::new(tx_q, qsize)?;
                let rx_layout = Layout::new(rx_q, qsize)?;
                anatomy.virtio = Some((tx_layout, rx_layout, cfg_page));
                let cfg = ConfigSpace { base: cfg_page };
                cfg.device_init(
                    &mem.host(),
                    GUEST_MAC.0,
                    1500,
                    F_VERSION_1 | F_NET_MAC | F_NET_MTU,
                )?;

                let device: Box<dyn NetDevice> = if hardened {
                    let bounce_pages = usize::from(qsize);
                    let tx_bounce = layout.alloc_pages(bounce_pages)?;
                    let rx_bounce = layout.alloc_pages(bounce_pages)?;
                    let tx_drv = HardenedDriver::new(
                        &mem,
                        tx_layout,
                        cfg,
                        F_VERSION_1 | F_NET_MAC | F_NET_MTU,
                        tx_bounce,
                        bounce_pages,
                        meter.clone(),
                    )?;
                    let rx_drv = HardenedDriver::new(
                        &mem,
                        rx_layout,
                        cfg,
                        F_VERSION_1 | F_NET_MAC | F_NET_MTU,
                        rx_bounce,
                        bounce_pages,
                        meter.clone(),
                    )?;
                    Box::new(HardenedVirtioNetDevice::new(
                        tx_drv,
                        rx_drv,
                        u32::from(qsize) - 1,
                    )?)
                } else {
                    // Traditional VM: buffer arenas are shared memory.
                    let arena_pages = usize::from(qsize) * stride as usize / PAGE_SIZE;
                    let tx_arena = layout.alloc_pages(arena_pages)?;
                    let rx_arena = layout.alloc_pages(arena_pages)?;
                    mem.share_range(tx_arena, arena_pages * PAGE_SIZE)?;
                    mem.share_range(rx_arena, arena_pages * PAGE_SIZE)?;
                    driver_negotiate(&cfg, &mem.guest(), F_VERSION_1 | F_NET_MAC | F_NET_MTU)?;
                    let tx_drv = Driver::new(mem.guest(), tx_layout, meter.clone())?;
                    let rx_drv = Driver::new(mem.guest(), rx_layout, meter.clone())?;
                    Box::new(VirtqueueNetDevice::new(
                        tx_drv,
                        rx_drv,
                        VqArena {
                            base: tx_arena,
                            stride,
                            count: qsize,
                        },
                        VqArena {
                            base: rx_arena,
                            stride,
                            count: qsize,
                        },
                        mem.clone(),
                        GUEST_MAC,
                        cfg,
                    )?)
                };

                let iface = Interface::new(device, InterfaceConfig::new(GUEST_IP), clock.clone());
                let mut backend = VirtioNetBackend::new(
                    DeviceSide::new(mem.host(), tx_layout),
                    DeviceSide::new(mem.host(), rx_layout),
                    nic_port,
                    recorder.clone(),
                    clock.clone(),
                );
                if hardened {
                    backend.enable_rx_interrupts(opts.cost.clone(), meter.clone());
                }
                backend.set_telemetry(telemetry.clone());
                let peer = SecurePeer::new(
                    peer_port,
                    PEER_IP,
                    clock.clone(),
                    opts.app_tls,
                    opts.seed ^ 1,
                );
                (
                    Guest::Stack { iface },
                    Box::new(backend) as Box<dyn Backend>,
                    PeerNode::Direct(peer),
                )
            }

            BoundaryKind::L2CioRing | BoundaryKind::DualBoundary => {
                let (ring_cfg, dual) = (
                    World::net_ring_config(&opts),
                    kind == BoundaryKind::DualBoundary,
                );
                let (device, backend, rings) = World::build_cio_rings(
                    &mem,
                    &mut layout,
                    &ring_cfg,
                    &opts,
                    nic_port,
                    recorder.clone(),
                    clock.clone(),
                    &telemetry,
                )?;
                anatomy.cio_rings = rings.first().cloned();
                anatomy.cio_queues = rings;
                let iface = Interface::new(device, InterfaceConfig::new(GUEST_IP), clock.clone());
                let peer = SecurePeer::new(
                    peer_port,
                    PEER_IP,
                    clock.clone(),
                    opts.app_tls,
                    opts.seed ^ 1,
                );
                let guest = if dual {
                    let app = tee.compartments_mut().create("app");
                    let iostack = tee.compartments_mut().create("iostack");
                    // The I/O compartment owns every queue's rings and
                    // payload areas: the app can never dereference into
                    // them (the trusted-component-allocates arena is the
                    // only shared surface, carved out below).
                    for (txr, rxr) in &anatomy.cio_queues {
                        for r in [txr, rxr] {
                            tee.compartments_mut().assign(
                                iostack,
                                r.prod_idx_addr(),
                                r.ring_bytes(),
                            )?;
                            tee.compartments_mut().assign(
                                iostack,
                                r.payload_addr(0),
                                r.area_bytes(),
                            )?;
                        }
                    }
                    // Trusted-component-allocates arena: app-writable pages
                    // inside the I/O domain for zero-copy send (E9).
                    let arena = layout.alloc_pages(16)?;
                    tee.compartments_mut()
                        .assign_shared(app, iostack, arena, 16 * PAGE_SIZE)?;
                    let gate = tee.gate(app, iostack)?;
                    Guest::Dual {
                        iface,
                        gate,
                        app,
                        iostack,
                    }
                } else {
                    Guest::Stack { iface }
                };
                (
                    guest,
                    Box::new(backend) as Box<dyn Backend>,
                    PeerNode::Direct(peer),
                )
            }

            BoundaryKind::Tunneled => {
                // Carrier rings sized for sealed 1514-byte frames.
                let ring_cfg = RingConfig {
                    slots: 256,
                    slot_size: 16,
                    mode: DataMode::SharedArea,
                    mtu: 2048,
                    mac: GUEST_MAC.0,
                    area_size: 1 << 19,
                    notify: World::effective_notify(&opts),
                    ..RingConfig::default()
                };
                let (tx_ring, rx_ring) = World::alloc_ring_pair(&mem, &mut layout, &ring_cfg)?;
                anatomy.cio_rings = Some((tx_ring.clone(), rx_ring.clone()));
                anatomy.cio_queues = vec![(tx_ring.clone(), rx_ring.clone())];
                let mut guest_tx = Producer::new(tx_ring.clone(), mem.guest())?;
                let mut guest_rx = Consumer::new(rx_ring.clone(), mem.guest())?;
                guest_tx.set_telemetry(telemetry.clone(), 0);
                guest_rx.set_telemetry(telemetry.clone(), 0);
                let host_tx = Consumer::new(tx_ring, mem.host())?;
                let host_rx = Producer::new(rx_ring, mem.host())?;

                // Provisioned tunnel keys (deployment-time, like LightBox).
                let mut ks = [0u8; 64];
                rng.fill_bytes(&mut ks);
                let c_secret: [u8; 32] = ks[..32].try_into().expect("32 bytes");
                let s_secret: [u8; 32] = ks[32..].try_into().expect("32 bytes");
                let hooks = SimHooks {
                    clock: clock.clone(),
                    cost: opts.cost.clone(),
                    meter: meter.clone(),
                    telemetry: telemetry.clone(),
                };
                let guest_chan = Channel::from_secrets(c_secret, s_secret, true, Some(hooks));
                let gw_chan = Channel::from_secrets(c_secret, s_secret, false, None);

                let mut tunnel_dev =
                    TunnelDevice::new(guest_tx, guest_rx, guest_chan, GUEST_MAC, 1500);
                tunnel_dev.set_copy_policy(opts.copy_policy);
                tunnel_dev.set_batch_policy(opts.batch);
                let device: Box<dyn NetDevice> = Box::new(tunnel_dev);
                let iface = Interface::new(device, InterfaceConfig::new(GUEST_IP), clock.clone());
                let mut backend = CioNetBackend::single(
                    host_tx,
                    host_rx,
                    nic_port,
                    recorder.clone(),
                    clock.clone(),
                );
                backend.opaque = true;
                backend.set_copy_policy(opts.copy_policy);
                backend.set_batch_policy(opts.batch);
                backend.set_notify_policy(opts.notify_policy);
                backend.set_telemetry(telemetry.clone());

                let (gw_side, peer_side) = PairDevice::pair([PEER_MAC, PEER_MAC], 1500);
                let gw = TunnelGateway::new(gw_chan, gw_side);
                let peer = SecurePeer::new(
                    peer_side,
                    PEER_IP,
                    clock.clone(),
                    opts.app_tls,
                    opts.seed ^ 1,
                );
                (
                    Guest::Stack { iface },
                    Box::new(backend) as Box<dyn Backend>,
                    PeerNode::Tunnel {
                        gw_port: peer_port,
                        gw,
                        peer,
                    },
                )
            }

            BoundaryKind::Dda => {
                const VENDOR: [u8; 32] = [0x11; 32];
                const FW: &[u8] = b"cio-nic-firmware-v1";
                let device_model = if opts.dda_tamper {
                    Device::two_faced(FW, VENDOR)
                } else {
                    Device::honest(FW, VENDOR)
                };
                let mut nonce = [0u8; 32];
                rng.fill_bytes(&mut nonce);
                let att = spdm_attest(
                    &device_model,
                    &VENDOR,
                    &cio_tee::attest::Measurement::of(FW),
                    nonce,
                    &clock,
                    &opts.cost,
                    &meter,
                )?;
                // The device's own session-key derivation happens on the
                // device, not on guest cycles: charge nothing for it.
                let mut dev_cost = opts.cost.clone();
                dev_cost.spdm_round = Cycles::ZERO;
                let att2 = spdm_attest(
                    &device_model,
                    &VENDOR,
                    &cio_tee::attest::Measurement::of(FW),
                    nonce,
                    &clock,
                    &dev_cost,
                    &Meter::new(),
                )?;
                let tee_end = IdeChannel::new(att, clock.clone(), opts.cost.clone(), meter.clone());
                let dev_end = IdeChannel::new(
                    att2,
                    clock.clone(),
                    CostModel::free_transitions(),
                    Meter::new(),
                );
                let mut ide_dev = IdeNetDevice::new(
                    tee_end,
                    dev_end,
                    nic_port,
                    recorder.clone(),
                    GUEST_MAC,
                    1500,
                );
                ide_dev.tamper_after_attestation = opts.dda_tamper;
                let iface = Interface::new(
                    Box::new(ide_dev) as Box<dyn NetDevice>,
                    InterfaceConfig::new(GUEST_IP),
                    clock.clone(),
                );
                let peer = SecurePeer::new(
                    peer_port,
                    PEER_IP,
                    clock.clone(),
                    opts.app_tls,
                    opts.seed ^ 1,
                );
                (
                    Guest::Stack { iface },
                    Box::new(NullBackend) as Box<dyn Backend>,
                    PeerNode::Direct(peer),
                )
            }
        };

        match &mut peer {
            PeerNode::Direct(p) => {
                p.set_telemetry(telemetry.clone());
                p.set_batch_policy(opts.batch);
                p.set_rekey_interval(opts.rekey_interval);
            }
            PeerNode::Tunnel { peer, .. } => {
                peer.set_telemetry(telemetry.clone());
                peer.set_batch_policy(opts.batch);
                peer.set_rekey_interval(opts.rekey_interval);
            }
        }
        let lanes = Lanes::new(clock.clone(), opts.queues);
        // Thread-per-queue mode: carve the cio backend into a steering
        // coordinator plus per-queue workers on persistent OS threads.
        let mut backend = backend;
        let parallel = if opts.parallel > 0 {
            let taken = std::mem::replace(&mut backend, Box::new(NullBackend) as Box<dyn Backend>);
            let Ok(cio) = taken.into_any().downcast::<CioNetBackend>() else {
                return Err(CioError::Fatal(
                    "parallel host execution needs a cio-ring backend",
                ));
            };
            Some(ParallelHost::new(*cio, opts.parallel, &mem, &telemetry)?)
        } else {
            None
        };
        // One session-table shard per dataplane queue: a session's shard
        // IS its RSS lane, so steering and lookup agree by construction.
        let session_shards = opts.queues;
        Ok(World {
            kind,
            opts,
            clock,
            meter,
            recorder,
            tee,
            guest,
            backend,
            peer,
            conns: SessionTable::new(session_shards),
            draining: Vec::new(),
            flush_ids: Vec::new(),
            rng,
            anatomy,
            layout,
            lanes,
            seal_scratch: RecordScratch::new(),
            recv_scratch: Vec::new(),
            telemetry,
            watchdog,
            parallel,
        })
    }
}

impl World {
    /// Starts building a world for the given boundary design with default
    /// options.
    pub fn builder(kind: BoundaryKind) -> WorldBuilder {
        WorldBuilder {
            kind,
            opts: WorldOptions::default(),
        }
    }

    /// Builds a world for the given boundary design — a thin wrapper over
    /// [`World::builder`] for callers that already hold a full
    /// [`WorldOptions`].
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] for configuration errors; transport errors
    /// during setup.
    pub fn new(kind: BoundaryKind, opts: WorldOptions) -> Result<World, CioError> {
        World::builder(kind).options(opts).build()
    }

    /// The ring-level notification mode implied by the option pair: a
    /// non-`Always` policy upgrades doorbell rings to event-idx
    /// suppression; polling worlds are untouched (byte-identical no
    /// matter the policy).
    fn effective_notify(opts: &WorldOptions) -> NotifyMode {
        match (opts.notify, opts.notify_policy) {
            (NotifyMode::Polling, _) => NotifyMode::Polling,
            (NotifyMode::Doorbell, NotifyPolicy::Always) => NotifyMode::Doorbell,
            (NotifyMode::Doorbell, _) | (NotifyMode::EventIdx, _) => NotifyMode::EventIdx,
        }
    }

    fn net_ring_config(opts: &WorldOptions) -> RingConfig {
        if opts.recv_mode == RecvMode::Revoke {
            RingConfig {
                slots: 64,
                slot_size: 16,
                mode: DataMode::SharedArea,
                mtu: 1514,
                mac: GUEST_MAC.0,
                area_size: 64 * PAGE_SIZE as u32,
                page_aligned_payloads: true,
                notify: Self::effective_notify(opts),
                ..RingConfig::default()
            }
        } else {
            RingConfig {
                slots: 256,
                slot_size: 16,
                mode: DataMode::SharedArea,
                mtu: 1514,
                mac: GUEST_MAC.0,
                area_size: 1 << 19,
                notify: Self::effective_notify(opts),
                ..RingConfig::default()
            }
        }
    }

    fn alloc_ring_pair(
        mem: &GuestMemory,
        layout: &mut GuestLayoutAlloc,
        cfg: &RingConfig,
    ) -> Result<(CioRing, CioRing), CioError> {
        let mk = |mem: &GuestMemory, layout: &mut GuestLayoutAlloc| -> Result<CioRing, CioError> {
            let ring_pages = cfg.slots as usize * cfg.slot_size as usize / PAGE_SIZE + 1;
            let ring_base = layout.alloc_pages(ring_pages)?;
            let area_pages = cfg.area_size as usize / PAGE_SIZE;
            let area_base = layout.alloc_pages(area_pages.max(1))?;
            let ring = CioRing::new(cfg.clone(), ring_base, area_base)?;
            mem.share_range(ring_base, ring.ring_bytes())?;
            if ring.area_bytes() > 0 {
                mem.share_range(area_base, ring.area_bytes())?;
            }
            Ok(ring)
        };
        Ok((mk(mem, layout)?, mk(mem, layout)?))
    }

    #[allow(clippy::too_many_arguments)] // internal builder plumbing
    fn build_cio_rings(
        mem: &GuestMemory,
        layout: &mut GuestLayoutAlloc,
        cfg: &RingConfig,
        opts: &WorldOptions,
        nic_port: FabricPort,
        recorder: Recorder,
        clock: Clock,
        telemetry: &Telemetry,
    ) -> Result<CioRingParts, CioError> {
        let mut rings = Vec::with_capacity(opts.queues);
        let mut guest_pairs = Vec::with_capacity(opts.queues);
        let mut host_pairs = Vec::with_capacity(opts.queues);
        for q in 0..opts.queues {
            let (tx_ring, rx_ring) = Self::alloc_ring_pair(mem, layout, cfg)?;
            let mut guest_tx = Producer::new(tx_ring.clone(), mem.guest())?;
            let mut guest_rx = Consumer::new(rx_ring.clone(), mem.guest())?;
            guest_tx.set_telemetry(telemetry.clone(), q);
            guest_rx.set_telemetry(telemetry.clone(), q);
            guest_pairs.push((guest_tx, guest_rx));
            host_pairs.push((
                Consumer::new(tx_ring.clone(), mem.host())?,
                Producer::new(rx_ring.clone(), mem.host())?,
            ));
            rings.push((tx_ring, rx_ring));
        }
        let mut dev = CioRingDevice::new(guest_pairs, mem.clone(), opts.send_mode, opts.recv_mode)?;
        dev.set_batch_policy(opts.batch);
        let device = Box::new(dev) as Box<dyn NetDevice>;
        let mut backend = CioNetBackend::new(host_pairs, nic_port, recorder, clock)?;
        backend.set_copy_policy(opts.copy_policy);
        backend.set_batch_policy(opts.batch);
        backend.set_notify_policy(opts.notify_policy);
        backend.set_telemetry(telemetry.clone());
        Ok((device, backend, rings))
    }

    /// Layout facts for the adversary harness.
    pub fn anatomy(&self) -> &Anatomy {
        &self.anatomy
    }

    /// The boundary design of this world.
    pub fn kind(&self) -> BoundaryKind {
        self.kind
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The host-observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.opts.cost
    }

    /// The TEE (compartment/attestation access for tests).
    pub fn tee(&self) -> &Tee {
        &self.tee
    }

    /// The host device backend. Callers that need a concrete model
    /// (adversary harness, per-queue meters) downcast through
    /// [`Backend::as_any_mut`]:
    ///
    /// ```ignore
    /// let b = world
    ///     .backend_mut()
    ///     .as_any_mut()
    ///     .downcast_mut::<cio_host::CioNetBackend>();
    /// ```
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        &mut *self.backend
    }

    /// Dataplane queue count.
    pub fn queues(&self) -> usize {
        self.opts.queues
    }

    /// Host worker threads (`0` when host servicing runs on the stepping
    /// thread).
    pub fn parallel_threads(&self) -> usize {
        self.parallel.as_ref().map_or(0, ParallelHost::threads)
    }

    /// Per-queue traffic meter snapshots when the parallel host runs
    /// (index = queue id; empty in serial mode, where the backend's
    /// [`cio_host::CioNetBackend::queue_meter`] serves the same role).
    pub fn parallel_queue_meters(&self) -> Vec<cio_sim::MeterSnapshot> {
        self.parallel
            .as_ref()
            .map_or_else(Vec::new, ParallelHost::queue_meters)
    }

    /// Total empty host service passes burned by the adaptive notify
    /// controllers while hot (`NotifyPolicy::Adaptive`; `0` otherwise).
    /// E23's zero-load gate bounds this: at zero offered load, idle spin
    /// must stop within the controllers' idle budget instead of growing
    /// with wall time.
    pub fn notify_idle_passes(&mut self) -> u64 {
        if let Some(p) = &self.parallel {
            return p.idle_passes();
        }
        self.backend
            .as_any_mut()
            .downcast_mut::<CioNetBackend>()
            .map_or(0, |b| b.idle_passes())
    }

    /// The observation domain. [`WorldBuilder::telemetry`] arms its
    /// instruments ([`cio_sim::Profile`] tables, histograms, exporter
    /// snapshots), [`WorldBuilder::observe`] its timeline (typed events,
    /// audit-chain records, their exporters); with neither it is a
    /// disabled, inert handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The online SLO watchdog, when [`WorldBuilder::observe`] armed it
    /// (breach counts and configuration; the pump runs inside
    /// [`World::step`]).
    pub fn watchdog(&self) -> Option<&SloWatchdog> {
        self.watchdog.as_ref()
    }

    /// Renders the merged Chrome-trace timeline (typed events as
    /// instants, cycle attribution as counters) — loadable in
    /// `chrome://tracing` / Perfetto.
    pub fn chrome_trace(&self) -> String {
        self.telemetry.chrome_trace()
    }

    /// The RSS lane / queue this session's flow steers to (`None` for a
    /// stale or forged handle).
    pub fn conn_lane(&self, c: SessionId) -> Option<usize> {
        self.conns.get(c).ok().map(|s| s.lane)
    }

    /// A snapshot of the session-table's own bookkeeping. The
    /// direct-mapped table satisfies `probes == lookups` by construction,
    /// and `capacity` stays bounded by peak concurrency under churn —
    /// both are assertable from here.
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            live: self.conns.live(),
            peak_live: self.conns.peak_live(),
            capacity: self.conns.capacity(),
            created: self.conns.created(),
            reclaimed: self.conns.reclaimed(),
            lookups: self.conns.lookups(),
            probes: self.conns.probes(),
        }
    }

    /// TCP socket slots still draining toward release (diagnostic: zero
    /// once every closed session's connection has fully torn down).
    pub fn draining_sockets(&self) -> usize {
        self.draining.len()
    }

    /// The session's transmit-direction key epoch: `0` until the first
    /// rotation, advancing at every [`WorldOptions::rekey_interval`]
    /// boundary. `None` for stale handles, plaintext streams, and
    /// handshakes still in flight.
    pub fn session_epoch(&self, c: SessionId) -> Option<u64> {
        self.conns.get(c).ok().and_then(|s| s.stream.tx_epoch())
    }

    /// Guest memory (adversary harness).
    pub fn guest_memory(&self) -> &GuestMemory {
        self.tee.memory()
    }

    /// The dual boundary's (app, iostack) compartment ids, when present.
    pub fn dual_compartments(&self) -> Option<(cio_tee::CompartmentId, cio_tee::CompartmentId)> {
        match &self.guest {
            Guest::Dual { app, iostack, .. } => Some((*app, *iostack)),
            _ => None,
        }
    }

    /// Hot-swaps the network device (§3.2: "devices can be hot-swapped"):
    /// fresh rings are built with the *same fixed configuration* — there
    /// is nothing to renegotiate — and attached to the same link. Frames
    /// in flight in the old rings are lost; TCP recovers them.
    ///
    /// # Errors
    ///
    /// [`CioError::Unsupported`] for designs without a swappable cio-ring
    /// device.
    pub fn hot_swap_device(&mut self) -> Result<(), CioError> {
        if !matches!(
            self.kind,
            BoundaryKind::L2CioRing | BoundaryKind::DualBoundary
        ) {
            return Err(CioError::Unsupported(
                "hot swap is implemented for the cio-ring designs",
            ));
        }
        if self.parallel.is_some() {
            // Live worker threads hold the old rings; swapping under them
            // would strand a round mid-flight. Quiesce-and-swap is future
            // work; for now the two features are mutually exclusive.
            return Err(CioError::Unsupported(
                "hot swap is not available while the parallel host runs",
            ));
        }
        let old = std::mem::replace(&mut self.backend, Box::new(NullBackend));
        let Ok(old) = old.into_any().downcast::<CioNetBackend>() else {
            return Err(CioError::Unsupported("no cio backend present"));
        };
        let port = old.into_port();
        let mem = self.tee.memory().clone();
        let ring_cfg = Self::net_ring_config(&self.opts);
        let (device, backend, rings) = Self::build_cio_rings(
            &mem,
            &mut self.layout,
            &ring_cfg,
            &self.opts,
            port,
            self.recorder.clone(),
            self.clock.clone(),
            &self.telemetry,
        )?;
        self.anatomy.cio_rings = rings.first().cloned();
        self.anatomy.cio_queues = rings;
        // The dual boundary's I/O compartment owns the replacement rings
        // exactly like the originals.
        if let Guest::Dual { iostack, .. } = &self.guest {
            let iostack = *iostack;
            for (txr, rxr) in &self.anatomy.cio_queues {
                for r in [txr.clone(), rxr.clone()] {
                    self.tee.compartments_mut().assign(
                        iostack,
                        r.prod_idx_addr(),
                        r.ring_bytes(),
                    )?;
                    self.tee.compartments_mut().assign(
                        iostack,
                        r.payload_addr(0),
                        r.area_bytes(),
                    )?;
                }
            }
        }
        match &mut self.guest {
            Guest::Stack { iface } | Guest::Dual { iface, .. } => {
                *iface.device_mut() = device;
            }
            Guest::L5 { .. } => unreachable!("kind checked above"),
        }
        self.backend = Box::new(backend);
        Ok(())
    }

    /// Advances the whole world one scheduling round.
    ///
    /// With one queue this is strictly serial (byte-identical to the
    /// historical single-ring schedule). With `queues > 1` each queue's
    /// guest poll, host servicing, and connection flushing run on that
    /// queue's [`Lanes`] lane, so concurrent flows progress in parallel
    /// virtual time under the one shared clock.
    ///
    /// # Errors
    ///
    /// Propagates fatal transport errors (adversarial corruption surfaces
    /// as detected violations, not errors, unless the design cannot
    /// contain it).
    pub fn step(&mut self) -> Result<(), CioError> {
        let result = if self.parallel.is_some() {
            self.step_parallel()
        } else if self.opts.queues > 1 {
            self.step_multiqueue()
        } else {
            self.step_serial()
        };
        // Session housekeeping runs every round regardless of schedule:
        // fully-drained sockets release their slots, and the per-shard
        // session gauges publish (a no-op on a disabled telemetry handle).
        self.release_drained();
        self.telemetry.publish_sessions(
            self.conns.shard_live(),
            self.conns.shard_peak(),
            self.conns.created(),
            self.conns.reclaimed(),
            self.conns.capacity() as u64,
        );
        // The SLO watchdog consumes the telemetry RTT histograms
        // incrementally; it runs after lane absorption so parallel and
        // serial schedules see identical cumulative bucket states.
        if let Some(w) = &mut self.watchdog {
            w.pump(&self.telemetry, &self.meter, self.clock.now());
        }
        result
    }

    /// Releases the netstack slot (and ephemeral port) of every closed
    /// session whose TCP connection has fully drained; handles that have
    /// not quiesced yet stay queued for later rounds. For the in-TEE
    /// stacks release is local socket bookkeeping (nothing charged); on
    /// the L5 design the stack is host software, so even this freeing
    /// call is an observable world switch.
    fn release_drained(&mut self) {
        let mut i = 0;
        while i < self.draining.len() {
            let h = self.draining[i];
            let released = match &mut self.guest {
                Guest::Stack { iface } | Guest::Dual { iface, .. } => iface.tcp_release(h).is_ok(),
                Guest::L5 { svc } => {
                    self.tee.exit_to_host();
                    svc.release(h).is_ok()
                }
            };
            if released {
                self.draining.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn step_serial(&mut self) -> Result<(), CioError> {
        let t0 = self.clock.now();
        {
            let _poll = self.telemetry.span(0, Stage::GuestPoll);
            match &mut self.guest {
                Guest::Stack { iface } | Guest::Dual { iface, .. } => {
                    ring_full_is_backpressure(iface.poll())?;
                }
                Guest::L5 { svc } => {
                    svc.poll()?;
                }
            }
        }
        if matches!(
            self.kind,
            BoundaryKind::L2VirtioUnhardened | BoundaryKind::L2VirtioHardened
        ) {
            self.backend.process()?;
        } else {
            // The adversary may have wedged a cio ring; detected violations
            // surface on the meter, and the world keeps stepping.
            let _ = self.backend.process();
        }
        {
            let _peer = self.telemetry.span(0, Stage::Peer);
            self.poll_peer();
        }
        // Flush any protocol bytes produced by stream processing.
        self.flush_outboxes()?;
        if self.clock.now() == t0 {
            self.clock.advance(self.opts.step_quantum);
            self.telemetry
                .attribute(0, Stage::Idle, self.opts.step_quantum);
        }
        Ok(())
    }

    /// The multi-queue schedule (cio-ring designs only): each queue is one
    /// virtual core on both sides of the boundary. Guest poll and host
    /// servicing for queue `q` accumulate on lane `q`; a barrier then
    /// advances the shared clock by the busiest lane — the wall-clock of
    /// `n` cores finishing the round in parallel. Peer servicing charges
    /// no guest cycles (the fabric models latency by timestamp), so it
    /// runs between barriers.
    fn step_multiqueue(&mut self) -> Result<(), CioError> {
        let t0 = self.clock.now();
        self.poll_guest_queues()?;
        // Fabric ingress steers frames to queues without charging guest
        // cycles; per-queue servicing then runs on the queue's lane.
        self.backend.ingress();
        let nq = self.opts.queues;
        for q in 0..self.backend.queue_count() {
            let base = self.lanes.begin(q % nq);
            let serviced = self.backend.service_queue(q);
            self.lanes.end(q % nq, base);
            // Multi-queue is cio-ring only: a wedged ring surfaces on the
            // meter and the world keeps stepping.
            let _ = serviced;
        }
        self.finish_lane_round(t0)
    }

    /// The thread-per-queue schedule: the guest side and round epilogue
    /// are exactly [`World::step_multiqueue`]'s; host ingress and
    /// per-queue servicing are one [`ParallelHost::round`] — every queue
    /// dispatched to its owning worker thread, then folded back (lane
    /// time, stamped transmissions, telemetry) in ascending queue order,
    /// so the round is record-for-record identical to the serial sweep
    /// while the servicing itself overlaps in wall clock.
    fn step_parallel(&mut self) -> Result<(), CioError> {
        let t0 = self.clock.now();
        self.poll_guest_queues()?;
        let mut host = self.parallel.take().expect("parallel mode");
        let round = host.round(&mut self.lanes, &self.telemetry, &self.clock);
        self.parallel = Some(host);
        round?;
        self.finish_lane_round(t0)
    }

    /// The per-queue guest-poll sweep shared by the lane-based schedules:
    /// each queue's receive path runs on that queue's lane.
    fn poll_guest_queues(&mut self) -> Result<(), CioError> {
        for q in 0..self.opts.queues {
            let base = self.lanes.begin(q);
            // The span lives strictly inside the lane region, where the
            // clock is positioned at this lane's local frontier.
            let polled = {
                let _poll = self.telemetry.span(q, Stage::GuestPoll);
                match &mut self.guest {
                    Guest::Stack { iface } | Guest::Dual { iface, .. } => {
                        iface.device_mut().select_rx_queue(Some(q));
                        let r = ring_full_is_backpressure(iface.poll());
                        iface.device_mut().select_rx_queue(None);
                        r
                    }
                    Guest::L5 { svc } => svc.poll(),
                }
            };
            self.lanes.end(q, base);
            polled?;
        }
        Ok(())
    }

    /// The lane-based round epilogue: peer servicing, per-connection
    /// flushing on each connection's lane, the lane barrier, and the
    /// idle quantum.
    fn finish_lane_round(&mut self, t0: Cycles) -> Result<(), CioError> {
        {
            let _peer = self.telemetry.span(0, Stage::Peer);
            self.poll_peer();
        }
        // Sweep live sessions in deterministic (shard, slot) order through
        // a reusable id buffer — a quarantine mid-sweep removes the
        // session, and later ids simply skip the vacated slot.
        let mut ids = std::mem::take(&mut self.flush_ids);
        ids.clear();
        self.conns.collect_ids(&mut ids);
        let mut result = Ok(());
        for &id in &ids {
            let Ok(s) = self.conns.get(id) else { continue };
            let lane = s.lane;
            let base = self.lanes.begin(lane);
            let flushed = self.flush_conn(id);
            self.lanes.end(lane, base);
            if let Err(e) = flushed {
                result = Err(e);
                break;
            }
        }
        self.flush_ids = ids;
        result?;
        self.lanes.sync();
        if self.clock.now() == t0 {
            self.clock.advance(self.opts.step_quantum);
            self.telemetry
                .attribute(0, Stage::Idle, self.opts.step_quantum);
        }
        Ok(())
    }

    fn poll_peer(&mut self) {
        match &mut self.peer {
            PeerNode::Direct(p) => p.poll(),
            PeerNode::Tunnel { gw_port, gw, peer } => {
                while let Some(blob) = gw_port.receive() {
                    gw.ingress(&blob);
                }
                gw.egress_each(|blob| {
                    let _ = gw_port.transmit(blob);
                });
                peer.poll();
            }
        }
    }

    /// Runs `n` steps.
    ///
    /// # Errors
    ///
    /// As [`World::step`].
    pub fn run(&mut self, n: usize) -> Result<(), CioError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    // ---------- Transport plumbing (per-design charging) ----------

    fn raw_send(&mut self, handle: SocketHandle, bytes: &[u8]) -> Result<(), CioError> {
        if bytes.is_empty() {
            return Ok(());
        }
        match &mut self.guest {
            Guest::Stack { iface } => {
                iface.tcp_send(handle, bytes)?;
            }
            Guest::Dual { iface, gate, .. } => {
                // Trusted-component-allocates zero-copy send (E9) needs
                // both the zero-copy option and an in-place copy policy;
                // otherwise the app→stack payload copy is charged.
                if self.opts.l5_app_copy || !self.opts.copy_policy.allows_in_place() {
                    let cost = self.opts.cost.copy(bytes.len());
                    self.clock.advance(cost);
                    self.meter.copies(1);
                    self.meter.bytes_copied(bytes.len() as u64);
                } else {
                    self.meter.bytes_zero_copy(bytes.len() as u64);
                }
                gate.call(|| iface.tcp_send(handle, bytes))?;
            }
            Guest::L5 { svc } => {
                // World switch plus marshalling: the payload is copied
                // through an untrusted exchange buffer on every call.
                let _exit = self.telemetry.span(0, Stage::HostExit);
                self.tee.exit_to_host();
                self.clock.advance(self.opts.cost.copy(bytes.len()));
                self.meter.copies(1);
                self.meter.bytes_copied(bytes.len() as u64);
                svc.send(handle, bytes)?;
            }
        }
        Ok(())
    }

    /// Appends whatever the stack has received on `handle` to `out`.
    fn raw_recv_into(&mut self, handle: SocketHandle, out: &mut Vec<u8>) -> Result<(), CioError> {
        match &mut self.guest {
            Guest::Stack { iface } => {
                iface.tcp_recv_into(handle, out)?;
            }
            Guest::Dual { iface, gate, .. } => {
                gate.call(|| iface.tcp_recv_into(handle, out))?;
            }
            Guest::L5 { svc } => {
                let _exit = self.telemetry.span(0, Stage::HostExit);
                self.tee.exit_to_host();
                let data = svc.recv(handle, usize::MAX)?;
                if !data.is_empty() {
                    self.clock.advance(self.opts.cost.copy(data.len()));
                    self.meter.copies(1);
                    self.meter.bytes_copied(data.len() as u64);
                }
                out.extend_from_slice(&data);
            }
        }
        Ok(())
    }

    fn raw_established(&mut self, handle: SocketHandle) -> Result<bool, CioError> {
        Ok(match &mut self.guest {
            Guest::Stack { iface } => iface.tcp_established(handle)?,
            Guest::Dual { iface, gate, .. } => gate.call(|| iface.tcp_established(handle))?,
            Guest::L5 { svc } => {
                self.tee.exit_to_host();
                svc.established(handle)?
            }
        })
    }

    // ---------- Application API ----------

    /// Opens a session to the peer service on `port` ([`ECHO_PORT`] or
    /// [`RPC_PORT`]). With `app_tls` the cTLS handshake starts as soon as
    /// TCP establishes; use [`World::establish`] to drive it.
    ///
    /// The returned [`SessionId`] is generational: it stays valid until
    /// [`World::close`] (or a fail-closed quarantine) reclaims the slot,
    /// after which every use returns [`CioError::Session`] — a reissued
    /// slot is unreachable through a stale handle.
    ///
    /// # Errors
    ///
    /// Stack/transport errors.
    pub fn connect(&mut self, port: u16) -> Result<SessionId, CioError> {
        let handle = match &mut self.guest {
            Guest::Stack { iface } => iface.tcp_connect(PEER_IP, port)?,
            Guest::Dual { iface, gate, .. } => gate.call(|| iface.tcp_connect(PEER_IP, port))?,
            Guest::L5 { svc } => {
                self.tee.exit_to_host();
                svc.connect(PEER_IP, port)?
            }
        };
        let (outbox, stream) = if self.opts.app_tls {
            let mut entropy = [0u8; 64];
            self.rng.fill_bytes(&mut entropy);
            let hooks = SimHooks {
                clock: self.clock.clone(),
                cost: self.opts.cost.clone(),
                meter: self.meter.clone(),
                telemetry: self.telemetry.clone(),
            };
            let (hello, mut stream) = SecureStream::client(entropy, Some(hooks));
            stream.set_batch_policy(self.opts.batch);
            stream.set_rekey_interval(self.opts.rekey_interval);
            (hello, stream)
        } else {
            let mut stream = SecureStream::plain();
            stream.set_batch_policy(self.opts.batch);
            (Vec::new(), stream)
        };
        // The connection's lane is its RSS queue: the same symmetric hash
        // the device and backend steer with, so all of this flow's work
        // lands on one virtual core.
        let lane = if self.opts.queues > 1 {
            match &mut self.guest {
                Guest::Stack { iface } | Guest::Dual { iface, .. } => {
                    let local_port = iface.tcp_local_port(handle)?;
                    let hash = rss::flow_hash((GUEST_IP, local_port), (PEER_IP, port));
                    (hash as usize) & (self.opts.queues - 1)
                }
                Guest::L5 { .. } => 0,
            }
        } else {
            0
        };
        // The session's shard is its lane: insert issues the generational
        // handle and the lane is recoverable from the handle's low bits.
        let id = self.conns.insert(
            lane,
            ConnState {
                handle,
                stream,
                outbox,
                app_in: Vec::new(),
                feed_scratch: FeedResult::default(),
                lane,
                epoch_seen: 0,
            },
        );
        self.meter.sessions_opened(1);
        self.telemetry
            .record(lane, EventKind::SessionOpen, sid_bits(id), 0);
        Ok(id)
    }

    fn conn_mut(&mut self, c: SessionId) -> Result<&mut ConnState, CioError> {
        Ok(self.conns.get_mut(c)?)
    }

    /// Fail-closed per-session teardown: a hostile or corrupt record on
    /// one stream kills *that session* — the slot is reclaimed, the TCP
    /// connection begins draining, and the failure is metered — while
    /// every other session on the shard keeps running. The stale handle
    /// then answers [`SessionError::Closed`] instead of touching a
    /// reissued slot.
    fn quarantine(&mut self, id: SessionId) {
        if let Ok(conn) = self.conns.remove(id) {
            let _ = self.raw_close(conn.handle);
            self.draining.push(conn.handle);
            self.meter.session_failures(1);
            self.telemetry
                .record(conn.lane, EventKind::SessionQuarantine, sid_bits(id), 0);
        }
    }

    /// Pumps received bytes through one session's stream and flushes its
    /// pending protocol bytes. A stream-layer failure (bad tag, broken
    /// handshake) quarantines the session instead of failing the world's
    /// step: per-session fail-closed, not fail-everything.
    fn flush_conn(&mut self, id: SessionId) -> Result<(), CioError> {
        let Ok(conn) = self.conns.get(id) else {
            return Ok(()); // closed earlier in this same round
        };
        let (lane, handle) = (conn.lane, conn.handle);
        let has_outbox = !conn.outbox.is_empty();
        let _flush = self.telemetry.span(lane, Stage::AppFlush);
        // Only push protocol bytes once TCP is up.
        if has_outbox && self.raw_established(handle)? {
            let mut out = match self.conns.get_mut(id) {
                Ok(conn) => std::mem::take(&mut conn.outbox),
                Err(_) => return Ok(()),
            };
            self.raw_send(handle, &out)?;
            // Hand the drained buffer back so steady-state flushing
            // reuses its capacity instead of reallocating every round.
            out.clear();
            if let Ok(conn) = self.conns.get_mut(id) {
                conn.outbox = out;
            }
        }
        // Read into the world's reusable scratch (taken for the duration
        // so the borrow checker sees a local): a steady-state flush
        // allocates nothing per connection.
        let mut data = std::mem::take(&mut self.recv_scratch);
        data.clear();
        let received = self.raw_recv_into(handle, &mut data);
        if received.is_ok() && !data.is_empty() {
            self.feed_conn(id, lane, &data);
        }
        self.recv_scratch = data;
        received
    }

    /// Feeds bytes received on `id` through its stream, quarantining the
    /// session if the stream rejects them.
    fn feed_conn(&mut self, id: SessionId, lane: usize, data: &[u8]) {
        let healthy = {
            let Ok(conn) = self.conns.get_mut(id) else {
                return;
            };
            let was_handshaking = conn.stream.is_handshaking();
            let _open = self.telemetry.span(lane, Stage::RxOpen);
            match conn.stream.feed_into(data, &mut conn.feed_scratch) {
                Ok(()) => {
                    if was_handshaking && conn.stream.is_open() {
                        self.telemetry
                            .record(lane, EventKind::HandshakeOk, sid_bits(id), 0);
                    }
                    if !conn.feed_scratch.app_data.is_empty() {
                        self.telemetry.record(
                            lane,
                            EventKind::OpenOk,
                            conn.feed_scratch.app_data.len() as u64,
                            0,
                        );
                    }
                    if let Some(ep) = conn.stream.tx_epoch() {
                        if ep > conn.epoch_seen {
                            conn.epoch_seen = ep;
                            self.telemetry
                                .record(lane, EventKind::SessionRekey, sid_bits(id), ep);
                        }
                    }
                    conn.app_in.extend_from_slice(&conn.feed_scratch.app_data);
                    conn.outbox.extend_from_slice(&conn.feed_scratch.to_send);
                    true
                }
                Err(_) => {
                    // A broken handshake and a bad record on an open
                    // stream are different forensic facts; both are
                    // security events and land in the audit chain.
                    let kind = if was_handshaking {
                        EventKind::HandshakeFail
                    } else {
                        EventKind::OpenFail
                    };
                    self.telemetry.record(lane, kind, sid_bits(id), 0);
                    false
                }
            }
        };
        if !healthy {
            self.quarantine(id);
        }
    }

    /// Serial flush over all sessions (single-queue path), in the same
    /// deterministic (shard, slot) order the lane-based sweep uses.
    fn flush_outboxes(&mut self) -> Result<(), CioError> {
        let mut ids = std::mem::take(&mut self.flush_ids);
        ids.clear();
        self.conns.collect_ids(&mut ids);
        let mut result = Ok(());
        for &id in &ids {
            if let Err(e) = self.flush_conn(id) {
                result = Err(e);
                break;
            }
        }
        self.flush_ids = ids;
        result
    }

    /// Drives the world until the session is fully established (TCP +
    /// cTLS when enabled).
    ///
    /// # Errors
    ///
    /// [`CioError::Timeout`] after `max_steps`;
    /// [`CioError::Session`]`(`[`SessionError::Closed`]`)` if a hostile
    /// host poisoned the handshake and the session was quarantined
    /// mid-establishment (fail closed, never half-open).
    pub fn establish(&mut self, c: SessionId, max_steps: usize) -> Result<(), CioError> {
        for _ in 0..max_steps {
            self.step()?;
            let handle = self.conns.get(c)?.handle;
            let tcp_up = self.raw_established(handle)?;
            let s = self.conns.get(c)?;
            if tcp_up && s.stream.is_open() && s.outbox.is_empty() {
                return Ok(());
            }
        }
        Err(CioError::Timeout("connection establishment"))
    }

    /// Sends application data (sealed when cTLS is on); returns the bytes
    /// accepted.
    ///
    /// Backpressure is *not* a fault: when the connection's unsent backlog
    /// is over the high-water mark the call returns
    /// [`CioError::Transient`]`(`[`Transient::WouldBlock`]`)` with nothing
    /// consumed — step the world and retry. A device ring that fills
    /// mid-write is not even that: TCP already holds the sealed record and
    /// flushes it on later steps, so the call reports the bytes as
    /// accepted (retrying would duplicate them) and only the
    /// `backpressure_again` meter and a `Backpressure` timeline event show
    /// it happened. The §3.2 "errors are fatal" principle is reserved for
    /// host-facing interface faults.
    ///
    /// # Errors
    ///
    /// [`CioError::Transient`]`(`[`Transient::WouldBlock`]`)` for
    /// backpressure;
    /// [`CioError::Session`]`(`[`SessionError::Handshaking`]`)` before
    /// the handshake completes; stale handles return the other
    /// [`SessionError`] variants; stream/transport errors otherwise.
    pub fn send(&mut self, c: SessionId, data: &[u8]) -> Result<usize, CioError> {
        // One O(1) flow-table lookup opens every send: charged at the
        // cost model's `flow_lookup` and counted by the table itself.
        self.clock.advance(self.opts.cost.flow_lookup);
        let s = self.conns.get_mut(c)?;
        if s.stream.is_handshaking() {
            return Err(CioError::Session(SessionError::Handshaking));
        }
        let (handle, lane) = (s.handle, s.lane);
        // The backlog probe is the app reading its own socket bookkeeping
        // — no boundary is crossed, so nothing is charged.
        let backlog = match &mut self.guest {
            Guest::Stack { iface } | Guest::Dual { iface, .. } => iface.tcp_send_backlog(handle)?,
            Guest::L5 { .. } => 0,
        };
        if backlog > SEND_HIGH_WATER {
            self.meter.backpressure_wouldblock(1);
            self.telemetry
                .record(lane, EventKind::Backpressure, 0, backlog as u64);
            return Err(CioError::Transient(Transient::WouldBlock));
        }
        let base = (self.opts.queues > 1).then(|| self.lanes.begin(lane));
        // Seal into the world's reusable scratch (taken for the duration
        // so the borrow checker sees a local) — steady-state sends
        // allocate nothing.
        let mut scratch = std::mem::take(&mut self.seal_scratch);
        let result = {
            // Span scoped inside the lane window (clock is lane-local).
            let _send = self.telemetry.span(lane, Stage::GuestSend);
            let result = (|| {
                {
                    let _seal = self.telemetry.span(lane, Stage::TxSeal);
                    self.conn_mut(c)?.stream.seal_into(data, &mut scratch)?;
                }
                self.raw_send(handle, scratch.as_slice())
            })();
            result
        };
        self.seal_scratch = scratch;
        if let Some(base) = base {
            self.lanes.end(lane, base);
        }
        match result {
            Ok(()) => {
                self.telemetry
                    .record(lane, EventKind::SealOk, data.len() as u64, 1);
                Ok(data.len())
            }
            // A saturated device queue is backpressure, but the record is
            // accepted: TCP keeps it buffered and flushing resumes on
            // later steps.
            Err(CioError::Net(cio_netstack::NetError::DeviceFull)) => {
                self.meter.backpressure_again(1);
                self.telemetry
                    .record(lane, EventKind::Backpressure, 1, backlog as u64);
                Ok(data.len())
            }
            Err(e) => {
                self.telemetry
                    .record(lane, EventKind::SealFail, data.len() as u64, 0);
                Err(e)
            }
        }
    }

    /// Appends whatever application bytes have arrived on `c` to
    /// `scratch` without clearing it (the accumulation primitive under
    /// the receive family).
    fn drain_into(&mut self, c: SessionId, scratch: &mut SessionScratch) -> Result<(), CioError> {
        // Data may have arrived during steps; outboxes were pumped there.
        // Like `send`, the receive side opens with one charged O(1)
        // flow-table lookup.
        self.clock.advance(self.opts.cost.flow_lookup);
        let s = self.conns.get_mut(c)?;
        scratch.buf.extend_from_slice(&s.app_in);
        s.app_in.clear();
        Ok(())
    }

    /// Takes decrypted application bytes received so far into the
    /// caller's reusable scratch (cleared first); returns the byte count.
    ///
    /// This is the hot-path receive: a steady-state consumer holds one
    /// [`SessionScratch`] and neither side of the exchange allocates
    /// after warmup.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles.
    pub fn recv_into(
        &mut self,
        c: SessionId,
        scratch: &mut SessionScratch,
    ) -> Result<usize, CioError> {
        scratch.buf.clear();
        self.drain_into(c, scratch)?;
        Ok(scratch.buf.len())
    }

    /// Takes decrypted application bytes received so far.
    ///
    /// Allocating convenience over [`World::recv_into`]; hot paths should
    /// hold a [`SessionScratch`] and use the `_into` form.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles.
    pub fn recv(&mut self, c: SessionId) -> Result<Vec<u8>, CioError> {
        let mut scratch = SessionScratch::new();
        self.recv_into(c, &mut scratch)?;
        Ok(scratch.buf)
    }

    /// Drives the world until `want` application bytes arrive on `c`,
    /// accumulating into the caller's reusable scratch (cleared first);
    /// returns the byte count.
    ///
    /// # Errors
    ///
    /// [`CioError::Timeout`] after `max_steps`; [`CioError::Session`] if
    /// the session closes (or is quarantined) before `want` bytes arrive.
    pub fn recv_exact_into(
        &mut self,
        c: SessionId,
        want: usize,
        max_steps: usize,
        scratch: &mut SessionScratch,
    ) -> Result<usize, CioError> {
        scratch.buf.clear();
        for _ in 0..max_steps {
            self.drain_into(c, scratch)?;
            if scratch.buf.len() >= want {
                return Ok(scratch.buf.len());
            }
            self.step()?;
        }
        self.drain_into(c, scratch)?;
        if scratch.buf.len() >= want {
            return Ok(scratch.buf.len());
        }
        Err(CioError::Timeout("recv_exact"))
    }

    /// Drives the world until `want` application bytes arrive on `c`.
    ///
    /// Allocating convenience over [`World::recv_exact_into`].
    ///
    /// # Errors
    ///
    /// As [`World::recv_exact_into`].
    pub fn recv_exact(
        &mut self,
        c: SessionId,
        want: usize,
        max_steps: usize,
    ) -> Result<Vec<u8>, CioError> {
        let mut scratch = SessionScratch::new();
        self.recv_exact_into(c, want, max_steps, &mut scratch)?;
        Ok(scratch.buf)
    }

    /// TCP close across the boundary designs (the charged call under
    /// [`World::close`] and the quarantine path).
    fn raw_close(&mut self, handle: SocketHandle) -> Result<(), CioError> {
        match &mut self.guest {
            Guest::Stack { iface } => iface.tcp_close(handle)?,
            Guest::Dual { iface, gate, .. } => gate.call(|| iface.tcp_close(handle))?,
            Guest::L5 { svc } => {
                self.tee.exit_to_host();
                svc.close(handle)?;
            }
        }
        Ok(())
    }

    /// Closes a session: TCP FIN goes out, the stream is dropped, and the
    /// session slot is reclaimed immediately — any copy of the handle is
    /// now stale and answers [`CioError::Session`]. The TCP handle joins
    /// the drain queue and its socket slot is released once the
    /// connection quiesces, so both table and socket memory stay bounded
    /// by peak concurrency under churn.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles; transport errors.
    pub fn close(&mut self, c: SessionId) -> Result<(), CioError> {
        let conn = self.conns.remove(c).map_err(CioError::from)?;
        self.meter.sessions_closed(1);
        self.telemetry
            .record(conn.lane, EventKind::SessionClose, sid_bits(c), 0);
        self.raw_close(conn.handle)?;
        self.draining.push(conn.handle);
        Ok(())
    }
}

/// A device ring that fills while the guest stack flushes is
/// backpressure, not a fault: the segments stay in TCP's retransmission
/// queue, the host drains the ring later in the same step, and the world
/// keeps stepping.
fn ring_full_is_backpressure(
    polled: Result<usize, cio_netstack::NetError>,
) -> Result<usize, cio_netstack::NetError> {
    match polled {
        Err(cio_netstack::NetError::DeviceFull) => Ok(0),
        other => other,
    }
}

/// Packs a generational session handle into one event payload
/// word (`generation << 32 | index`).
fn sid_bits(id: SessionId) -> u64 {
    u64::from(id.generation()) << 32 | u64::from(id.index())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> WorldOptions {
        WorldOptions {
            link: LinkParams {
                latency: Cycles(1_000),
                loss: 0.0,
            },
            ..WorldOptions::default()
        }
    }

    fn echo_roundtrip(kind: BoundaryKind, opts: WorldOptions) {
        let mut w = World::new(kind, opts).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000)
            .unwrap_or_else(|e| panic!("{kind}: establish failed: {e}"));
        w.send(c, b"hello confidential world").unwrap();
        let got = w
            .recv_exact(c, 24, 3_000)
            .unwrap_or_else(|e| panic!("{kind}: echo failed: {e}"));
        assert_eq!(&got, b"hello confidential world", "{kind}");
    }

    #[test]
    fn echo_over_every_boundary() {
        for kind in ALL_BOUNDARIES {
            echo_roundtrip(kind, quick_opts());
        }
    }

    #[test]
    fn multiqueue_echo_with_many_connections() {
        for kind in [BoundaryKind::L2CioRing, BoundaryKind::DualBoundary] {
            let mut w = World::builder(kind)
                .queues(4)
                .options(WorldOptions {
                    queues: 4,
                    ..quick_opts()
                })
                .build()
                .unwrap();
            let conns: Vec<SessionId> = (0..8).map(|_| w.connect(ECHO_PORT).unwrap()).collect();
            for &c in &conns {
                w.establish(c, 5_000).unwrap();
            }
            // Flows must spread beyond lane 0 for the test to mean much.
            let lanes: std::collections::HashSet<usize> =
                conns.iter().map(|&c| w.conn_lane(c).unwrap()).collect();
            assert!(lanes.len() > 1, "{kind}: all flows steered to one lane");
            for (i, &c) in conns.iter().enumerate() {
                let msg = format!("hello from flow {i}");
                w.send(c, msg.as_bytes()).unwrap();
            }
            for (i, &c) in conns.iter().enumerate() {
                let want = format!("hello from flow {i}");
                let got = w.recv_exact(c, want.len(), 5_000).unwrap();
                assert_eq!(got, want.as_bytes(), "{kind} conn {i}");
            }
        }
    }

    #[test]
    fn parallel_host_echoes_and_matches_the_serial_schedule() {
        // The same workload on the serial multiqueue sweep and on live
        // worker threads must meter and clock identically: the parallel
        // host is a wall-clock optimization, not a semantic change.
        let run = |threads: usize| {
            let mut w = World::builder(BoundaryKind::L2CioRing)
                .queues(4)
                .parallel(threads)
                .options(WorldOptions {
                    queues: 4,
                    parallel: threads,
                    ..quick_opts()
                })
                .build()
                .unwrap();
            let conns: Vec<SessionId> = (0..6).map(|_| w.connect(ECHO_PORT).unwrap()).collect();
            for &c in &conns {
                w.establish(c, 5_000).unwrap();
            }
            for (i, &c) in conns.iter().enumerate() {
                w.send(c, format!("flow {i} payload").as_bytes()).unwrap();
            }
            for (i, &c) in conns.iter().enumerate() {
                let want = format!("flow {i} payload");
                let got = w.recv_exact(c, want.len(), 5_000).unwrap();
                assert_eq!(got, want.as_bytes(), "threads={threads} conn {i}");
            }
            (w.meter().snapshot(), w.clock().now())
        };
        let serial = run(0);
        assert_eq!(serial, run(1), "1 worker thread vs serial sweep");
        assert_eq!(serial, run(4), "4 worker threads vs serial sweep");
    }

    #[test]
    fn parallel_builder_validates() {
        // Worker count must divide the queue count.
        assert!(matches!(
            World::builder(BoundaryKind::L2CioRing)
                .queues(4)
                .parallel(3)
                .build(),
            Err(CioError::Fatal(_))
        ));
        // Parallel execution is a cio-ring feature.
        assert!(matches!(
            World::builder(BoundaryKind::L2VirtioHardened)
                .parallel(1)
                .build(),
            Err(CioError::Fatal(_))
        ));
        // Hot swap and live workers are mutually exclusive.
        let mut w = World::builder(BoundaryKind::L2CioRing)
            .queues(2)
            .parallel(2)
            .build()
            .unwrap();
        assert_eq!(w.parallel_threads(), 2);
        assert!(matches!(w.hot_swap_device(), Err(CioError::Unsupported(_))));
    }

    #[test]
    fn batched_echo_roundtrips_on_ring_boundaries() {
        for kind in [
            BoundaryKind::L2CioRing,
            BoundaryKind::DualBoundary,
            BoundaryKind::Tunneled,
        ] {
            for batch in [
                BatchPolicy::Fixed(8),
                BatchPolicy::Adaptive {
                    max: 8,
                    latency_cap: Cycles(50_000),
                },
            ] {
                let mut w = World::builder(kind)
                    .options(quick_opts())
                    .batch(batch)
                    .build()
                    .unwrap();
                let c = w.connect(ECHO_PORT).unwrap();
                w.establish(c, 5_000).unwrap();
                for round in 0..3u8 {
                    let msg = vec![round.wrapping_mul(37); 700];
                    w.send(c, &msg).unwrap();
                    let got = w.recv_exact(c, msg.len(), 5_000).unwrap();
                    assert_eq!(got, msg, "{kind} {batch:?} round {round}");
                }
            }
        }
    }

    #[test]
    fn serial_batch_policy_is_bit_identical_to_default() {
        // The default-constructed world never touches a batched path: a
        // world explicitly configured Serial must meter identically.
        let run = |batch: BatchPolicy| {
            let mut w = World::builder(BoundaryKind::L2CioRing)
                .options(quick_opts())
                .batch(batch)
                .build()
                .unwrap();
            let c = w.connect(ECHO_PORT).unwrap();
            w.establish(c, 3_000).unwrap();
            w.send(c, &[0x3C; 900]).unwrap();
            let _ = w.recv_exact(c, 900, 3_000).unwrap();
            (w.meter().snapshot(), w.clock().now())
        };
        assert_eq!(run(BatchPolicy::Serial), run(BatchPolicy::default()));
    }

    #[test]
    fn builder_constructs_and_validates() {
        let w = World::builder(BoundaryKind::L2CioRing)
            .queues(2)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(w.queues(), 2);
        assert!(matches!(
            World::builder(BoundaryKind::L2CioRing).queues(3).build(),
            Err(CioError::Fatal(_))
        ));
        assert!(matches!(
            World::builder(BoundaryKind::L2CioRing)
                .queues(2 * MAX_QUEUES)
                .build(),
            Err(CioError::Fatal(_))
        ));
        // Multi-queue is a cio-ring feature; other designs reject it at
        // construction (stateless principle: misconfig is fatal, early).
        assert!(matches!(
            World::builder(BoundaryKind::L2VirtioHardened)
                .queues(2)
                .build(),
            Err(CioError::Fatal(_))
        ));
    }

    #[test]
    fn send_backpressure_is_transient_not_fatal() {
        let mut w = World::new(BoundaryKind::L2CioRing, quick_opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        // Without stepping, the TCP send window fills and the unsent
        // backlog grows past the high-water mark.
        let chunk = vec![0x42u8; 16 * 1024];
        let mut hit_backpressure = false;
        let mut accepted = 0;
        for _ in 0..64 {
            match w.send(c, &chunk) {
                Ok(n) => {
                    assert_eq!(n, chunk.len());
                    accepted += n;
                }
                Err(e) => {
                    assert!(e.is_transient(), "expected backpressure, got {e}");
                    assert_eq!(e, CioError::Transient(Transient::WouldBlock));
                    hit_backpressure = true;
                    break;
                }
            }
        }
        assert!(hit_backpressure, "never hit the high-water mark");
        // The mark is measured on *unsent* bytes: the window's worth in
        // flight sits in the same send ring but does not count, so eight
        // records fit (four fill the window, four the backlog) where
        // counting the whole ring would bounce the fifth.
        assert_eq!(accepted, 8 * chunk.len());
        let handle = w.conns.get(c).unwrap().handle;
        let Guest::Stack { iface } = &mut w.guest else {
            panic!("an L2 world runs the stack in the guest");
        };
        let backlog = iface.tcp_send_backlog(handle).unwrap();
        assert!(backlog > SEND_HIGH_WATER);
        assert!(backlog < accepted, "in-flight bytes counted as backlog");
        // The bounce is metered at the send site.
        assert!(
            w.meter().snapshot().backpressure_wouldblock >= 1,
            "WouldBlock bounce must increment the backpressure meter"
        );
        // Backpressure is recoverable by construction: drain and retry.
        w.run(2_000).unwrap();
        assert_eq!(w.send(c, b"after drain").unwrap(), 11);
    }

    #[test]
    fn echo_plaintext_mode() {
        for kind in [BoundaryKind::L5Host, BoundaryKind::L2CioRing] {
            let opts = WorldOptions {
                app_tls: false,
                ..quick_opts()
            };
            echo_roundtrip(kind, opts);
        }
    }

    #[test]
    fn rpc_roundtrip_dual_boundary() {
        let mut w = World::new(BoundaryKind::DualBoundary, quick_opts()).unwrap();
        let c = w.connect(RPC_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        w.send(c, &8_000u32.to_le_bytes()).unwrap();
        let got = w.recv_exact(c, 8_004, 5_000).unwrap();
        assert_eq!(got.len(), 8_004);
        assert_eq!(&got[..4], &8_000u32.to_le_bytes());
        assert!(got[4..].iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn dual_boundary_charges_compartment_switches() {
        let mut w = World::new(BoundaryKind::DualBoundary, quick_opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        let before = w.meter().snapshot().compartment_switches;
        w.send(c, b"x").unwrap();
        assert!(w.meter().snapshot().compartment_switches > before);
        // And no world exits on the data path beyond what the rings do:
        // the L5 design would have paid one exit per call.
    }

    #[test]
    fn l5_charges_host_transitions_per_call() {
        let mut w = World::new(BoundaryKind::L5Host, quick_opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        let before = w.meter().snapshot().host_transitions;
        w.establish(c, 3_000).unwrap();
        w.send(c, b"x").unwrap();
        let after = w.meter().snapshot().host_transitions;
        assert!(after > before + 2, "exits: {before} -> {after}");
    }

    #[test]
    fn hardened_virtio_pays_bounce_copies() {
        let mut w = World::new(BoundaryKind::L2VirtioHardened, quick_opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        let before = w.meter().snapshot();
        w.send(c, &[0x41; 1000]).unwrap();
        let _ = w.recv_exact(c, 1000, 3_000).unwrap();
        let d = w.meter().snapshot().delta(&before);
        assert!(d.copies >= 2, "bounce copies on both directions: {d:?}");
    }

    #[test]
    fn tunneled_in_place_policy_eliminates_dataplane_copies() {
        let run = |policy: CopyPolicy| {
            let mut w = World::builder(BoundaryKind::Tunneled)
                .options(quick_opts())
                .copy_policy(policy)
                .build()
                .unwrap();
            let c = w.connect(ECHO_PORT).unwrap();
            w.establish(c, 3_000).unwrap();
            let before = w.meter().snapshot();
            w.send(c, &[0x7A; 512]).unwrap();
            let _ = w.recv_exact(c, 512, 3_000).unwrap();
            w.meter().snapshot().delta(&before)
        };
        let in_place = run(CopyPolicy::InPlace);
        let staged = run(CopyPolicy::CopyEarly);
        assert!(
            in_place.copies < staged.copies,
            "in-place {} vs staged {} copies",
            in_place.copies,
            staged.copies
        );
        assert!(
            in_place.bytes_zero_copy > staged.bytes_zero_copy,
            "records positioned in place must be metered as zero-copy bytes"
        );
    }

    #[test]
    fn tunneled_hides_headers_from_host() {
        let mut w = World::new(BoundaryKind::Tunneled, quick_opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        w.send(c, b"secret").unwrap();
        let _ = w.recv_exact(c, 6, 3_000).unwrap();
        let tunnel_summary = w.recorder().summary();

        let mut w2 = World::new(BoundaryKind::L2CioRing, quick_opts()).unwrap();
        let c2 = w2.connect(ECHO_PORT).unwrap();
        w2.establish(c2, 3_000).unwrap();
        w2.send(c2, b"secret").unwrap();
        let _ = w2.recv_exact(c2, 6, 3_000).unwrap();
        let plain_summary = w2.recorder().summary();

        // Per-event information is strictly lower for the tunnel.
        let t_bits_per_event = tunnel_summary.bits as f64 / tunnel_summary.events as f64;
        let p_bits_per_event = plain_summary.bits as f64 / plain_summary.events as f64;
        assert!(
            t_bits_per_event < p_bits_per_event,
            "tunnel {t_bits_per_event} vs plain {p_bits_per_event}"
        );
    }

    #[test]
    fn dda_tampering_device_is_caught_by_app_tls() {
        let opts = WorldOptions {
            dda_tamper: true,
            ..quick_opts()
        };
        let mut w = World::new(BoundaryKind::Dda, opts).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        // The device corrupts frames; TCP checksums drop them and nothing
        // ever completes — or if anything slipped through, cTLS would
        // reject it. Either way establishment cannot succeed.
        assert!(w.establish(c, 500).is_err());
    }
}
