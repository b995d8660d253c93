//! What a world is configured with: [`WorldOptions`], the
//! [`WorldBuilder`] setters over it, the fixed addresses and limits, and
//! construction-time validation (stateless principle: a bad
//! configuration is fatal before anything is built, never a runtime
//! error path).

use super::BoundaryKind;
use crate::dev::{RecvMode, SendMode};
use crate::CioError;
use cio_host::fabric::LinkParams;
use cio_mem::{CopyPolicy, PAGE_SIZE};
use cio_netstack::{Ipv4Addr, MacAddr};
use cio_sim::CostModel;
use cio_tee::TeeKind;
use cio_vring::cioring::{BatchPolicy, DataMode, NotifyMode, NotifyPolicy, RingConfig};

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

/// Unsent-backlog threshold above which [`World::send`](super::World::send) reports
/// backpressure ([`Transient::WouldBlock`](crate::Transient::WouldBlock)) instead of buffering more.
pub const SEND_HIGH_WATER: usize = 64 * 1024;

/// Guest address of the world (fixed).
pub const GUEST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Peer address of the world (fixed).
pub const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

pub(super) const GUEST_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x01]);
pub(super) const PEER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x02]);
pub(super) const FABRIC_MTU: usize = 2200;
pub(super) const GUEST_PAGES: usize = 4096;

impl WorldOptions {
    /// Rejects option sets `kind` cannot run.
    pub(super) fn validate(&self, kind: BoundaryKind) -> Result<(), CioError> {
        let cio_ring = matches!(kind, BoundaryKind::L2CioRing | BoundaryKind::DualBoundary);
        if self.queues == 0 || !self.queues.is_power_of_two() || self.queues > MAX_QUEUES {
            return Err(CioError::Fatal(
                "queue count must be a power of two between 1 and MAX_QUEUES",
            ));
        }
        if self.queues > 1 && !cio_ring {
            return Err(CioError::Fatal(
                "multi-queue is implemented for the cio-ring designs",
            ));
        }
        if self.parallel > 0 {
            if !cio_ring {
                return Err(CioError::Fatal(
                    "parallel host execution is implemented for the cio-ring designs",
                ));
            }
            if !self.queues.is_multiple_of(self.parallel) {
                return Err(CioError::Fatal(
                    "parallel worker count must divide the queue count",
                ));
            }
        }
        Ok(())
    }

    /// The ring-level notification mode implied by the option pair: a
    /// non-`Always` policy upgrades doorbell rings to event-idx
    /// suppression; polling worlds are untouched (byte-identical no
    /// matter the policy).
    pub(super) fn effective_notify(&self) -> NotifyMode {
        match (self.notify, self.notify_policy) {
            (NotifyMode::Polling, _) => NotifyMode::Polling,
            (NotifyMode::Doorbell, NotifyPolicy::Always) => NotifyMode::Doorbell,
            (NotifyMode::Doorbell, _) | (NotifyMode::EventIdx, _) => NotifyMode::EventIdx,
        }
    }

    /// The fixed (never negotiated) ring configuration of the cio-ring
    /// designs' network queues.
    pub(super) fn net_ring_config(&self) -> RingConfig {
        if self.recv_mode == RecvMode::Revoke {
            RingConfig {
                slots: 64,
                slot_size: 16,
                mode: DataMode::SharedArea,
                mtu: 1514,
                mac: GUEST_MAC.0,
                area_size: 64 * PAGE_SIZE as u32,
                page_aligned_payloads: true,
                notify: self.effective_notify(),
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
                notify: self.effective_notify(),
                ..RingConfig::default()
            }
        }
    }
}

/// Step-by-step construction of a [`World`](super::World).
///
/// Obtained from [`World::builder`](super::World::builder); finish with
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
    pub(super) kind: BoundaryKind,
    pub(super) opts: WorldOptions,
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
}
