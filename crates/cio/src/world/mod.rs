//! Complete simulated deployments: one [`World`] per boundary design.
//!
//! A `World` owns everything Figure 1 draws — the confidential workload
//! (①), host software (③), host hardware / fabric (④), and a remote
//! confidential peer — wired for one [`BoundaryKind`]. All worlds expose
//! the same application API (connect / send / recv over optionally-cTLS
//! streams), so experiments E4/E9/E10/E11 run identical workloads across
//! designs and differences are attributable to the boundary alone.
//!
//! A design is a *transport* and a *crossing* — the paper's P2 and P1 —
//! and the world has one seam for each: the guest stack drives whatever
//! [`NetDevice`](cio_netstack::NetDevice) the design's transport is
//! while the round drives whatever [`Backend`] serves it, and every socket
//! call the application makes goes through `World::cross`, which charges
//! and observes it by the design's `Crossing` (none, compartment, host).
//!
//! The module is split along the five things a world is:
//!
//! * `options` — [`WorldOptions`], the [`WorldBuilder`] setters, fixed
//!   addresses and limits, construction-time validation;
//! * `assemble` — per-design assembly ([`WorldBuilder::build`]) and
//!   device hot swap: the only code that names a concrete host type;
//!   `layout` is its guest-memory bump allocator;
//! * `guest` — the one guest stack, its `Crossing`, and `World::cross`:
//!   the L5 seam, the only code that charges a socket call;
//! * `round` — [`World::step`]: one schedule for every design, queue
//!   count and host, driving exactly one host handle
//!   (`Box<dyn `[`Backend`]`>`) through [`Backend::round`];
//! * `conn` — connection glue: the application API over the session
//!   table, the per-session stream pump.
//!
//! This file keeps what they share: the design enum, the `World` struct
//! and its read-only accessors.

mod assemble;
mod conn;
mod guest;
mod layout;
mod options;
mod round;
pub mod speer;

use crate::session::SessionTable;
use crate::CioError;
use cio_ctls::RecordScratch;
use cio_host::backend::Backend;
use cio_host::fabric::{Fabric, FabricPort};
use cio_host::observe::Recorder;
use cio_mem::{GuestAddr, GuestMemory};
use cio_netstack::stack::SocketHandle;
use cio_netstack::PairDevice;
use cio_sim::{Clock, CostModel, Lanes, Meter, MeterSnapshot, SimRng, Telemetry};
use cio_tee::Tee;
use cio_vring::cioring::CioRing;
use cio_vring::virtqueue::Layout;
use guest::GuestStack;
use speer::{FeedResult, SecurePeer, SecureStream, TunnelGateway};

pub use cio_vring::cioring::{BatchPolicy, NotifyMode, NotifyPolicy};
pub use options::{
    WorldBuilder, WorldOptions, FRAME_LIMIT, GUEST_IP, MAX_QUEUES, PEER_IP, SEND_HIGH_WATER,
};
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

#[allow(clippy::large_enum_variant)] // one per world
enum PeerNode {
    Direct(SecurePeer<FabricPort>),
    Tunnel {
        gw_port: FabricPort,
        gw: TunnelGateway,
        peer: SecurePeer<PairDevice>,
    },
}

/// Layout facts the adversary harness needs to aim its attacks. The
/// layout is fixed at build — a hot swap reuses it — so these never move.
#[derive(Debug, Clone, Default)]
pub struct Anatomy {
    /// Virtqueue layouts (tx, rx) and the config page, when present.
    pub virtio: Option<(Layout, Layout, GuestAddr)>,
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
    /// The one TCP/IP stack and the crossing in front of it (see
    /// `guest`).
    guest: GuestStack,
    /// The host side of the round: the one host handle, whatever runs
    /// behind it (see [`Backend`]).
    backend: Box<dyn Backend>,
    /// The link between the world's NIC and its peer; an idle round ends
    /// at its next delivery.
    fabric: Fabric,
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
    /// (the adversary harness) downcast through
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

    /// Host worker threads the host actually runs (`0` when host
    /// servicing runs on the stepping thread).
    pub fn parallel_threads(&self) -> usize {
        self.backend.threads()
    }

    /// Per-queue host traffic meter snapshots (index = queue id; frames
    /// in `copies`, bytes in `bytes_copied`), whichever host runs; empty
    /// for designs whose host keeps none.
    pub fn queue_meters(&self) -> Vec<MeterSnapshot> {
        self.backend.queue_meters()
    }

    /// Total empty host service passes burned by the adaptive notify
    /// controllers while hot (`NotifyPolicy::Adaptive`; `0` otherwise).
    /// E23's zero-load gate bounds this: at zero offered load, idle spin
    /// must stop within the controllers' idle budget instead of growing
    /// with wall time.
    pub fn notify_idle_passes(&self) -> u64 {
        self.backend.idle_passes()
    }

    /// The observation domain. [`WorldBuilder::telemetry`] arms its
    /// instruments ([`cio_sim::Profile`] tables, histograms, the JSON
    /// snapshot), [`WorldBuilder::observe`] its timeline (typed events
    /// and their log); with neither it is a disabled, inert handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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
        self.guest.crossing.compartments()
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
    use crate::Transient;
    use cio_host::fabric::LinkParams;
    use cio_mem::CopyPolicy;
    use cio_sim::Cycles;

    fn quick_opts() -> WorldOptions {
        WorldOptions {
            link: LinkParams {
                latency: Cycles(1_000),
                loss: 0.0,
            },
            ..WorldOptions::default()
        }
    }

    /// A burst whose records cross a ring's wrap costs what any other
    /// burst costs. 16 KiB echoes on eight flows over four queues, as the
    /// bulk benchmark runs them: a run split at the wrap costs its lane a
    /// few ring operations, and the frames that lane puts on the wire are
    /// sent that much later. While the wire delivered in flush order, the
    /// late lane's frames held every other queue's back, their echoes
    /// came a round late, and the ops a wrap fell in paid a whole extra
    /// round of record opens (about 50 000 cycles). Now the frames go out
    /// in the order they were sent, and the wrap costs its few cycles and
    /// no round.
    #[test]
    fn a_burst_across_the_ring_wrap_pays_no_extra_round() {
        let opts = WorldOptions {
            link: LinkParams {
                latency: Cycles(3_000),
                loss: 0.0,
            },
            notify: NotifyMode::Doorbell,
            notify_policy: NotifyPolicy::Adaptive,
            batch: BatchPolicy::Adaptive {
                max: 8,
                latency_cap: Cycles(50_000),
            },
            queues: 4,
            ..WorldOptions::default()
        };
        let mut w = World::new(BoundaryKind::DualBoundary, opts).unwrap();
        let conns: Vec<_> = (0..8).map(|_| w.connect(ECHO_PORT).unwrap()).collect();
        for &c in &conns {
            w.establish(c, 50_000).unwrap();
        }
        let msg = vec![0x3Cu8; 16 * 1024];
        let slots = w.opts.net_ring_config().slots as usize;
        let mut per_op = Vec::new();
        // Each queue's rings take a handful of records per op, so this
        // many ops wrap every ring several times.
        for _ in 0..2 * slots {
            let t0 = w.clock().now();
            for &c in &conns {
                w.send(c, &msg).unwrap();
            }
            for &c in &conns {
                assert_eq!(w.recv_exact(c, msg.len(), 200_000).unwrap(), msg);
            }
            per_op.push(w.clock().since(t0).get());
        }
        let steady = &per_op[4..];
        let (lo, hi) = (steady.iter().min().unwrap(), steady.iter().max().unwrap());
        assert!(hi - lo < 1_000, "ops took {lo}..{hi} cycles: {per_op:?}");
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

    /// One 64 B echo after eight warm-ups over a link of one-way
    /// `latency`: the virtual cycles and world steps it took.
    fn warm_echo(kind: BoundaryKind, latency: u64) -> (u64, u64) {
        let mut w = World::new(
            kind,
            WorldOptions {
                link: LinkParams {
                    latency: Cycles(latency),
                    loss: 0.0,
                },
                ..WorldOptions::default()
            },
        )
        .unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 50_000).unwrap();
        let msg = [0x64u8; 64];
        for _ in 0..8 {
            w.send(c, &msg).unwrap();
            assert_eq!(w.recv_exact(c, 64, 50_000).unwrap(), msg, "{kind}");
        }
        let t0 = w.clock().now();
        w.send(c, &msg).unwrap();
        let (mut got, mut steps) = (0, 0);
        let mut scratch = SessionScratch::new();
        loop {
            got += w.recv_into(c, &mut scratch).unwrap();
            if got >= msg.len() {
                return (w.clock().since(t0).get(), steps);
            }
            w.step().unwrap();
            steps += 1;
        }
    }

    #[test]
    fn idle_rounds_end_at_the_next_due_frame() {
        // Two one-way trips of 20 000 more cycles each: an idle round ends
        // exactly when the fabric delivers, so the echo costs exactly
        // 40 000 cycles more and only the quantum-capped jumps add steps.
        let max_extra_steps = 2 * 20_000u64.div_ceil(round::STEP_QUANTUM.get());
        for kind in ALL_BOUNDARIES {
            let (near_cycles, near_steps) = warm_echo(kind, 10_000);
            let (far_cycles, far_steps) = warm_echo(kind, 30_000);
            let extra = far_cycles - near_cycles;
            if kind == BoundaryKind::L5Host {
                // Every l5-host round pays a `Call::Recv` crossing, so a
                // round may overrun the delivery it waits for by one.
                let crossing = World::new(kind, quick_opts())
                    .unwrap()
                    .tee()
                    .transition_cost();
                assert!(
                    extra.abs_diff(40_000) <= crossing.get(),
                    "{kind}: {near_cycles} -> {far_cycles} cycles"
                );
            } else {
                assert_eq!(
                    extra, 40_000,
                    "{kind}: {near_cycles} -> {far_cycles} cycles"
                );
            }
            assert!(
                far_steps - near_steps <= max_extra_steps,
                "{kind}: {near_steps} -> {far_steps} steps"
            );
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
        let backlog = w.guest.iface.tcp_send_backlog(handle).unwrap();
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
