//! Per-design assembly: how [`WorldBuilder::build`] wires the guest, the
//! host handle and the peer for each [`BoundaryKind`], and how a hot swap
//! re-attaches a cio-ring device over the same layout.
//!
//! This is the only file of the world that names concrete host types
//! ([`NullBackend`], [`VirtioNetBackend`], [`CioNetBackend`],
//! [`ParallelHost`]); once built, a world holds one `Box<dyn Backend>`
//! and the round never asks which.

use super::guest::{Crossing, GuestStack};
use super::layout::GuestLayoutAlloc;
use super::options::{FABRIC_MTU, GUEST_MAC, GUEST_PAGES, PEER_MAC};
use super::speer::{SecurePeer, TunnelGateway};
use super::{
    Anatomy, BoundaryKind, PeerNode, World, WorldBuilder, WorldOptions, GUEST_IP, PEER_IP,
};
use crate::dev::{
    CioRingDevice, HardenedVirtioNetDevice, IdeNetDevice, TunnelDevice, VirtqueueNetDevice, VqArena,
};
use crate::session::SessionTable;
use crate::CioError;
use cio_ctls::{Channel, RecordScratch, SimHooks};
use cio_host::backend::{Backend, CioNetBackend, NullBackend, VirtioNetBackend};
use cio_host::fabric::Fabric;
use cio_host::l5::ObservedPort;
use cio_host::observe::Recorder;
use cio_host::ParallelHost;
use cio_mem::{GuestAddr, GuestMemory, HostView, PAGE_SIZE};
use cio_netstack::stack::{Interface, InterfaceConfig};
use cio_netstack::{NetDevice, PairDevice};
use cio_sim::{Clock, CostModel, Cycles, Lanes, Meter, SimRng, SloConfig, SloWatchdog, Telemetry};
use cio_tee::dda::{spdm_attest, Device, IdeChannel};
use cio_tee::Tee;
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use cio_vring::hardened::HardenedDriver;
use cio_vring::virtqueue::{
    driver_negotiate, ConfigSpace, DeviceSide, Driver, Layout, F_NET_MAC, F_NET_MTU, F_VERSION_1,
};

/// The host's `(guest->host consumer, host->guest producer)` endpoints,
/// one pair per queue.
type HostPairs = Vec<(Consumer<HostView>, Producer<HostView>)>;

/// The remote confidential peer over `dev`, wired like every other
/// secure endpoint of the world.
fn secure_peer<D: NetDevice>(
    dev: D,
    clock: &Clock,
    opts: &WorldOptions,
    telemetry: &Telemetry,
) -> SecurePeer<D> {
    let mut peer = SecurePeer::new(dev, PEER_IP, clock.clone(), opts.app_tls, opts.seed ^ 1);
    peer.set_telemetry(telemetry.clone());
    peer.set_batch_policy(opts.batch);
    peer.set_rekey_interval(opts.rekey_interval);
    peer
}

/// Lays out one `(tx, rx)` ring pair in guest memory and shares it with
/// the host.
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

/// Builds both sides' endpoints over laid-out ring pairs: the guest's
/// multi-queue device and the host's endpoint pairs. Creating an endpoint
/// re-initialises its ring's shared words (indices, door, event index)
/// and touches nothing else, so this is everything a fresh device needs —
/// at build and at every hot swap alike.
fn cio_endpoints(
    mem: &GuestMemory,
    rings: &[(CioRing, CioRing)],
    opts: &WorldOptions,
    telemetry: &Telemetry,
) -> Result<(Box<dyn NetDevice>, HostPairs), CioError> {
    let mut guest_pairs = Vec::with_capacity(rings.len());
    let mut host_pairs = Vec::with_capacity(rings.len());
    for (q, (tx_ring, rx_ring)) in rings.iter().enumerate() {
        let mut guest_tx = Producer::new(tx_ring.clone(), mem.guest())?;
        let mut guest_rx = Consumer::new(rx_ring.clone(), mem.guest())?;
        guest_tx.set_telemetry(telemetry.clone(), q);
        guest_rx.set_telemetry(telemetry.clone(), q);
        guest_pairs.push((guest_tx, guest_rx));
        host_pairs.push((
            Consumer::new(tx_ring.clone(), mem.host())?,
            Producer::new(rx_ring.clone(), mem.host())?,
        ));
    }
    let mut dev = CioRingDevice::new(guest_pairs, mem.clone(), opts.send_mode, opts.recv_mode)?;
    dev.set_batch_policy(opts.batch);
    Ok((Box::new(dev), host_pairs))
}

impl WorldBuilder {
    /// Builds the world.
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] for configuration errors; transport errors
    /// during setup.
    pub fn build(self) -> Result<World, CioError> {
        let WorldBuilder { kind, opts } = self;
        opts.validate(kind)?;
        let mut tee = Tee::new(opts.tee_kind, GUEST_PAGES, opts.cost.clone());
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
        let mut layout =
            GuestLayoutAlloc::new(GuestAddr(0), GuestAddr((GUEST_PAGES * PAGE_SIZE) as u64));
        let direct_peer = |port| PeerNode::Direct(secure_peer(port, &clock, &opts, &telemetry));

        // A design is a transport (the device the one stack runs over and
        // the host model serving it) and a crossing (what separates the
        // application from that stack).
        type Design = (Box<dyn NetDevice>, Crossing, Box<dyn Backend>, PeerNode);
        let (device, crossing, backend, peer): Design = match kind {
            // The stack is host software over the host's own NIC; the
            // host tallies every socket call that reaches it.
            BoundaryKind::L5Host => (
                Box::new(ObservedPort::new(nic_port, recorder.clone())),
                Crossing::Host(recorder.clone()),
                Box::new(NullBackend),
                direct_peer(peer_port),
            ),

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
                (
                    device,
                    Crossing::None,
                    Box::new(backend),
                    direct_peer(peer_port),
                )
            }

            BoundaryKind::L2CioRing | BoundaryKind::DualBoundary => {
                let ring_cfg = opts.net_ring_config();
                for _ in 0..opts.queues {
                    let pair = alloc_ring_pair(&mem, &mut layout, &ring_cfg)?;
                    anatomy.cio_queues.push(pair);
                }
                let (device, host_pairs) =
                    cio_endpoints(&mem, &anatomy.cio_queues, &opts, &telemetry)?;
                let mut backend = CioNetBackend::new(
                    host_pairs,
                    mem.host(),
                    nic_port,
                    recorder.clone(),
                    clock.clone(),
                )?;
                backend.set_copy_policy(opts.copy_policy);
                backend.set_batch_policy(opts.batch);
                backend.set_notify_policy(opts.notify_policy);
                backend.set_telemetry(telemetry.clone());
                let crossing = if kind == BoundaryKind::DualBoundary {
                    let app = tee.compartments_mut().create("app");
                    let iostack = tee.compartments_mut().create("iostack");
                    // The I/O compartment owns every queue's rings and
                    // payload areas: the app can never dereference into
                    // them (the trusted-component-allocates arena is the
                    // only shared surface, carved out below). A hot swap
                    // reuses these very rings, so ownership holds across
                    // it with nothing to redo.
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
                    Crossing::Compartment(tee.gate(app, iostack)?)
                } else {
                    Crossing::None
                };
                // Thread-per-queue mode: the backend splits into a
                // coordinator plus per-queue workers on persistent OS
                // threads — one more `Backend` to the round.
                let backend: Box<dyn Backend> = if opts.parallel > 0 {
                    Box::new(ParallelHost::new(backend, opts.parallel)?)
                } else {
                    Box::new(backend)
                };
                (device, crossing, backend, direct_peer(peer_port))
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
                    notify: opts.effective_notify(),
                    ..RingConfig::default()
                };
                let (tx_ring, rx_ring) = alloc_ring_pair(&mem, &mut layout, &ring_cfg)?;
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
                let mut backend = CioNetBackend::new(
                    vec![(host_tx, host_rx)],
                    mem.host(),
                    nic_port,
                    recorder.clone(),
                    clock.clone(),
                )?;
                backend.opaque = true;
                backend.set_copy_policy(opts.copy_policy);
                backend.set_batch_policy(opts.batch);
                backend.set_notify_policy(opts.notify_policy);
                backend.set_telemetry(telemetry.clone());

                let (gw_side, peer_side) = PairDevice::pair([PEER_MAC, PEER_MAC], 1500);
                (
                    Box::new(tunnel_dev),
                    Crossing::None,
                    Box::new(backend),
                    PeerNode::Tunnel {
                        gw_port: peer_port,
                        gw: TunnelGateway::new(gw_chan, gw_side),
                        peer: secure_peer(peer_side, &clock, &opts, &telemetry),
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
                (
                    Box::new(ide_dev),
                    Crossing::None,
                    Box::new(NullBackend),
                    direct_peer(peer_port),
                )
            }
        };

        Ok(World {
            kind,
            clock: clock.clone(),
            meter,
            recorder,
            tee,
            guest: GuestStack {
                iface: Interface::new(device, InterfaceConfig::new(GUEST_IP), clock.clone()),
                crossing,
            },
            backend,
            fabric,
            peer,
            // One session-table shard per dataplane queue: a session's
            // shard IS its RSS lane, so steering and lookup agree by
            // construction.
            conns: SessionTable::new(opts.queues),
            draining: Vec::new(),
            flush_ids: Vec::new(),
            rng,
            anatomy,
            lanes: Lanes::new(clock, opts.queues),
            seal_scratch: RecordScratch::new(),
            recv_scratch: Vec::new(),
            telemetry,
            watchdog,
            opts,
        })
    }
}

impl World {
    /// Hot-swaps the network device (§3.2: "devices can be hot-swapped").
    /// The configuration is fixed and never negotiated, so the layout is
    /// fixed too: the replacement device is fresh endpoints over the
    /// *same* rings, re-initialised (indices, door and event words), and
    /// attached to the same link. Nothing is allocated, shared or
    /// re-assigned, so a world can swap any number of times. Frames in
    /// flight in the rings are lost; TCP recovers them.
    ///
    /// # Errors
    ///
    /// [`CioError::Unsupported`] for designs without a swappable cio-ring
    /// device, and while the thread-per-queue host runs (live worker
    /// threads hold the endpoints; quiesce-and-swap is future work).
    /// Everything that can fail does so before the old device is retired.
    pub fn hot_swap_device(&mut self) -> Result<(), CioError> {
        if !matches!(
            self.kind,
            BoundaryKind::L2CioRing | BoundaryKind::DualBoundary
        ) {
            return Err(CioError::Unsupported(
                "hot swap is implemented for the cio-ring designs",
            ));
        }
        let Some(backend) = self.backend.as_any_mut().downcast_mut::<CioNetBackend>() else {
            return Err(CioError::Unsupported(
                "hot swap is not available while the parallel host runs",
            ));
        };
        let (device, host_pairs) = cio_endpoints(
            self.tee.memory(),
            &self.anatomy.cio_queues,
            &self.opts,
            &self.telemetry,
        )?;
        backend.reattach(host_pairs)?;
        *self.guest.iface.device_mut() = device;
        Ok(())
    }
}
