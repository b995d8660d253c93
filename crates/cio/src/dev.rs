//! Adapters that present each guest-side transport as a
//! [`cio_netstack::NetDevice`], so the same TCP/IP stack runs over every
//! boundary design.
//!
//! The accounting convention, applied uniformly so designs are comparable:
//! the unavoidable materialization of a frame as guest bytes is *not*
//! metered (every design does it); what IS metered is each design's
//! distinctive data movement — bounce copies in the hardened retrofit, the
//! early first-class copy or the page revocation in the cio-ring, AEAD
//! passes on the tunneled/DDA paths.

use crate::CioError;
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, GuestView};
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_sim::{Clock, Cycles};
use cio_tee::dda::IdeChannel;
use cio_vring::cioring::{BatchPolicy, BufPool, Consumer, Producer, RevokedPayload, MAX_BATCH};
use cio_vring::hardened::HardenedDriver;
use cio_vring::virtqueue::{ConfigSpace, DescSeg, Driver};
use std::collections::VecDeque;

/// How the guest takes delivery of received payloads on the cio-ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvMode {
    /// Early copy into private memory (copy-as-first-class).
    Copy,
    /// Un-share the payload pages and process in place (§3.2 revocation).
    Revoke,
}

/// How the guest submits transmit payloads on the cio-ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Explicit early copy into the interface.
    Copy,
    /// Zero-copy placement (valid where double fetch is impossible by
    /// layout).
    ZeroCopy,
}

/// One queue's guest-side ring pair, plus the frames a receive pass
/// drained ahead of the caller and the (empty between passes) buffers
/// the next pass drains into.
struct GuestQueue {
    tx: Producer<GuestView>,
    rx: Consumer<GuestView>,
    rx_pending: VecDeque<Vec<u8>>,
    rx_bufs: [Vec<u8>; MAX_BATCH],
}

/// The cio-ring as a (multi-queue) network device.
///
/// Transmit steers each frame to a queue with the symmetric RSS hash
/// ([`cio_netstack::rss`]); the host backend uses the same hash for the
/// return direction, so a flow stays on one queue end to end without any
/// negotiation. Receive round-robins across queues, or drains a single
/// queue when a scheduler pins one via
/// [`select_rx_queue`](NetDevice::select_rx_queue).
pub struct CioRingDevice {
    queues: Vec<GuestQueue>,
    mask: u32,
    active_rx: Option<usize>,
    rx_cursor: usize,
    mac: MacAddr,
    mtu: usize,
    recv_mode: RecvMode,
    /// Record-batching discipline for receive draining: runs of up to this
    /// many slots per shared-index read, memory-lock acquisition, and
    /// consumer-index write (Serial, the default, is the run of one) —
    /// the guest-side mirror of the host backend's servicing.
    batch: BatchPolicy,
    mem: GuestMemory,
}

impl CioRingDevice {
    /// Wraps one ring pair per queue, wiring the send and receive modes
    /// onto the ring endpoints as their data positioning. The MTU and MAC
    /// come from the fixed ring config (zero-negotiation: there is no
    /// other source); the queue count must be a non-zero power of two so
    /// steering is a masked index.
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] for a bad queue count or a revocation-mode pair
    /// without page-aligned rings — misconfiguration never becomes a
    /// runtime error path.
    pub fn new(
        queues: Vec<(Producer<GuestView>, Consumer<GuestView>)>,
        mem: GuestMemory,
        send_mode: SendMode,
        recv_mode: RecvMode,
    ) -> Result<Self, CioError> {
        if queues.is_empty() || !queues.len().is_power_of_two() {
            return Err(CioError::Fatal(
                "cio-ring device needs a power-of-two queue count",
            ));
        }
        if recv_mode == RecvMode::Revoke
            && queues
                .iter()
                .any(|(_, rx)| !rx.ring().config().page_aligned_payloads)
        {
            return Err(CioError::Fatal(
                "revocation receive needs page-aligned rings",
            ));
        }
        let cfg = queues[0].0.ring().config();
        let mask = queues.len() as u32 - 1;
        let tx_policy = match send_mode {
            SendMode::Copy => CopyPolicy::CopyEarly,
            SendMode::ZeroCopy => CopyPolicy::InPlace,
        };
        Ok(CioRingDevice {
            mac: MacAddr(cfg.mac),
            mtu: cfg.mtu as usize - cio_netstack::wire::ETH_HDR_LEN,
            queues: queues
                .into_iter()
                .map(|(mut tx, mut rx)| {
                    tx.set_copy_policy(tx_policy);
                    rx.set_copy_policy(CopyPolicy::CopyEarly);
                    GuestQueue {
                        tx,
                        rx,
                        rx_pending: VecDeque::new(),
                        rx_bufs: std::array::from_fn(|_| Vec::new()),
                    }
                })
                .collect(),
            mask,
            active_rx: None,
            rx_cursor: 0,
            recv_mode,
            batch: BatchPolicy::default(),
            mem,
        })
    }

    /// Sets the record-batching discipline for receive draining. Only the
    /// copy receive mode batches (revocation is inherently per-slot: each
    /// payload's pages are un-shared and handed out individually).
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch = batch;
    }

    /// Single-queue convenience constructor.
    ///
    /// # Errors
    ///
    /// As [`CioRingDevice::new`].
    pub fn single(
        tx: Producer<GuestView>,
        rx: Consumer<GuestView>,
        mem: GuestMemory,
        send_mode: SendMode,
        recv_mode: RecvMode,
    ) -> Result<Self, CioError> {
        CioRingDevice::new(vec![(tx, rx)], mem, send_mode, recv_mode)
    }

    fn recv_from(&mut self, q: usize) -> Option<Vec<u8>> {
        let queue = &mut self.queues[q];
        match self.recv_mode {
            RecvMode::Copy => {
                // One pass pulls a run of frames under a single lock and a
                // single consumer-index write, then the caller pops them
                // one at a time. Each frame pays the ring's metered early
                // copy; the pass itself allocates nothing but the frames.
                if let Some(frame) = queue.rx_pending.pop_front() {
                    return Some(frame);
                }
                let bufs = &mut queue.rx_bufs[..self.batch.max_batch()];
                let n = queue.rx.consume_batch_into(bufs).ok()?;
                let frames = bufs[..n].iter_mut().map(std::mem::take);
                queue.rx_pending.extend(frames);
                queue.rx_pending.pop_front()
            }
            RecvMode::Revoke => {
                let payload: RevokedPayload = queue.rx.consume_revoking().ok().flatten()?;
                // In-place processing: materialize without a metered copy,
                // then hand the pages back to the shared pool.
                let mut buf = vec![0u8; payload.len as usize];
                let view = self.mem.guest();
                view.read(payload.addr, &mut buf).ok()?;
                queue.rx.release_revoked(payload).ok()?;
                Some(buf)
            }
        }
    }
}

impl NetDevice for CioRingDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let q = cio_netstack::rss::steer(frame, self.mask);
        let queue = &mut self.queues[q];
        match queue.tx.produce(frame) {
            Ok(()) => {
                queue.tx.kick(); // no-op in polling mode
                Ok(())
            }
            Err(cio_vring::RingError::Full) => Err(NetError::DeviceFull),
            Err(cio_vring::RingError::TooLarge) => Err(NetError::TooLarge),
            Err(_) => Err(NetError::DeviceFull),
        }
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        if let Some(q) = self.active_rx {
            return self.recv_from(q);
        }
        // Round-robin: resume at the cursor so no queue starves when the
        // caller drains one frame at a time.
        for i in 0..self.queues.len() {
            let q = (self.rx_cursor + i) & self.mask as usize;
            if let Some(frame) = self.recv_from(q) {
                self.rx_cursor = q;
                return Some(frame);
            }
        }
        self.rx_cursor = (self.rx_cursor + 1) & self.mask as usize;
        None
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn rx_queues(&self) -> usize {
        self.queues.len()
    }

    fn select_rx_queue(&mut self, queue: Option<usize>) {
        // Masked-index discipline: an out-of-range request cannot select
        // an out-of-range queue.
        self.active_rx = queue.map(|q| q & self.mask as usize);
    }
}

/// Buffer geometry of one [`VirtqueueNetDevice`] arena.
#[derive(Debug, Clone, Copy)]
pub struct VqArena {
    /// Base of the buffer arena (shared pages for the traditional-VM
    /// model).
    pub base: GuestAddr,
    /// Per-buffer stride (>= MTU + Ethernet header).
    pub stride: u32,
    /// Buffers in the arena (>= queue size).
    pub count: u16,
}

impl VqArena {
    fn slot(&self, i: u16) -> GuestAddr {
        self.base.add(u64::from(i) * u64::from(self.stride))
    }
}

/// The unhardened virtio device (traditional lift-and-shift / DPDK-style):
/// shared buffer arena, zero-copy placement, zero validation.
pub struct VirtqueueNetDevice {
    tx: Driver,
    rx: Driver,
    tx_arena: VqArena,
    rx_arena: VqArena,
    tx_free: Vec<u16>,
    mem: GuestMemory,
    mac: MacAddr,
    /// The MTU read at initialisation.
    initial_mtu: u16,
    /// Host-writable config space, re-read on the data path (the
    /// historical double-fetch pattern the hardening commits removed).
    cfg: ConfigSpace,
}

impl VirtqueueNetDevice {
    /// Builds the device: posts every RX buffer up front.
    ///
    /// # Errors
    ///
    /// Transport errors during setup.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mut tx: Driver,
        mut rx: Driver,
        tx_arena: VqArena,
        rx_arena: VqArena,
        mem: GuestMemory,
        mac: MacAddr,
        cfg: ConfigSpace,
    ) -> Result<Self, CioError> {
        let initial_mtu = cfg.read_mtu(&mem.guest())?;
        for i in 0..rx_arena.count.min(rx.layout().qsize) {
            rx.add_buf(
                &[],
                &[DescSeg {
                    addr: rx_arena.slot(i),
                    len: rx_arena.stride,
                }],
                u64::from(i),
            )?;
        }
        let tx_free = (0..tx_arena.count.min(tx.layout().qsize)).collect();
        let _ = &mut tx;
        Ok(VirtqueueNetDevice {
            tx,
            rx,
            tx_arena,
            rx_arena,
            tx_free,
            mem,
            mac,
            initial_mtu,
            cfg,
        })
    }

    fn reclaim_tx(&mut self) {
        while let Ok(Some(done)) = self.tx.poll_used() {
            self.tx_free.push(done.token as u16);
        }
    }
}

impl NetDevice for VirtqueueNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        // Double fetch: the unhardened driver re-reads the host-owned MTU
        // on every transmit and trusts whatever it finds *now*.
        let mtu_now = self
            .cfg
            .read_mtu(&self.mem.guest())
            .unwrap_or(self.initial_mtu);
        if mtu_now != self.initial_mtu {
            // Oracle: the driver is acting on host-mutated configuration.
            self.mem.meter().violations_undetected(1);
        }
        if frame.len() > usize::from(mtu_now) + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        if frame.len() > self.tx_arena.stride as usize {
            // An inflated MTU lets frames overrun the per-slot buffer —
            // real cross-buffer corruption in the shared arena.
            self.mem.meter().violations_undetected(1);
            return Err(NetError::TooLarge);
        }
        self.reclaim_tx();
        let Some(slot) = self.tx_free.pop() else {
            return Err(NetError::DeviceFull);
        };
        let addr = self.tx_arena.slot(slot);
        // Zero-copy placement into the shared arena; the meter records the
        // bytes as unprotected zero-copy traffic.
        if self.mem.guest().write(addr, frame).is_err() {
            self.tx_free.push(slot);
            return Err(NetError::DeviceFull);
        }
        self.mem.meter().bytes_zero_copy(frame.len() as u64);
        if self
            .tx
            .add_buf(
                &[DescSeg {
                    addr,
                    len: frame.len() as u32,
                }],
                &[],
                u64::from(slot),
            )
            .is_err()
        {
            self.tx_free.push(slot);
            return Err(NetError::DeviceFull);
        }
        Ok(())
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let done = self.rx.poll_used().ok().flatten()?;
        let slot = (done.token as u16) % self.rx_arena.count;
        // Unhardened: the length is trusted as-is (the oracle flags abuse);
        // clamp only to keep the simulation itself well-defined.
        let len = (done.len).min(self.rx_arena.stride) as usize;
        let mut buf = vec![0u8; len];
        let addr = self.rx_arena.slot(slot);
        self.mem.guest().read(addr, &mut buf).ok()?;
        // Repost the buffer.
        let _ = self.rx.add_buf(
            &[],
            &[DescSeg {
                addr,
                len: self.rx_arena.stride,
            }],
            done.token,
        );
        Some(buf)
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        usize::from(self.initial_mtu)
    }
}

/// The hardened virtio device: validated completions + SWIOTLB bouncing.
pub struct HardenedVirtioNetDevice {
    tx: HardenedDriver,
    rx: HardenedDriver,
    mtu: usize,
    tokens: u64,
}

impl HardenedVirtioNetDevice {
    /// Builds the device and posts `rx_buffers` receive slots.
    ///
    /// # Errors
    ///
    /// Transport errors during setup.
    pub fn new(
        tx: HardenedDriver,
        mut rx: HardenedDriver,
        rx_buffers: u32,
    ) -> Result<Self, CioError> {
        let mut tokens = 0;
        for t in 0..u64::from(rx_buffers) {
            match rx.post_recv(t) {
                Ok(()) => tokens += 1,
                Err(cio_vring::RingError::Full) => break,
                Err(e) => return Err(e.into()),
            }
        }
        let mtu = usize::from(tx.mtu());
        Ok(HardenedVirtioNetDevice {
            tx,
            rx,
            mtu,
            tokens,
        })
    }

    fn reclaim_tx(&mut self) {
        // Hardened polling: violations surface as errors and are counted
        // by the meter; the device drops the poisoned completion.
        loop {
            match self.tx.poll() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => continue,
            }
        }
    }
}

impl NetDevice for HardenedVirtioNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.reclaim_tx();
        self.tokens += 1;
        match self.tx.send(frame, self.tokens) {
            Ok(()) => Ok(()),
            Err(cio_vring::RingError::TooLarge) => Err(NetError::TooLarge),
            Err(_) => Err(NetError::DeviceFull),
        }
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        loop {
            match self.rx.poll() {
                Ok(Some((_done, Some(data)))) => {
                    // Repost a fresh buffer to keep the queue primed.
                    self.tokens += 1;
                    let _ = self.rx.post_recv(self.tokens);
                    return Some(data);
                }
                Ok(Some((_done, None))) => continue,
                Ok(None) => return None,
                Err(_) => {
                    // Detected violation: drop it and repost.
                    self.tokens += 1;
                    let _ = self.rx.post_recv(self.tokens);
                    continue;
                }
            }
        }
    }

    fn mac(&self) -> MacAddr {
        MacAddr(self.tx.mac())
    }

    fn mtu(&self) -> usize {
        // The negotiated MTU is already the IP-payload limit.
        self.mtu
    }
}

/// The attested, IDE-protected NIC of the DDA path (§3.4).
///
/// The TEE end protects/unprotects every frame; the device end (inside
/// this struct — the host cannot see into the device) forwards to the
/// fabric. `tamper_after_attestation` models the paper's §3.4 caveat.
pub struct IdeNetDevice {
    tee_end: IdeChannel,
    dev_end: IdeChannel,
    port: cio_host::FabricPort,
    recorder: cio_host::Recorder,
    mac: MacAddr,
    mtu: usize,
    /// When set, the (attested!) device flips a bit in every forwarded
    /// frame — post-attestation compromise.
    pub tamper_after_attestation: bool,
}

impl IdeNetDevice {
    /// Builds the device from two ends of an attested IDE session.
    pub fn new(
        tee_end: IdeChannel,
        dev_end: IdeChannel,
        port: cio_host::FabricPort,
        recorder: cio_host::Recorder,
        mac: MacAddr,
        mtu: usize,
    ) -> Self {
        IdeNetDevice {
            tee_end,
            dev_end,
            port,
            recorder,
            mac,
            mtu,
            tamper_after_attestation: false,
        }
    }

    fn record_tlp(&self, len: usize) {
        // The host sees only encrypted TLPs: size and timing, no headers.
        self.recorder.record(
            "tlp",
            cio_host::observe::bits::LENGTH + cio_host::observe::bits::TIMING,
        );
        let _ = len;
    }
}

impl NetDevice for IdeNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        let tlp = self.tee_end.protect(frame);
        self.record_tlp(tlp.len());
        // The device decrypts on its side of the link and puts the frame
        // on the wire.
        let mut inner = self
            .dev_end
            .unprotect(&tlp)
            .map_err(|_| NetError::Malformed)?;
        if self.tamper_after_attestation && !inner.is_empty() {
            let idx = inner.len() / 2;
            inner[idx] ^= 0x01;
        }
        self.port.transmit(&inner)
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let frame = self.port.receive()?;
        let tlp = self.dev_end.protect(&frame);
        self.record_tlp(tlp.len());
        self.tee_end.unprotect(&tlp).ok()
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}

/// The LightBox-style tunnel device: whole L2 frames sealed into a cTLS
/// channel provisioned at deployment, carried to the gateway as opaque
/// blobs. The host (and the local network) learn only blob sizes and
/// timing.
///
/// One transmit path and one receive path, whatever the policies: frames
/// gather until the batch policy's run is full (Serial: at once), one
/// AEAD pass seals the run into one reserved ring run, and receives drain
/// and open a run at a time. Whether the seal lands in slot memory or in
/// private staging that the ring then copies is the carrier endpoints'
/// [`CopyPolicy`], wired by [`TunnelDevice::set_copy_policy`].
pub struct TunnelDevice {
    inner_tx: Producer<GuestView>,
    inner_rx: Consumer<GuestView>,
    chan: cio_ctls::Channel,
    mac: MacAddr,
    mtu: usize,
    /// Batch discipline for the carrier ring.
    batch: BatchPolicy,
    /// The carrier memory domain's virtual clock, read to enforce the
    /// adaptive policy's latency cap on partially filled batches.
    clock: Clock,
    /// Frames accepted by `transmit` but not yet sealed onto the carrier.
    /// Bounded by the policy's batch size.
    tx_pending: VecDeque<Vec<u8>>,
    /// Virtual time the oldest pending frame was accepted.
    tx_pending_since: Option<Cycles>,
    /// Pool backing `tx_pending`, so steady-state transmit allocates
    /// nothing once the pool has warmed up.
    pool: BufPool,
    /// Plaintexts opened by one receive pass, handed out one per
    /// `receive` call.
    rx_pending: VecDeque<Vec<u8>>,
    /// Per-record scratches for the open pass.
    batch_outs: Vec<cio_ctls::RecordScratch>,
}

impl TunnelDevice {
    /// Wraps the carrier rings with the provisioned tunnel channel.
    pub fn new(
        inner_tx: Producer<GuestView>,
        inner_rx: Consumer<GuestView>,
        chan: cio_ctls::Channel,
        mac: MacAddr,
        mtu: usize,
    ) -> Self {
        let clock = inner_tx.clock();
        TunnelDevice {
            inner_tx,
            inner_rx,
            chan,
            mac,
            mtu,
            batch: BatchPolicy::default(),
            clock,
            tx_pending: VecDeque::new(),
            tx_pending_since: None,
            pool: BufPool::new(MAX_BATCH),
            rx_pending: VecDeque::new(),
            batch_outs: std::iter::repeat_with(cio_ctls::RecordScratch::new)
                .take(MAX_BATCH)
                .collect(),
        }
    }

    /// Wires the carrier's data positioning (§3.2) onto both ring
    /// endpoints: in place, records are sealed straight into reserved
    /// slots and opened straight out of them; [`CopyPolicy::CopyEarly`]
    /// (the discipline adversarial double-fetch configurations demand)
    /// seals into private staging and pays the explicit interface copy
    /// each way.
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        self.inner_tx.set_copy_policy(policy);
        self.inner_rx.set_copy_policy(policy);
    }

    /// Selects the carrier's batch discipline: how many transmits gather
    /// for one shared-keystream AEAD pass into one reserved run (one
    /// lock, one index publish), and how many records one receive pass
    /// drains.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch = batch;
    }

    /// Seals as many pending frames as the carrier grants, in reserved
    /// runs of up to the policy's batch size. Returns whether the queue
    /// fully drained; a partial grant seals the granted prefix and leaves
    /// the rest pending (transient backpressure, retried next flush).
    fn flush_tx(&mut self) -> bool {
        while !self.tx_pending.is_empty() {
            let n = self.tx_pending.len().min(self.batch.max_batch());
            let cap = self
                .tx_pending
                .iter()
                .take(n)
                .map(Vec::len)
                .max()
                .unwrap_or(0)
                + cio_ctls::RECORD_OVERHEAD;
            let grant = match self.inner_tx.reserve_batch(cap, n) {
                Ok(g) => g,
                Err(_) => return false,
            };
            let g = grant.len().min(n);
            let mut pts: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
            for (i, f) in self.tx_pending.iter().take(g).enumerate() {
                pts[i] = f.as_slice();
            }
            let mut lens = [0usize; MAX_BATCH];
            let chan = &mut self.chan;
            let sealed = self.inner_tx.with_batch_mut(&grant, |slots| {
                chan.seal_batch_into_slots(&pts[..g], &mut slots[..g], &mut lens[..g])
            });
            if !matches!(sealed, Ok(Ok(()))) {
                return false;
            }
            if self.inner_tx.commit_batch(grant, &lens[..g]).is_err() {
                return false;
            }
            self.inner_tx.kick();
            for _ in 0..g {
                if let Some(buf) = self.tx_pending.pop_front() {
                    self.pool.put(buf);
                }
            }
        }
        self.tx_pending_since = None;
        true
    }

    /// Drains one run off the carrier: a single locked pass fetches the
    /// run, one AEAD pass opens it, and the opened plaintexts queue for
    /// per-call hand-out. Host-injected garbage fails its own open and is
    /// dropped without touching the rest of the run — the tunnel boundary
    /// is exactly one AEAD check wide. Returns how many records were
    /// consumed.
    fn drain_rx(&mut self) -> usize {
        let chan = &mut self.chan;
        let outs = &mut self.batch_outs;
        let rx_pending = &mut self.rx_pending;
        self.inner_rx
            .consume_batch_in_place(self.batch.max_batch(), |slots| {
                let k = slots.len();
                let mut recs: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
                for (i, s) in slots.iter().enumerate() {
                    recs[i] = s;
                }
                let mut results: [Result<(), cio_ctls::CtlsError>; MAX_BATCH] = [Ok(()); MAX_BATCH];
                chan.open_batch_in_slots(&recs[..k], &mut outs[..k], &mut results[..k]);
                for (out, res) in outs[..k].iter().zip(&results[..k]) {
                    if res.is_ok() {
                        rx_pending.push_back(out.as_slice().to_vec());
                    }
                }
            })
            .unwrap_or(0)
    }
}

impl NetDevice for TunnelDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        // Gather-then-flush: frames queue until the policy's batch fills
        // or the adaptive latency cap expires, then one reserved run takes
        // the whole batch. A full queue that will not flush (carrier
        // backpressure) refuses the frame.
        if self.tx_pending.len() >= self.batch.max_batch() && !self.flush_tx() {
            return Err(NetError::DeviceFull);
        }
        let now = self.clock.now();
        let mut buf = self.pool.get();
        buf.extend_from_slice(frame);
        self.tx_pending.push_back(buf);
        let since = *self.tx_pending_since.get_or_insert(now);
        let due = self
            .batch
            .latency_cap()
            .is_some_and(|cap| now.get().saturating_sub(since.get()) >= cap.get());
        if self.tx_pending.len() >= self.batch.max_batch() || due {
            self.flush_tx();
        }
        Ok(())
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        // A receive pass is the tunnel's progress point: flush any
        // gathered transmit batch first so partially filled batches never
        // outlive the pump iteration that could have sent them.
        if !self.tx_pending.is_empty() {
            self.flush_tx();
        }
        loop {
            if let Some(frame) = self.rx_pending.pop_front() {
                return Some(frame);
            }
            if self.drain_rx() == 0 {
                return None;
            }
        }
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}

/// Simple bump allocator for laying out structures in guest memory.
#[derive(Debug)]
pub struct GuestLayoutAlloc {
    next: u64,
    limit: u64,
}

impl GuestLayoutAlloc {
    /// Allocates from `[start, limit)`.
    pub fn new(start: GuestAddr, limit: GuestAddr) -> Self {
        GuestLayoutAlloc {
            next: start.0,
            limit: limit.0,
        }
    }

    /// Carves out `bytes` bytes aligned to `align` (power of two).
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] when out of reserved space — a configuration
    /// error, caught at construction per the stateless principle.
    pub fn alloc(&mut self, bytes: usize, align: u64) -> Result<GuestAddr, CioError> {
        let aligned = (self.next + align - 1) & !(align - 1);
        let end = aligned + bytes as u64;
        if end > self.limit {
            return Err(CioError::Fatal("guest layout region exhausted"));
        }
        self.next = end;
        Ok(GuestAddr(aligned))
    }

    /// Page-aligned allocation helper.
    ///
    /// # Errors
    ///
    /// As [`GuestLayoutAlloc::alloc`].
    pub fn alloc_pages(&mut self, pages: usize) -> Result<GuestAddr, CioError> {
        self.alloc(pages * cio_mem::PAGE_SIZE, cio_mem::PAGE_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_alloc_aligns_and_bounds() {
        let mut a = GuestLayoutAlloc::new(GuestAddr(100), GuestAddr(10_000));
        let x = a.alloc(50, 64).unwrap();
        assert_eq!(x.0 % 64, 0);
        let y = a.alloc(50, 64).unwrap();
        assert!(y.0 >= x.0 + 50);
        let p = a.alloc_pages(1).unwrap();
        assert!(p.is_page_aligned());
        assert!(a.alloc(10_000, 1).is_err());
    }
}
