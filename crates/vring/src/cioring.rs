//! The paper's safe-by-construction ring (§3.2, "Hardening L2").
//!
//! Every design principle from the paper maps to a concrete mechanism:
//!
//! | Principle | Mechanism here |
//! |---|---|
//! | Stateless interface | [`RingConfig`] is validated once and immutable; every data-plane call is self-contained; misconfiguration is [`RingError::Fatal`] at construction, not an error path at runtime |
//! | Copy as first-class | each endpoint carries one [`CopyPolicy`], wired at deployment: copy-early endpoints perform exactly one early, metered copy per record; in-place endpoints skip it where double fetch is impossible by layout. Callers never choose per call |
//! | No notifications | [`NotifyMode::Polling`] is the default; [`NotifyMode::Doorbell`] exists for E8 and draining on a doorbell is stateless and idempotent (the consumer holds nothing but its private counter) |
//! | Zero (re-)negotiation | MAC/MTU/checksum policy are fields of the fixed config; there is no runtime control plane at all |
//! | Safe ring & shared area | slot count, slot size, and area size are powers of two; every index/offset read from shared memory is masked (`x & (n-1)`) and every length clamped, so no host value can steer an access out of bounds |
//!
//! The ring is single-producer single-consumer with free-running `u32`
//! indices. The producer trusts only its private produce counter; the
//! consumer trusts only its private consume counter; the shared index
//! words are *hints* whose misuse is either detected ([`Violation::BadIndex`])
//! or harmless by masking.
//!
//! There is one produce path and one consume path. The producer primitive
//! is [`Producer::reserve_batch`] → [`Producer::with_batch_mut`] →
//! [`Producer::commit_batch`]; the consumer primitive is
//! [`Consumer::consume_batch_in_place`]. Everything else
//! ([`Producer::produce`], [`Producer::stage`], [`Producer::reserve`] /
//! [`Producer::commit`], [`Consumer::consume`],
//! [`Consumer::consume_batch_into`], [`Consumer::consume_in_place`]) is a
//! few-line adapter over a run of one or a different buffer shape, with
//! bit-identical charges.
//!
//! Payload placement is configurable for experiment E6:
//! [`DataMode::Inline`] (payload in the slot) and [`DataMode::SharedArea`]
//! (slot holds offset+len into a dedicated area, one fetch). For E7, a
//! page-aligned area enables [`Consumer::consume_revoking`], which
//! un-shares the payload pages instead of copying; it lives in the child
//! module `revoke`, because no world's device runs it.

mod revoke;

pub use revoke::RevokedPayload;

use crate::{RingError, Violation};
use cio_mem::{CopyPolicy, GuestAddr, MemView, PAGE_SIZE};
use cio_sim::{Cycles, Stage, Telemetry};

/// Where payload bytes live relative to the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Payload inline in the ring slot after a 4-byte length.
    Inline,
    /// Slot holds `{offset u32, len u32}` into the shared data area.
    SharedArea,
}

/// Whether the consumer polls or is kicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// Consumer polls (the paper's default: no notification concurrency).
    Polling,
    /// Producer posts a doorbell after each batch.
    Doorbell,
    /// Doorbell with event-idx suppression: the consumer publishes how far
    /// it has consumed (the *event index*), and the producer rings only
    /// when a publish crosses it — a stale index proves the consumer is
    /// still awake and the kick is suppressed, so one doorbell covers many
    /// batches. The event index is a host-writable field and is treated as
    /// hostile input: fetched once, window-validated, and failed *toward*
    /// notification (see [`Producer::kick`]).
    EventIdx,
}

/// How a dataplane endpoint decides between polling and notifications.
///
/// Orthogonal to [`BatchPolicy`]: batching amortizes work *per doorbell*,
/// the notify policy decides how many doorbells there are at all. `Always`
/// is the historical discipline (one kick per publish in doorbell mode);
/// `EventIdx` suppresses kicks whenever the consumer is provably awake;
/// `Adaptive` additionally runs a per-queue poll-vs-notify controller on
/// the consuming side (poll while hot, re-arm notifications when idle,
/// with hysteresis and a bounded idle-spin budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NotifyPolicy {
    /// Kick on every publish (the historical path, unchanged).
    #[default]
    Always,
    /// Event-idx suppression on the ring; the consumer services every
    /// round (no skip controller).
    EventIdx,
    /// Event-idx suppression plus the NAPI-style per-queue controller:
    /// the consumer skips service passes while provably idle and re-arms
    /// notifications within a bounded idle-spin budget.
    Adaptive,
}

/// The fixed, zero-renegotiation device configuration.
///
/// Everything a virtio control plane would negotiate at runtime is fixed
/// here at deployment: "parameters like MAC address, MTU size, or who
/// calculates checksums are known at device startup" (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Number of ring slots; must be a power of two.
    pub slots: u32,
    /// Bytes per slot; must be a power of two ≥ 16.
    pub slot_size: u32,
    /// Payload placement.
    pub mode: DataMode,
    /// Maximum payload bytes per transfer (the fixed MTU).
    pub mtu: u32,
    /// Fixed device MAC.
    pub mac: [u8; 6],
    /// Fixed checksum-offload policy (who computes checksums).
    pub csum_offload: bool,
    /// Notification discipline.
    pub notify: NotifyMode,
    /// Shared-area bytes (non-inline modes); must be a power of two.
    pub area_size: u32,
    /// Align each payload region to a page, enabling revocation receive.
    pub page_aligned_payloads: bool,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            slots: 256,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 1500,
            mac: [0x02, 0, 0, 0, 0, 0x01],
            csum_offload: true,
            notify: NotifyMode::Polling,
            area_size: 1 << 19, // 512 KiB -> 2 KiB stride at 256 slots
            page_aligned_payloads: false,
        }
    }
}

impl RingConfig {
    /// Bytes of payload stride each slot owns in the shared area.
    pub fn stride(&self) -> u32 {
        self.area_size / self.slots
    }

    /// Inline payload capacity.
    pub fn inline_capacity(&self) -> u32 {
        self.slot_size.saturating_sub(4)
    }

    /// Validates the configuration; all errors are fatal by design.
    ///
    /// # Errors
    ///
    /// [`RingError::Fatal`] with a description of the broken invariant.
    pub fn validate(&self) -> Result<(), RingError> {
        if self.slots == 0 || !self.slots.is_power_of_two() {
            return Err(RingError::Fatal("slot count must be a power of two"));
        }
        if self.slot_size < 16 || !self.slot_size.is_power_of_two() {
            return Err(RingError::Fatal("slot size must be a power of two >= 16"));
        }
        if self.mtu == 0 {
            return Err(RingError::Fatal("mtu must be non-zero"));
        }
        match self.mode {
            DataMode::Inline => {
                if self.mtu > self.inline_capacity() {
                    return Err(RingError::Fatal("mtu exceeds inline slot capacity"));
                }
                if self.page_aligned_payloads {
                    return Err(RingError::Fatal(
                        "revocation requires a shared area, not inline slots",
                    ));
                }
            }
            DataMode::SharedArea => {
                if self.area_size == 0 || !self.area_size.is_power_of_two() {
                    return Err(RingError::Fatal("area size must be a power of two"));
                }
                if self.area_size < self.slots {
                    return Err(RingError::Fatal("area smaller than slot count"));
                }
                if self.mtu > self.stride() {
                    return Err(RingError::Fatal("mtu exceeds per-slot area stride"));
                }
                if self.page_aligned_payloads && !(self.stride() as usize).is_multiple_of(PAGE_SIZE)
                {
                    return Err(RingError::Fatal("revocation requires page-multiple stride"));
                }
            }
        }
        Ok(())
    }
}

/// Geometry of one direction of the interface.
///
/// ```text
/// base + 0:    producer index (u32), cache-line isolated
/// base + 8:    doorbell word  (u32, producer-set on a real kick)
/// base + 64:   consumer index (u32)
/// base + 96:   event index    (u32, consumer-published; EventIdx mode)
/// base + 128:  slots           (slots * slot_size bytes)
/// area:        payload area     (non-inline modes; caller-provided base)
/// ```
#[derive(Debug, Clone)]
pub struct CioRing {
    cfg: RingConfig,
    base: GuestAddr,
    area: GuestAddr,
}

impl CioRing {
    /// Creates and validates the ring geometry.
    ///
    /// # Errors
    ///
    /// Fatal config errors; misaligned area for revocation mode.
    pub fn new(cfg: RingConfig, base: GuestAddr, area: GuestAddr) -> Result<Self, RingError> {
        cfg.validate()?;
        if cfg.page_aligned_payloads && !area.is_page_aligned() {
            return Err(RingError::Fatal("revocation requires page-aligned area"));
        }
        Ok(CioRing { cfg, base, area })
    }

    /// The fixed configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    fn slot_mask(&self) -> u32 {
        self.cfg.slots - 1
    }

    /// Address of the shared producer index (public so adversarial
    /// harnesses can aim at it; the *guest* never trusts it unmasked).
    pub fn prod_idx_addr(&self) -> GuestAddr {
        self.base
    }

    /// Address of the shared consumer index.
    pub fn cons_idx_addr(&self) -> GuestAddr {
        self.base.add(64)
    }

    /// Address of the doorbell word: set by the producer when a kick is
    /// actually posted ([`NotifyMode::EventIdx`] bookkeeping), read and
    /// cleared by the host when it decides whether to service the ring.
    /// Lives on the producer-index cache line.
    pub fn door_addr(&self) -> GuestAddr {
        self.base.add(8)
    }

    /// Address of the consumer-published event index
    /// ([`NotifyMode::EventIdx`]). The producer treats this word as
    /// hostile input; public so adversarial harnesses can aim at it.
    pub fn event_idx_addr(&self) -> GuestAddr {
        self.base.add(96)
    }

    /// Address of slot `masked` (adversary targeting).
    pub fn slot_addr(&self, masked: u32) -> GuestAddr {
        self.base
            .add(128 + u64::from(masked) * u64::from(self.cfg.slot_size))
    }

    /// Payload region owned by slot `masked` (non-inline modes).
    pub fn payload_addr(&self, masked: u32) -> GuestAddr {
        self.area
            .add(u64::from(masked) * u64::from(self.cfg.stride()))
    }

    /// Where slot `masked`'s payload bytes go in this layout.
    fn data_addr(&self, masked: u32) -> GuestAddr {
        match self.cfg.mode {
            DataMode::Inline => self.slot_addr(masked).add(4),
            DataMode::SharedArea => self.payload_addr(masked),
        }
    }

    /// Distance between consecutive slots' payload bytes.
    fn data_stride(&self) -> usize {
        match self.cfg.mode {
            DataMode::Inline => self.cfg.slot_size as usize,
            DataMode::SharedArea => self.cfg.stride() as usize,
        }
    }

    /// Total bytes of ring structures (excluding the payload area).
    pub fn ring_bytes(&self) -> usize {
        128 + self.cfg.slots as usize * self.cfg.slot_size as usize
    }

    /// Bytes of payload area required (0 for inline mode).
    pub fn area_bytes(&self) -> usize {
        if self.cfg.mode == DataMode::Inline {
            0
        } else {
            self.cfg.area_size as usize
        }
    }
}

fn charge_ring_ops<V: MemView>(view: &V, n: u64) {
    let mem = view.memory();
    mem.clock().advance(Cycles(mem.cost().ring_op.get() * n));
}

fn charge_copy<V: MemView>(view: &V, bytes: usize) {
    let mem = view.memory();
    mem.clock().advance(mem.cost().copy(bytes));
    mem.meter().copies(1);
    mem.meter().bytes_copied(bytes as u64);
}

/// Upper bound on the records one batched reserve/commit/consume call can
/// cover. Small enough that per-batch bookkeeping lives in stack arrays
/// (the zero-allocation discipline of the steady-state loops), large
/// enough to amortize the per-batch costs to noise.
pub const MAX_BATCH: usize = 16;

/// How a dataplane endpoint sizes its record batches.
///
/// The batch — not the record — is the unit of boundary crossing under
/// any policy: one memory-lock acquisition, one index publish, and (in
/// doorbell mode) one kick cover the whole run. `Serial` is the default
/// and is simply the run of one — the same code, sized at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// One record per boundary crossing.
    #[default]
    Serial,
    /// Always attempt batches of exactly `n` records (clamped to
    /// [`MAX_BATCH`]).
    Fixed(usize),
    /// Load-adaptive: batch up to `max` records when the backlog offers
    /// them, but never hold a partially filled batch longer than
    /// `latency_cap` virtual cycles — idle links must not queue.
    Adaptive {
        /// Largest batch to attempt (clamped to [`MAX_BATCH`]).
        max: usize,
        /// Bound on how long a partial batch may wait before flushing.
        latency_cap: Cycles,
    },
}

impl BatchPolicy {
    /// The largest batch this policy will ever attempt.
    #[inline]
    pub fn max_batch(&self) -> usize {
        match *self {
            BatchPolicy::Serial => 1,
            BatchPolicy::Fixed(n) => n.clamp(1, MAX_BATCH),
            BatchPolicy::Adaptive { max, .. } => max.clamp(1, MAX_BATCH),
        }
    }

    /// The virtual-cycle bound on holding a partial batch, when one exists.
    #[inline]
    pub fn latency_cap(&self) -> Option<Cycles> {
        match *self {
            BatchPolicy::Adaptive { latency_cap, .. } => Some(latency_cap),
            _ => None,
        }
    }
}

/// A reserved *run* of ring slots awaiting record construction.
///
/// Returned by [`Producer::reserve_batch`] (and [`Producer::reserve`], the
/// run of one); consumed by [`Producer::commit_batch`]. The grant is plain
/// geometry — it holds no borrow, so the producer stays usable while it is
/// outstanding, and dropping a grant without committing simply leaves the
/// slots unpublished. The run is always contiguous in the ring (the
/// reservation is clamped at the wrap), so one memory-lock acquisition
/// covers every slot in the batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchGrant {
    first_masked: u32,
    n: u32,
    capacity: u32,
}

impl BatchGrant {
    /// Number of slots in the granted run (1 ..= [`MAX_BATCH`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether the grant covers no slots (never true for a grant returned
    /// by [`Producer::reserve_batch`], which errs instead).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Writable bytes granted in each slot.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }
}

/// The positioning a producer actually runs: inline slots share a cache
/// line with ring metadata and demand the copy by layout, whatever the
/// deployment asked for. The one place the layout overrides the policy.
fn effective_policy(ring: &CioRing, policy: CopyPolicy) -> CopyPolicy {
    match ring.cfg.mode {
        DataMode::Inline => CopyPolicy::CopyEarly,
        DataMode::SharedArea => policy,
    }
}

/// Private staging for a copy-early endpoint: room for one full run of
/// MTU-sized records, allocated when the positioning is wired so the data
/// path never allocates. In-place endpoints carry none.
fn staging_for(ring: &CioRing, policy: CopyPolicy) -> Vec<u8> {
    match policy {
        CopyPolicy::InPlace => Vec::new(),
        CopyPolicy::CopyEarly => vec![0; MAX_BATCH * ring.cfg.mtu as usize],
    }
}

/// Carves `region` into the ascending, non-overlapping `(offset, len)`
/// windows of one run and hands them to `f`, in order.
fn carve_run<R>(
    mut region: &mut [u8],
    windows: impl Iterator<Item = (usize, usize)>,
    f: impl FnOnce(&mut [&mut [u8]]) -> R,
) -> R {
    let mut slots: [&mut [u8]; MAX_BATCH] = std::array::from_fn(|_| &mut [][..]);
    let (mut consumed, mut n) = (0, 0);
    for (offset, len) in windows {
        let (_, after) = std::mem::take(&mut region).split_at_mut(offset - consumed);
        let (head, tail) = after.split_at_mut(len);
        slots[n] = head;
        region = tail;
        consumed = offset + len;
        n += 1;
    }
    f(&mut slots[..n])
}

/// Runs `visit` over the validated payload windows of one run while they
/// are locked. When the windows form an ascending, non-overlapping run
/// (which the honest producer's stride layout always yields) one locked
/// region covers them all and `visit` sees the whole run at once; a
/// hostile layout that aliases or reorders windows degrades to one lock
/// — and one single-record `visit` — per record.
fn visit_run_locked<V: MemView>(
    view: &V,
    metas: &[(GuestAddr, u32)],
    mut visit: impl FnMut(&mut [&mut [u8]]),
) -> Result<(), RingError> {
    let meter = view.memory().meter();
    let disjoint_ascending = metas
        .windows(2)
        .all(|w| w[0].0 .0 + u64::from(w[0].1) <= w[1].0 .0);
    if disjoint_ascending {
        let (base, (last, last_len)) = (metas[0].0, metas[metas.len() - 1]);
        let span = (last.0 + u64::from(last_len) - base.0) as usize;
        view.with_range_mut(base, span, |region| {
            let windows = metas
                .iter()
                .map(|&(addr, len)| ((addr.0 - base.0) as usize, len as usize));
            carve_run(region, windows, visit)
        })?;
        meter.lock_acquisitions(1);
    } else {
        for &(addr, len) in metas {
            view.with_range_mut(addr, len as usize, |bytes| visit(&mut [bytes]))?;
            meter.lock_acquisitions(1);
        }
    }
    Ok(())
}

/// The producing endpoint (either side of the trust boundary).
pub struct Producer<V: MemView> {
    ring: CioRing,
    view: V,
    /// Private produce counter — the only index the producer trusts.
    next: u32,
    /// The value of `next` at the last kick decision (the `old` of the
    /// event-idx crossing rule).
    published: u32,
    /// Monotonicity shadow of the peer's event index: the last *valid*
    /// value observed. A hostile event word can never move this backwards.
    ev_seen: u32,
    /// Data positioning (§3.2): in place, record builders see slot memory;
    /// copy-early, they see `staging` and placement pays the metered copy.
    policy: CopyPolicy,
    staging: Vec<u8>,
    /// Telemetry domain (disabled by default) and the queue index this
    /// endpoint reports under.
    telemetry: Telemetry,
    tq: usize,
}

impl<V: MemView> Producer<V> {
    /// Creates a producer and zeroes the shared producer index. The
    /// endpoint starts with the default [`CopyPolicy`]; deployments wire
    /// theirs with [`Producer::set_copy_policy`].
    ///
    /// # Errors
    ///
    /// Memory errors if the ring region is not accessible to this view.
    pub fn new(ring: CioRing, view: V) -> Result<Self, RingError> {
        view.write_u32(ring.prod_idx_addr(), 0)?;
        view.write_u32(ring.door_addr(), 0)?;
        let policy = effective_policy(&ring, CopyPolicy::default());
        Ok(Producer {
            staging: staging_for(&ring, policy),
            ring,
            view,
            next: 0,
            published: 0,
            ev_seen: 0,
            policy,
            telemetry: Telemetry::disabled(),
            tq: 0,
        })
    }

    /// Wires this endpoint's data positioning (set once, at deployment).
    /// [`CopyPolicy::InPlace`]: records are built directly in slot memory
    /// and metered as zero-copy. [`CopyPolicy::CopyEarly`]: records are
    /// built in endpoint-private staging and placed with one explicit,
    /// metered copy each. Inline rings run copy-early regardless.
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        self.policy = effective_policy(&self.ring, policy);
        self.staging = staging_for(&self.ring, self.policy);
    }

    /// The positioning this endpoint runs (after the layout's say).
    pub fn copy_policy(&self) -> CopyPolicy {
        self.policy
    }

    /// Arms telemetry: ring operations are recorded as
    /// [`Stage::RingProduce`] spans under `queue`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.telemetry = telemetry;
        self.tq = queue;
    }

    /// Moves this endpoint onto a different view of the same memory,
    /// preserving the private produce counter, positioning, and telemetry
    /// binding.
    ///
    /// Unlike [`Producer::new`], nothing in the shared region is
    /// touched, so an in-flight ring keeps its state mid-stream. This is
    /// the thread-safe handoff of the thread-per-queue parallel host: an
    /// endpoint built on the coordinator is rebound to a view whose
    /// memory handle charges the owning worker's lane clock, then moved
    /// to that worker (`Producer` is `Send` whenever the view is).
    pub fn rebind<W: MemView>(self, view: W) -> Producer<W> {
        Producer {
            ring: self.ring,
            view,
            next: self.next,
            published: self.published,
            ev_seen: self.ev_seen,
            policy: self.policy,
            staging: self.staging,
            telemetry: self.telemetry,
            tq: self.tq,
        }
    }

    /// The ring geometry.
    pub fn ring(&self) -> &CioRing {
        &self.ring
    }

    /// The operation meter of this endpoint's memory domain. Transport
    /// layers stacked over the ring (e.g. the block frontend) use it to
    /// charge their own path-level counters without a separate handle.
    pub fn meter(&self) -> cio_sim::Meter {
        self.view.memory().meter().clone()
    }

    /// The virtual clock of this endpoint's memory domain. Batching
    /// callers use it to enforce an [`BatchPolicy::Adaptive`] latency cap
    /// without threading a separate clock handle.
    pub fn clock(&self) -> cio_sim::Clock {
        self.view.memory().clock().clone()
    }

    fn in_flight(&self) -> Result<u32, RingError> {
        // The consumer index is a *hint*: a lying peer can only cause
        // spurious Full results (peer's own loss), never unsafety.
        let cons = self.view.read_u32(self.ring.cons_idx_addr())?;
        Ok(self.next.wrapping_sub(cons).min(self.ring.cfg.slots))
    }

    /// Reserves a contiguous run of up to `want` free slots for record
    /// construction, each granting `len` writable bytes.
    ///
    /// The run is clamped to the free-slot count, to the ring wrap (so it
    /// is one contiguous region — one memory-lock acquisition covers it
    /// all), and to [`MAX_BATCH`]. Nothing is visible to the consumer
    /// until [`Producer::commit_batch`]; re-reserving before committing
    /// simply hands the same slots out again.
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] over the fixed MTU; [`RingError::Full`] when
    /// no slot at all is free (a *partial* grant is not an error — callers
    /// treat `grant.len() < want` as transient backpressure and retry the
    /// remainder later).
    pub fn reserve_batch(&mut self, len: usize, want: usize) -> Result<BatchGrant, RingError> {
        let _span = self.telemetry.span(self.tq, Stage::RingProduce);
        if len > self.ring.cfg.mtu as usize {
            return Err(RingError::TooLarge);
        }
        let free = self.ring.cfg.slots - self.in_flight()?;
        if free == 0 {
            return Err(RingError::Full);
        }
        let first_masked = self.next & self.ring.slot_mask();
        // Clamp to the wrap so the run's payload windows are contiguous.
        let until_wrap = self.ring.cfg.slots - first_masked;
        let n = (want.max(1) as u32)
            .min(free)
            .min(until_wrap)
            .min(MAX_BATCH as u32);
        Ok(BatchGrant {
            first_masked,
            n,
            capacity: len as u32,
        })
    }

    /// Runs `f` over every reserved slot's writable bytes: one mutable
    /// slice per granted slot, in ring order, each `grant.capacity()`
    /// bytes long.
    ///
    /// In place, the closure sees the real slot memory under a *single*
    /// memory-lock acquisition — sealing a record here positions
    /// ciphertext exactly where the consumer will read it — and must not
    /// touch guest memory again while it runs (see
    /// `GuestMemory::with_range`). Copy-early, it sees the endpoint's
    /// private staging and nothing shared is touched until commit.
    ///
    /// # Errors
    ///
    /// Memory errors if the run is not accessible to this view.
    pub fn with_batch_mut<R>(
        &mut self,
        grant: &BatchGrant,
        f: impl FnOnce(&mut [&mut [u8]]) -> R,
    ) -> Result<R, RingError> {
        let (n, cap) = (grant.n as usize, grant.capacity as usize);
        match self.policy {
            CopyPolicy::InPlace => {
                let stride = self.ring.data_stride();
                let base = self.ring.data_addr(grant.first_masked);
                let out = self
                    .view
                    .with_range_mut(base, (n - 1) * stride + cap, |region| {
                        carve_run(region, (0..n).map(|i| (i * stride, cap)), f)
                    })?;
                self.view.memory().meter().lock_acquisitions(1);
                Ok(out)
            }
            CopyPolicy::CopyEarly => {
                let staged = &mut self.staging[..n * cap];
                Ok(carve_run(staged, (0..n).map(|i| (i * cap, cap)), f))
            }
        }
    }

    /// Writes one slot's metadata — the only per-mode code on the produce
    /// side: 1 ring op inline, 2 for the shared area.
    fn write_slot_meta(&self, masked: u32, len: u32) -> Result<(), RingError> {
        let slot = self.ring.slot_addr(masked);
        let offset = masked * self.ring.cfg.stride();
        match self.ring.cfg.mode {
            DataMode::Inline => {
                self.view.write_u32(slot, len)?;
                charge_ring_ops(&self.view, 1);
            }
            DataMode::SharedArea => {
                self.view.write_u32(slot, offset)?;
                self.view.write_u32(slot.add(4), len)?;
                charge_ring_ops(&self.view, 2);
            }
        }
        Ok(())
    }

    /// Places the first `lens.len()` records of a granted run: copy-early
    /// endpoints pay their explicit metered copy from staging into the
    /// slots here (one lock for the run); every record's metadata is
    /// written; the private produce counter advances. Nothing is visible
    /// to the consumer until the index is published.
    fn place_run(&mut self, grant: &BatchGrant, lens: &[usize]) -> Result<(), RingError> {
        if lens.len() > grant.n as usize || lens.iter().any(|&l| l > grant.capacity as usize) {
            return Err(RingError::TooLarge);
        }
        if lens.is_empty() {
            return Ok(());
        }
        let meter = self.view.memory().meter();
        if self.policy == CopyPolicy::CopyEarly {
            let (stride, cap) = (self.ring.data_stride(), grant.capacity as usize);
            let base = self.ring.data_addr(grant.first_masked);
            let staged = &self.staging;
            self.view
                .with_range_mut(base, (lens.len() - 1) * stride + cap, |region| {
                    for (i, &len) in lens.iter().enumerate() {
                        region[i * stride..][..len].copy_from_slice(&staged[i * cap..][..len]);
                    }
                })?;
            meter.lock_acquisitions(1);
        }
        for (i, &len) in lens.iter().enumerate() {
            self.write_slot_meta(grant.first_masked + i as u32, len as u32)?;
            match self.policy {
                CopyPolicy::InPlace => meter.bytes_zero_copy(len as u64),
                CopyPolicy::CopyEarly => charge_copy(&self.view, len),
            }
            meter.ring_records(1);
        }
        self.next = self.next.wrapping_add(lens.len() as u32);
        Ok(())
    }

    fn publish_index(&self) -> Result<(), RingError> {
        self.view.write_u32(self.ring.prod_idx_addr(), self.next)?;
        charge_ring_ops(&self.view, 1);
        self.view.memory().meter().ring_commits(1);
        Ok(())
    }

    /// Publishes the first `lens.len()` slots of a reserved run with their
    /// final record lengths, in ring order, with a *single* shared-index
    /// write.
    ///
    /// Committing fewer slots than granted is the partial-batch path: the
    /// uncommitted tail is simply never published (the next reservation
    /// hands it out again). Per-slot metadata is still written per record
    /// — the single-fetch validation discipline on the consumer side is
    /// untouched — but the index publish (and, per the caller's kick, the
    /// doorbell) is amortized over the batch.
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] if `lens` outnumbers the granted slots or
    /// any length exceeds the granted capacity; memory errors.
    pub fn commit_batch(&mut self, grant: BatchGrant, lens: &[usize]) -> Result<(), RingError> {
        let _span = self.telemetry.span(self.tq, Stage::RingProduce);
        self.place_run(&grant, lens)?;
        if !lens.is_empty() {
            self.publish_index()?;
            self.telemetry.record_batch(self.tq, lens.len() as u64);
        }
        Ok(())
    }

    /// Publishes all staged payloads with a single shared-index write.
    ///
    /// # Errors
    ///
    /// Memory errors only.
    pub fn publish(&mut self) -> Result<(), RingError> {
        let _span = self.telemetry.span(self.tq, Stage::RingProduce);
        self.publish_index()
    }

    /// Reserves the next free slot: the run of one.
    ///
    /// # Errors
    ///
    /// As [`Producer::reserve_batch`].
    pub fn reserve(&mut self, len: usize) -> Result<BatchGrant, RingError> {
        self.reserve_batch(len, 1)
    }

    /// [`Producer::with_batch_mut`] over a one-slot grant.
    ///
    /// # Errors
    ///
    /// As [`Producer::with_batch_mut`].
    pub fn with_slot_mut<R>(
        &mut self,
        grant: &BatchGrant,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, RingError> {
        self.with_batch_mut(grant, |slots| f(&mut *slots[0]))
    }

    /// Publishes a reserved slot with its final record length.
    ///
    /// # Errors
    ///
    /// As [`Producer::commit_batch`].
    pub fn commit(&mut self, grant: BatchGrant, len: usize) -> Result<(), RingError> {
        self.commit_batch(grant, &[len])
    }

    /// Places one payload without publishing the producer index: the slot
    /// is written but invisible to the consumer until
    /// [`Producer::publish`], which amortizes the index write (and the
    /// doorbell) over everything staged since the last one.
    ///
    /// # Errors
    ///
    /// As [`Producer::reserve_batch`].
    pub fn stage(&mut self, payload: &[u8]) -> Result<(), RingError> {
        let grant = self.reserve_batch(payload.len(), 1)?;
        self.with_batch_mut(&grant, |slots| slots[0].copy_from_slice(payload))?;
        let _span = self.telemetry.span(self.tq, Stage::RingProduce);
        self.place_run(&grant, &[payload.len()])
    }

    /// Produces one payload: [`Producer::stage`] plus
    /// [`Producer::publish`].
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] over the fixed MTU; [`RingError::Full`] when
    /// the ring has no free slot.
    pub fn produce(&mut self, payload: &[u8]) -> Result<(), RingError> {
        self.stage(payload)?;
        self.publish()
    }

    /// Posts a doorbell when the notify discipline calls for one; returns
    /// whether the doorbell was actually rung.
    ///
    /// [`NotifyMode::Polling`] never rings; [`NotifyMode::Doorbell`] always
    /// rings. [`NotifyMode::EventIdx`] reads the consumer-published event
    /// index — hostile input, fetched exactly once — and rings only when
    /// this publish crossed it; a stale index proves the consumer is still
    /// awake and the kick is suppressed (`suppressed_kicks` meter). The
    /// fetched value is window-validated against `[ev_seen, next]` (the
    /// only range the honest consumer's monotone counter can occupy); an
    /// invalid value is detected (`violations_detected`) and fails *toward*
    /// notification — the worst a hostile event word causes is a spurious
    /// wakeup, never a missed one, a hang, or a livelock.
    ///
    /// Guest producers pay a host-notify exit; host producers pay an
    /// interrupt injection. A real EventIdx kick also sets the ring's
    /// doorbell word, so the host's admission decision
    /// (`cio_host::backend::Admission`) can tell a wakeup from a
    /// scheduled poll.
    pub fn kick(&mut self) -> bool {
        match self.ring.cfg.notify {
            NotifyMode::Polling => false,
            NotifyMode::Doorbell => {
                self.ring_doorbell();
                true
            }
            NotifyMode::EventIdx => {
                let new = self.next;
                let old = self.published;
                self.published = new;
                if new == old {
                    // Nothing newly published since the last decision.
                    return false;
                }
                let mem = self.view.memory();
                mem.clock().advance(mem.cost().event_idx_check);
                mem.meter().validations(1);
                let ev = match self.view.read_u32(self.ring.event_idx_addr()) {
                    Ok(ev) => ev,
                    Err(_) => {
                        // Unreadable event word: fail toward notification.
                        let _ = self.view.write_u32(self.ring.door_addr(), 1);
                        self.ring_doorbell();
                        return true;
                    }
                };
                // Window containment: the honest consumer only ever
                // publishes its own monotone consume counter, which lives
                // in [ev_seen, new]. Anything else is a lying peer.
                let valid = ev.wrapping_sub(self.ev_seen) <= new.wrapping_sub(self.ev_seen);
                if valid {
                    self.ev_seen = ev;
                } else {
                    mem.meter().violations_detected(1);
                }
                // The virtio event-idx crossing rule: ring iff the event
                // index lies in the just-published window (old, new].
                let crossed = new.wrapping_sub(ev).wrapping_sub(1) < new.wrapping_sub(old);
                if !valid || crossed {
                    let _ = self.view.write_u32(self.ring.door_addr(), 1);
                    self.ring_doorbell();
                    true
                } else {
                    mem.meter().suppressed_kicks(1);
                    false
                }
            }
        }
    }

    fn ring_doorbell(&self) {
        let mem = self.view.memory();
        if self.view.is_host() {
            mem.clock().advance(mem.cost().interrupt_inject);
            mem.meter().interrupts_received(1);
        } else {
            mem.clock().advance(mem.cost().notify_host);
            mem.meter().notifications_sent(1);
        }
    }
}

/// The consuming endpoint.
pub struct Consumer<V: MemView> {
    ring: CioRing,
    view: V,
    /// Private consume counter — the only index the consumer trusts.
    next: u32,
    /// Whether event-idx notifications are currently armed (the consumer
    /// published its event index after finding the ring empty and has not
    /// consumed since).
    armed: bool,
    /// The `next` value at which the event index was last published,
    /// making the idle-arm idempotent per ring position.
    armed_at: u32,
    /// Data positioning (§3.2): in place, record handlers see slot memory;
    /// copy-early, the validated run is copied into `staging` first and
    /// handlers only ever see those private copies.
    policy: CopyPolicy,
    staging: Vec<u8>,
    /// Telemetry domain (disabled by default) and the queue index this
    /// endpoint reports under.
    telemetry: Telemetry,
    tq: usize,
}

impl<V: MemView> Consumer<V> {
    /// Creates a consumer and zeroes the shared consumer index. The
    /// endpoint starts with the default [`CopyPolicy`]; deployments wire
    /// theirs with [`Consumer::set_copy_policy`].
    ///
    /// # Errors
    ///
    /// Memory errors if the ring region is not accessible to this view.
    pub fn new(ring: CioRing, view: V) -> Result<Self, RingError> {
        view.write_u32(ring.cons_idx_addr(), 0)?;
        view.write_u32(ring.event_idx_addr(), 0)?;
        let policy = CopyPolicy::default();
        Ok(Consumer {
            staging: staging_for(&ring, policy),
            ring,
            view,
            next: 0,
            armed: false,
            armed_at: 0,
            policy,
            telemetry: Telemetry::disabled(),
            tq: 0,
        })
    }

    /// Wires this endpoint's data positioning (set once, at deployment).
    /// [`CopyPolicy::InPlace`]: record handlers run over slot memory,
    /// metered as zero-copy. [`CopyPolicy::CopyEarly`]: every validated
    /// record is copied into endpoint-private staging first (one explicit,
    /// metered copy each), so nothing the host writes afterwards can reach
    /// the handler.
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        self.policy = policy;
        self.staging = staging_for(&self.ring, policy);
    }

    /// The positioning this endpoint runs.
    pub fn copy_policy(&self) -> CopyPolicy {
        self.policy
    }

    /// Arms telemetry: ring operations are recorded as
    /// [`Stage::RingConsume`] spans under `queue`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.telemetry = telemetry;
        self.tq = queue;
    }

    /// Moves this endpoint onto a different view of the same memory,
    /// preserving the private consume counter, positioning, and telemetry
    /// binding.
    ///
    /// See [`Producer::rebind`]: the same mid-stream handoff for the
    /// consuming side.
    pub fn rebind<W: MemView>(self, view: W) -> Consumer<W> {
        Consumer {
            ring: self.ring,
            view,
            next: self.next,
            armed: self.armed,
            armed_at: self.armed_at,
            policy: self.policy,
            staging: self.staging,
            telemetry: self.telemetry,
            tq: self.tq,
        }
    }

    /// The ring geometry.
    pub fn ring(&self) -> &CioRing {
        &self.ring
    }

    /// The operation meter of this endpoint's memory domain (see
    /// `Producer::meter`).
    pub fn meter(&self) -> cio_sim::Meter {
        self.view.memory().meter().clone()
    }

    /// How many entries appear available. A peer claiming more than the
    /// ring size is lying; that is detected, not believed.
    ///
    /// # Errors
    ///
    /// [`Violation::BadIndex`] if the producer index implies more in-flight
    /// entries than the ring can hold.
    pub fn available(&self) -> Result<u32, RingError> {
        let prod = self.view.read_u32(self.ring.prod_idx_addr())?;
        charge_ring_ops(&self.view, 1);
        let avail = prod.wrapping_sub(self.next);
        if avail > self.ring.cfg.slots {
            self.view.memory().meter().violations_detected(1);
            return Err(RingError::HostViolation(Violation::BadIndex));
        }
        Ok(avail)
    }

    /// Reads one slot's `(offset, len)` pair — each field fetched exactly
    /// once, masked, and clamped. Returns `(payload_addr, len)`.
    fn read_slot_meta(&self, masked: u32) -> Result<(GuestAddr, u32), RingError> {
        let mem = self.view.memory();
        let cfg = &self.ring.cfg;
        let slot = self.ring.slot_addr(masked);
        match cfg.mode {
            DataMode::Inline => {
                let len = self.view.read_u32(slot)?; // single fetch
                charge_ring_ops(&self.view, 1);
                mem.clock().advance(mem.cost().validate_field);
                mem.meter().validations(1);
                let len = len.min(cfg.inline_capacity()).min(cfg.mtu);
                Ok((slot.add(4), len))
            }
            DataMode::SharedArea => {
                let offset = self.view.read_u32(slot)?; // single fetch
                let len = self.view.read_u32(slot.add(4))?; // single fetch
                charge_ring_ops(&self.view, 2);
                mem.clock()
                    .advance(Cycles(mem.cost().validate_field.get() * 2));
                mem.meter().validations(2);
                // Mask the offset into the area; clamp the length to what
                // fits between the masked offset and the area end, the
                // stride, and the MTU. No host value can escape the area.
                let offset = offset & (cfg.area_size - 1);
                let max = (cfg.area_size - offset).min(cfg.stride()).min(cfg.mtu);
                Ok((self.ring.area.add(u64::from(offset)), len.min(max)))
            }
        }
    }

    /// Retires `n` consumed slots with a single consumer-index write.
    fn commit(&mut self, n: u32) -> Result<(), RingError> {
        self.next = self.next.wrapping_add(n);
        self.armed = false;
        self.view.write_u32(self.ring.cons_idx_addr(), self.next)?;
        charge_ring_ops(&self.view, 1);
        Ok(())
    }

    /// Publishes the event index when the ring runs dry in
    /// [`NotifyMode::EventIdx`]: one store re-arms notifications, so the
    /// producer's next publish past this point rings a doorbell. Idempotent
    /// per ring position — a poll loop that keeps finding the ring empty
    /// charges the arm exactly once.
    fn note_empty(&mut self) -> Result<(), RingError> {
        if self.ring.cfg.notify != NotifyMode::EventIdx {
            return Ok(());
        }
        if self.armed && self.armed_at == self.next {
            return Ok(());
        }
        self.view.write_u32(self.ring.event_idx_addr(), self.next)?;
        let mem = self.view.memory();
        mem.clock().advance(mem.cost().event_idx_arm);
        self.armed = true;
        self.armed_at = self.next;
        Ok(())
    }

    /// Whether event-idx notifications are currently armed (the consumer
    /// went idle and published how far it has consumed).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The event index published at the last arm (diagnostic; only
    /// meaningful while [`Consumer::is_armed`] is true).
    #[inline]
    pub fn armed_at(&self) -> u32 {
        self.armed_at
    }

    /// Meters a doorbell that woke the consumer to an already-drained ring
    /// — the worst outcome a hostile event index can cause.
    pub fn note_spurious_wakeup(&self) {
        self.view.memory().meter().spurious_wakeups(1);
    }

    /// Consumes up to `max` payloads under (in the honest layout) a single
    /// memory-lock acquisition, then retires the whole run with a single
    /// consumer-index write. Returns how many records were consumed (0
    /// when the ring is empty).
    ///
    /// Every slot's metadata is fetched exactly once, masked, and clamped
    /// by `read_slot_meta` — batching amortizes the lock and the index
    /// write, never the validation — so `f` can never be handed an
    /// out-of-area range. When the validated payload windows form an
    /// ascending, non-overlapping run (which the honest producer's stride
    /// layout always yields) one locked region covers them all; a hostile
    /// layout that aliases or reorders windows silently degrades to one
    /// lock per record. All `max ≤` [`MAX_BATCH`] bookkeeping lives on the
    /// stack.
    ///
    /// In place, `f` runs over the slot bytes themselves (mutable, because
    /// in-place consumers transform the record where it lies), under the
    /// memory lock — it must not touch guest memory again (see
    /// `GuestMemory::with_range`) — and the degraded hostile layout
    /// invokes it once per record on a one-element batch. Copy-early, the
    /// run is first copied into the endpoint's private staging (one
    /// metered copy per record) and `f` runs once, outside the lock, over
    /// the private copies. Either way `f` observes the same records in the
    /// same order, and the slots are retired whether or not `f` judged the
    /// records valid — a corrupt record is consumed and dropped.
    ///
    /// # Errors
    ///
    /// [`Violation::BadIndex`] for a lying producer index; memory errors.
    pub fn consume_batch_in_place(
        &mut self,
        max: usize,
        mut f: impl FnMut(&mut [&mut [u8]]),
    ) -> Result<usize, RingError> {
        let _span = self.telemetry.span(self.tq, Stage::RingConsume);
        let avail = self.available()? as usize;
        if avail == 0 {
            self.note_empty()?;
            return Ok(0);
        }
        let until_wrap = (self.ring.cfg.slots - (self.next & self.ring.slot_mask())) as usize;
        let n = avail.min(max).min(until_wrap).min(MAX_BATCH);
        if n == 0 {
            return Ok(0);
        }
        let mut metas: [(GuestAddr, u32); MAX_BATCH] = [(GuestAddr(0), 0); MAX_BATCH];
        for (i, meta) in metas.iter_mut().enumerate().take(n) {
            *meta =
                self.read_slot_meta(self.next.wrapping_add(i as u32) & self.ring.slot_mask())?;
        }
        let metas = &metas[..n];
        match self.policy {
            CopyPolicy::InPlace => {
                visit_run_locked(&self.view, metas, &mut f)?;
                let total: u64 = metas.iter().map(|&(_, len)| u64::from(len)).sum();
                self.view.memory().meter().bytes_zero_copy(total);
            }
            CopyPolicy::CopyEarly => {
                // Copy the run out while it is locked; the handler only
                // ever sees the private copies.
                let (staging, mut staged) = (&mut self.staging, 0);
                visit_run_locked(&self.view, metas, |slots| {
                    for s in slots.iter() {
                        staging[staged..staged + s.len()].copy_from_slice(s);
                        staged += s.len();
                    }
                })?;
                for &(_, len) in metas {
                    charge_copy(&self.view, len as usize);
                }
                let windows = metas.iter().scan(0, |at, &(_, len)| {
                    *at += len as usize;
                    Some((*at - len as usize, len as usize))
                });
                carve_run(&mut staging[..staged], windows, f);
            }
        }
        self.commit(n as u32)?;
        Ok(n)
    }

    /// Consumes one payload: [`Consumer::consume_batch_in_place`] over a
    /// run of one, handing `f` the single record and returning what it
    /// made of it. Returns `None` when the ring is empty.
    ///
    /// # Errors
    ///
    /// As [`Consumer::consume_batch_in_place`].
    pub fn consume_in_place<R>(
        &mut self,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<Option<R>, RingError> {
        let (mut f, mut out) = (Some(f), None);
        self.consume_batch_in_place(1, |slots| {
            out = f.take().map(|f| f(&mut *slots[0]));
        })?;
        Ok(out)
    }

    /// Consumes up to `bufs.len()` payloads, one into each reusable buffer
    /// in order; the buffers keep their capacity, so a steady-state loop
    /// that hands the same ones back performs no heap allocation once they
    /// have grown to the largest payload seen. Returns how many buffers
    /// were filled (0 when the ring is empty).
    ///
    /// # Errors
    ///
    /// As [`Consumer::consume_batch_in_place`].
    pub fn consume_batch_into(&mut self, bufs: &mut [Vec<u8>]) -> Result<usize, RingError> {
        let max = bufs.len();
        let mut filled = bufs.iter_mut();
        self.consume_batch_in_place(max, |slots| {
            for (s, buf) in slots.iter().zip(&mut filled) {
                buf.clear();
                buf.extend_from_slice(s);
            }
        })
    }

    /// Consumes one payload into a fresh buffer: allocating convenience
    /// over [`Consumer::consume_batch_into`] at a run of one. Returns
    /// `None` when the ring is empty.
    ///
    /// # Errors
    ///
    /// As [`Consumer::consume_batch_in_place`].
    pub fn consume(&mut self) -> Result<Option<Vec<u8>>, RingError> {
        let mut buf = Vec::new();
        let n = self.consume_batch_into(std::slice::from_mut(&mut buf))?;
        Ok((n == 1).then_some(buf))
    }
}

/// A small free-list of reusable byte buffers for steady-state dataplane
/// loops.
///
/// [`BufPool::get`] hands out an empty buffer that keeps whatever capacity
/// it accumulated in earlier rounds; [`BufPool::put`] returns it. Once
/// every buffer in circulation has warmed up to the working payload size,
/// the loop performs zero heap allocations.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    max_retained: usize,
}

impl BufPool {
    /// A pool retaining at most `max_retained` idle buffers (surplus
    /// buffers handed back are dropped rather than hoarded).
    pub fn new(max_retained: usize) -> Self {
        BufPool {
            free: Vec::with_capacity(max_retained),
            max_retained,
        }
    }

    /// Takes a cleared buffer from the pool (or a fresh one if empty).
    pub fn get(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; its contents are cleared, its
    /// capacity kept.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_retained {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(8)
    }
}

// Compile-time `Send` audit: the parallel host moves rebound endpoints
// onto worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Producer<cio_mem::GuestView>>();
    assert_send::<Producer<cio_mem::HostView>>();
    assert_send::<Consumer<cio_mem::GuestView>>();
    assert_send::<Consumer<cio_mem::HostView>>();
    assert_send::<BufPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestMemory, GuestView, HostView};
    use cio_sim::{Clock, CostModel, Meter};

    const RING_BASE: u64 = 0;
    const AREA_BASE: u64 = 16 * PAGE_SIZE as u64;

    fn mem_pages(pages: usize) -> GuestMemory {
        GuestMemory::new(pages, Clock::new(), CostModel::default(), Meter::new())
    }

    fn tx_pair(cfg: RingConfig) -> (GuestMemory, Producer<GuestView>, Consumer<HostView>) {
        // Guest produces, host consumes: the TX direction.
        let mem = mem_pages(16 + (cfg.area_size as usize / PAGE_SIZE) + 16);
        let ring = CioRing::new(cfg, GuestAddr(RING_BASE), GuestAddr(AREA_BASE)).unwrap();
        mem.share_range(GuestAddr(RING_BASE), ring.ring_bytes())
            .unwrap();
        if ring.area_bytes() > 0 {
            mem.share_range(GuestAddr(AREA_BASE), ring.area_bytes())
                .unwrap();
        }
        let p = Producer::new(ring.clone(), mem.guest()).unwrap();
        let c = Consumer::new(ring, mem.host()).unwrap();
        (mem, p, c)
    }

    fn rx_pair(cfg: RingConfig) -> (GuestMemory, Producer<HostView>, Consumer<GuestView>) {
        // Host produces, guest consumes: the RX direction.
        let mem = mem_pages(16 + (cfg.area_size as usize / PAGE_SIZE) + 16);
        let ring = CioRing::new(cfg, GuestAddr(RING_BASE), GuestAddr(AREA_BASE)).unwrap();
        mem.share_range(GuestAddr(RING_BASE), ring.ring_bytes())
            .unwrap();
        if ring.area_bytes() > 0 {
            mem.share_range(GuestAddr(AREA_BASE), ring.area_bytes())
                .unwrap();
        }
        let p = Producer::new(ring.clone(), mem.host()).unwrap();
        let c = Consumer::new(ring, mem.guest()).unwrap();
        (mem, p, c)
    }

    fn small_cfg(mode: DataMode) -> RingConfig {
        RingConfig {
            slots: 8,
            slot_size: mode_slot_size(mode),
            mode,
            mtu: 1024,
            area_size: 8 * 1024,
            ..RingConfig::default()
        }
    }

    fn mode_slot_size(mode: DataMode) -> u32 {
        match mode {
            DataMode::Inline => 2048,
            _ => 16,
        }
    }

    #[test]
    fn config_validation_is_fatal() {
        let cfg = RingConfig {
            slots: 7,
            ..RingConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(RingError::Fatal(_))));
        let cfg = RingConfig {
            slot_size: 8,
            ..RingConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(RingError::Fatal(_))));
        let mut cfg = RingConfig {
            mode: DataMode::Inline,
            slot_size: 512,
            mtu: 1500,
            ..RingConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(RingError::Fatal(_))));
        cfg.mtu = 500;
        cfg.validate().unwrap();
        // Revocation needs page-multiple strides.
        let cfg = RingConfig {
            page_aligned_payloads: true,
            area_size: 1 << 16, // 64 KiB / 256 slots = 256 B stride
            mtu: 256,
            ..RingConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(RingError::Fatal(_))));
    }

    #[test]
    fn roundtrip_every_mode() {
        for mode in [DataMode::Inline, DataMode::SharedArea] {
            let (_m, mut p, mut c) = tx_pair(small_cfg(mode));
            for i in 0..5u8 {
                p.produce(&vec![i; 100 + i as usize]).unwrap();
            }
            for i in 0..5u8 {
                let got = c.consume().unwrap().expect("payload");
                assert_eq!(got, vec![i; 100 + i as usize], "mode {mode:?}");
            }
            assert_eq!(c.consume().unwrap(), None);
        }
    }

    #[test]
    fn fills_at_slot_count_and_recycles() {
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        for _ in 0..8 {
            p.produce(b"x").unwrap();
        }
        assert!(matches!(p.produce(b"x"), Err(RingError::Full)));
        c.consume().unwrap().unwrap();
        // Producer sees the freed slot through the consumer index.
        p.produce(b"y").unwrap();
    }

    #[test]
    fn mtu_enforced() {
        // 1025 bytes against the 1024-byte MTU: refused before it ever
        // reaches a slot, so the consumer path never sees it.
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        assert!(matches!(
            p.produce(&vec![0u8; 1025]),
            Err(RingError::TooLarge)
        ));
        assert_eq!(c.consume().unwrap(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::Inline));
        for round in 0..100u32 {
            p.produce(&round.to_le_bytes()).unwrap();
            let got = c.consume().unwrap().unwrap();
            assert_eq!(got, round.to_le_bytes());
        }
    }

    #[test]
    fn buf_pool_recycles_capacity() {
        let mut pool = BufPool::new(2);
        let mut a = pool.get();
        a.extend_from_slice(&[1u8; 4096]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.get();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        // Retention is bounded.
        pool.put(b);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn staged_payloads_invisible_until_publish() {
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        p.stage(b"one").unwrap();
        p.stage(b"two").unwrap();
        assert_eq!(c.consume().unwrap(), None, "staged but unpublished");
        p.publish().unwrap();
        assert_eq!(c.consume().unwrap().unwrap(), b"one");
        assert_eq!(c.consume().unwrap().unwrap(), b"two");
        assert_eq!(c.consume().unwrap(), None);
    }

    #[test]
    fn batching_amortizes_index_writes() {
        // 16 staged messages + 1 publish must cost fewer ring ops than 16
        // published messages.
        let cycles_for = |batch: bool| {
            let (m, mut p, _c) = tx_pair(small_cfg(DataMode::SharedArea));
            let t0 = m.clock().now();
            if batch {
                for _ in 0..8 {
                    p.stage(b"x").unwrap();
                }
                p.publish().unwrap();
            } else {
                for _ in 0..8 {
                    p.produce(b"x").unwrap();
                }
            }
            m.clock().since(t0)
        };
        assert!(cycles_for(true) < cycles_for(false));
    }

    #[test]
    fn positioning_belongs_to_the_endpoint() {
        // The same calls meter as zero-copy or as one explicit copy per
        // side depending only on how the endpoints were wired.
        for policy in [CopyPolicy::InPlace, CopyPolicy::CopyEarly] {
            let (m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
            p.set_copy_policy(policy);
            c.set_copy_policy(policy);
            let before = m.meter().snapshot();
            let grant = p.reserve(64).unwrap();
            assert_eq!(grant.capacity(), 64);
            p.with_slot_mut(&grant, |slot| slot[..5].copy_from_slice(b"hello"))
                .unwrap();
            assert_eq!(c.consume().unwrap(), None, "invisible until commit");
            p.commit(grant, 5).unwrap();
            p.produce(b"second!").unwrap();
            assert_eq!(c.consume().unwrap().unwrap(), b"hello");
            let got = c.consume_in_place(|bytes| bytes.to_vec()).unwrap();
            assert_eq!(got.unwrap(), b"second!");
            let d = m.meter().snapshot().delta(&before);
            let (copies, copied, zero) = match policy {
                CopyPolicy::InPlace => (0, 0, 24),
                CopyPolicy::CopyEarly => (4, 24, 0),
            };
            assert_eq!(d.copies, copies, "{policy:?}");
            assert_eq!(d.bytes_copied, copied, "{policy:?}");
            assert_eq!(d.bytes_zero_copy, zero, "{policy:?}");
        }
        // Inline slots demand the producer's copy by layout, whatever the
        // deployment asked for; the consumer may still read in place.
        let (m, mut p, mut c) = tx_pair(small_cfg(DataMode::Inline));
        p.set_copy_policy(CopyPolicy::InPlace);
        assert_eq!(p.copy_policy(), CopyPolicy::CopyEarly);
        p.produce(b"inline").unwrap();
        assert_eq!(c.consume().unwrap().unwrap(), b"inline");
        let s = m.meter().snapshot();
        assert_eq!((s.copies, s.bytes_zero_copy), (1, 6));
    }

    #[test]
    fn reserve_errors_and_grant_bounds() {
        for mode in [DataMode::Inline, DataMode::SharedArea] {
            let (_m, mut p, _c) = tx_pair(small_cfg(mode));
            assert!(matches!(p.reserve(1025), Err(RingError::TooLarge)));
            // Committing more, or longer, than granted is refused.
            let g = p.reserve_batch(8, 2).unwrap();
            assert!(matches!(
                p.commit_batch(g, &[1, 2, 3]),
                Err(RingError::TooLarge)
            ));
            assert!(matches!(p.commit_batch(g, &[9]), Err(RingError::TooLarge)));
            assert!(matches!(p.commit(g, 9), Err(RingError::TooLarge)));
            for _ in 0..8 {
                let g = p.reserve(4).unwrap();
                p.commit(g, 4).unwrap();
            }
            assert!(matches!(p.reserve(4), Err(RingError::Full)), "{mode:?}");
        }
    }

    #[test]
    fn batch_consume_falls_back_on_hostile_aliasing() {
        // Host producer aims two slots at the *same* window: the batched
        // consumer must degrade to per-record locks, not alias slices —
        // whether it hands out slot memory or copies the run out first.
        for policy in [CopyPolicy::InPlace, CopyPolicy::CopyEarly] {
            let (m, mut p, mut c) = rx_pair(small_cfg(DataMode::SharedArea));
            c.set_copy_policy(policy);
            p.produce(b"aaaa").unwrap();
            p.produce(b"bbbb").unwrap();
            let ring = c.ring().clone();
            // Point slot 1 at slot 0's window.
            m.host().write_u32(ring.slot_addr(1), 0).unwrap();
            let before = m.meter().snapshot();
            let mut seen = Vec::new();
            let n = c
                .consume_batch_in_place(MAX_BATCH, |slots| {
                    for s in slots.iter() {
                        seen.push(s.to_vec());
                    }
                })
                .unwrap();
            assert_eq!(n, 2);
            assert_eq!(seen[0], b"aaaa");
            assert_eq!(seen[1], b"aaaa", "slot 1 was aimed at slot 0's bytes");
            let d = m.meter().snapshot().delta(&before);
            assert_eq!(d.lock_acquisitions, 2, "one lock per record in fallback");
            let copies = if policy == CopyPolicy::CopyEarly {
                2
            } else {
                0
            };
            assert_eq!(d.copies, copies, "{policy:?}");
        }
    }

    #[test]
    fn consume_in_place_clamps_hostile_meta() {
        let (m, mut p, mut c) = rx_pair(small_cfg(DataMode::SharedArea));
        p.produce(b"legit").unwrap();
        let ring = c.ring().clone();
        let slot0 = ring.slot_addr(0);
        m.host().write_u32(slot0, 0xFFFF_FFF0).unwrap();
        m.host().write_u32(slot0.add(4), 0xFFFF_FFFF).unwrap();
        let seen = c
            .consume_in_place(|bytes| bytes.len())
            .unwrap()
            .expect("clamped payload");
        assert!(seen <= ring.config().stride() as usize);
    }

    #[test]
    fn batch_reserve_commit_consume_roundtrips() {
        let (m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        let before = m.meter().snapshot();
        let grant = p.reserve_batch(64, 4).unwrap();
        assert_eq!(grant.len(), 4);
        assert_eq!(grant.capacity(), 64);
        p.with_batch_mut(&grant, |slots| {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot[..4].copy_from_slice(&[i as u8; 4]);
            }
        })
        .unwrap();
        // Invisible until commit.
        assert_eq!(c.consume().unwrap(), None);
        p.commit_batch(grant, &[4, 4, 4, 4]).unwrap();
        let mut seen = Vec::new();
        let consumed = c
            .consume_batch_in_place(MAX_BATCH, |slots| {
                for s in slots.iter() {
                    seen.push(s.to_vec());
                }
            })
            .unwrap();
        assert_eq!(consumed, 4);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s, &vec![i as u8; 4]);
        }
        let d = m.meter().snapshot().delta(&before);
        assert_eq!(d.ring_records, 4);
        assert_eq!(d.ring_commits, 1, "one index publish for the batch");
        assert_eq!(d.lock_acquisitions, 2, "one lock per side for the run");
        assert_eq!(d.copies, 0);
        assert_eq!(d.bytes_zero_copy, 2 * 16);
    }

    #[test]
    fn batch_reserve_clamps_to_wrap_free_and_max() {
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        // 8 slots, MAX_BATCH 16: a greedy grant clamps to the ring size.
        let g = p.reserve_batch(8, 32).unwrap();
        assert_eq!(g.len(), 8);
        // Park the producer cursor at slot 5.
        p.commit_batch(g, &[1; 5]).unwrap();
        assert_eq!(c.consume_batch_in_place(8, |_| {}).unwrap(), 5);
        // All 8 slots are free but only 3 remain before the wrap: the run
        // must stay contiguous in the shared area.
        let g = p.reserve_batch(8, 8).unwrap();
        assert_eq!(g.len(), 3, "clamped to the contiguous pre-wrap run");
        p.commit_batch(g, &[2, 2, 2]).unwrap();
        // After the wrap the run restarts at slot 0 with 5 slots free.
        let g = p.reserve_batch(8, 8).unwrap();
        assert_eq!(g.len(), 5);
        p.commit_batch(g, &[3; 5]).unwrap();
        // A full ring errs rather than granting an empty run.
        assert!(matches!(p.reserve_batch(8, 1), Err(RingError::Full)));
    }

    #[test]
    fn batch_partial_commit_republishes_tail_later() {
        let (_m, mut p, mut c) = tx_pair(small_cfg(DataMode::SharedArea));
        let grant = p.reserve_batch(16, 6).unwrap();
        assert_eq!(grant.len(), 6);
        p.with_batch_mut(&grant, |slots| {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot[..2].copy_from_slice(&[i as u8; 2]);
            }
        })
        .unwrap();
        // Commit only the first two records; the tail stays unpublished.
        p.commit_batch(grant, &[2, 2]).unwrap();
        assert_eq!(c.available().unwrap(), 2);
        // The next reservation hands the tail out again.
        let g2 = p.reserve_batch(16, 6).unwrap();
        p.with_batch_mut(&g2, |slots| {
            slots[0][..2].copy_from_slice(b"zz");
        })
        .unwrap();
        p.commit_batch(g2, &[2]).unwrap();
        let mut seen = Vec::new();
        c.consume_batch_in_place(MAX_BATCH, |slots| {
            for s in slots.iter() {
                seen.push(s.to_vec());
            }
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![b"\x00\x00".to_vec(), b"\x01\x01".to_vec(), b"zz".to_vec()]
        );
    }

    #[test]
    fn batch_policy_sizing() {
        assert_eq!(BatchPolicy::default().max_batch(), 1);
        assert_eq!(BatchPolicy::Fixed(8).max_batch(), 8);
        assert_eq!(BatchPolicy::Fixed(64).max_batch(), MAX_BATCH);
        let adaptive = BatchPolicy::Adaptive {
            max: 8,
            latency_cap: Cycles(10_000),
        };
        assert_eq!(adaptive.max_batch(), 8);
        assert_eq!(adaptive.latency_cap(), Some(Cycles(10_000)));
        assert_eq!(BatchPolicy::Serial.latency_cap(), None);
    }

    // --- Adversarial safety: the §3.2 masking guarantees. ---

    #[test]
    fn host_forged_offset_cannot_escape_area() {
        let (m, mut p, mut c) = rx_pair(small_cfg(DataMode::SharedArea));
        // Host (producer side here) writes a hostile slot directly: offset
        // far outside the area, enormous length.
        p.produce(b"legit").unwrap();
        let ring = c.ring().clone();
        let slot0 = ring.slot_addr(0);
        m.host().write_u32(slot0, 0xFFFF_FFF0).unwrap();
        m.host().write_u32(slot0.add(4), 0xFFFF_FFFF).unwrap();
        // The guest consumer must not fault, must not read out of area.
        let got = c.consume().unwrap().unwrap();
        assert!(got.len() <= ring.config().stride() as usize);
    }

    #[test]
    fn lying_producer_index_detected() {
        let (m, mut p, mut c) = rx_pair(small_cfg(DataMode::SharedArea));
        p.produce(b"one").unwrap();
        // Host claims 1000 entries are available.
        m.host().write_u32(c.ring().prod_idx_addr(), 1000).unwrap();
        assert!(matches!(
            c.consume(),
            Err(RingError::HostViolation(Violation::BadIndex))
        ));
        assert!(m.meter().snapshot().violations_detected >= 1);
    }

    #[test]
    fn lying_consumer_index_only_starves_producer() {
        let (m, mut p, _c) = tx_pair(small_cfg(DataMode::SharedArea));
        // Host-side consumer claims it consumed *ahead* of production.
        m.host()
            .write_u32(p.ring().cons_idx_addr(), 4_000_000)
            .unwrap();
        // wrapping_sub makes in_flight look huge -> clamped to slots -> Full.
        assert!(matches!(p.produce(b"x"), Err(RingError::Full)));
        // Guest state is untouched; restoring the index restores progress.
        m.host().write_u32(p.ring().cons_idx_addr(), 0).unwrap();
        p.produce(b"x").unwrap();
    }

    /// What a doorbell handler does: drain until empty.
    fn drain<V: MemView>(c: &mut Consumer<V>) -> usize {
        std::iter::from_fn(|| c.consume().unwrap()).count()
    }

    #[test]
    fn doorbell_drain_is_idempotent() {
        let cfg = RingConfig {
            notify: NotifyMode::Doorbell,
            ..small_cfg(DataMode::SharedArea)
        };
        let (m, mut p, mut c) = tx_pair(cfg);
        p.stage(b"a").unwrap();
        p.stage(b"b").unwrap();
        p.publish().unwrap();
        p.kick();
        assert_eq!(m.meter().snapshot().notifications_sent, 1);
        assert_eq!(drain(&mut c), 2);
        // Spurious doorbells: safe, empty.
        assert_eq!(drain(&mut c), 0);
        assert_eq!(drain(&mut c), 0);
    }

    #[test]
    fn polling_mode_kick_is_noop() {
        let (m, mut p, _c) = tx_pair(small_cfg(DataMode::SharedArea));
        assert!(!p.kick());
        assert_eq!(m.meter().snapshot().notifications_sent, 0);
    }

    fn event_idx_cfg() -> RingConfig {
        RingConfig {
            notify: NotifyMode::EventIdx,
            ..small_cfg(DataMode::SharedArea)
        }
    }

    #[test]
    fn event_idx_suppresses_while_consumer_awake() {
        let (m, mut p, mut c) = tx_pair(event_idx_cfg());
        let door = p.ring().door_addr();
        // First publish crosses the zero-initialized event index: rings
        // and sets the door word the host reads.
        p.produce(b"a").unwrap();
        assert!(p.kick());
        assert_eq!(m.host().read_u32(door).unwrap(), 1);
        m.host().write_u32(door, 0).unwrap();
        // Consumer has not gone idle (never re-armed): subsequent
        // publishes are provably covered by the outstanding wakeup.
        for _ in 0..3 {
            p.produce(b"x").unwrap();
            assert!(!p.kick(), "suppressed while the consumer is awake");
        }
        assert_eq!(m.host().read_u32(door).unwrap(), 0, "no second ring");
        let s = m.meter().snapshot();
        assert_eq!(s.notifications_sent, 1);
        assert_eq!(s.suppressed_kicks, 3);
        assert_eq!(s.violations_detected, 0);
        // The records were never lost — they were just quietly published.
        assert_eq!(drain(&mut c), 4);
    }

    #[test]
    fn event_idx_rearms_on_empty_and_next_publish_rings() {
        let (m, mut p, mut c) = tx_pair(event_idx_cfg());
        p.produce(b"a").unwrap();
        assert!(p.kick());
        // Drain to empty: the final empty consume publishes the event
        // index (one arm charge, idempotent on repeat).
        assert!(c.consume().unwrap().is_some());
        assert!(!c.is_armed());
        let t0 = m.clock().now();
        assert!(c.consume().unwrap().is_none());
        let first_empty = m.clock().since(t0);
        assert!(c.is_armed());
        let t1 = m.clock().now();
        assert!(c.consume().unwrap().is_none(), "re-poll while armed");
        let second_empty = m.clock().since(t1);
        assert_eq!(
            first_empty.get() - second_empty.get(),
            CostModel::default().event_idx_arm.get(),
            "the arm is charged once, not per empty poll"
        );
        // Producer crosses the armed index: the doorbell rings again.
        p.produce(b"b").unwrap();
        assert!(p.kick());
        assert_eq!(m.meter().snapshot().notifications_sent, 2);
    }

    #[test]
    fn hostile_event_idx_detected_and_fails_toward_notification() {
        let (m, mut p, mut c) = tx_pair(event_idx_cfg());
        p.produce(b"a").unwrap();
        assert!(p.kick());
        assert!(c.consume().unwrap().is_some());
        assert!(c.consume().unwrap().is_none()); // arms at next = 1
        let ev = p.ring().event_idx_addr();
        for hostile in [0xFFFF_FFFFu32, 2_000_000, p.ring().config().slots * 8] {
            let before = m.meter().snapshot();
            m.host().write_u32(ev, hostile).unwrap();
            p.produce(b"x").unwrap();
            // Detected, and the kick still rings: fail toward notification.
            assert!(p.kick(), "hostile ev {hostile:#x} must not suppress");
            let d = m.meter().snapshot().delta(&before);
            assert_eq!(d.violations_detected, 1, "ev {hostile:#x}");
            assert_eq!(d.notifications_sent, 1, "ev {hostile:#x}");
        }
        // A backwards jump below the last valid value is equally a lie.
        assert_eq!(drain(&mut c), 3);
        assert!(c.consume().unwrap().is_none()); // arms at 4; ev_seen tracks
        p.produce(b"y").unwrap();
        assert!(p.kick()); // valid arm observed, ev_seen = 4
        let before = m.meter().snapshot();
        m.host().write_u32(ev, 1).unwrap(); // backwards: 1 < ev_seen
        p.produce(b"z").unwrap();
        assert!(p.kick());
        let d = m.meter().snapshot().delta(&before);
        assert_eq!(d.violations_detected, 1);
    }

    #[test]
    fn stuck_event_idx_only_suppresses_never_corrupts() {
        // A pinned-stale event word is indistinguishable from a hot
        // consumer: kicks are suppressed (the liveness recovery lives in
        // the host backend's heartbeat re-poll), but every record stays
        // published and consumable, and nothing is flagged — a stale value
        // is *valid*, merely unhelpful.
        let (m, mut p, mut c) = tx_pair(event_idx_cfg());
        p.produce(b"a").unwrap();
        assert!(p.kick());
        for i in 0..5u8 {
            p.produce(&[i; 8]).unwrap();
            assert!(!p.kick());
        }
        let s = m.meter().snapshot();
        assert_eq!(s.violations_detected, 0);
        assert_eq!(s.suppressed_kicks, 5);
        assert_eq!(drain(&mut c), 6, "no record lost");
    }

    // --- Revocation receive (E7 mechanics). ---

    fn revoke_cfg() -> RingConfig {
        RingConfig {
            slots: 8,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 4096,
            area_size: 8 * PAGE_SIZE as u32,
            page_aligned_payloads: true,
            ..RingConfig::default()
        }
    }

    #[test]
    fn revocation_receive_unshares_pages() {
        let (m, mut p, mut c) = rx_pair(revoke_cfg());
        p.produce(&[7u8; 2000]).unwrap();
        let before = m.meter().snapshot();
        let r = c.consume_revoking().unwrap().expect("payload");
        assert_eq!(r.len, 2000);
        // The payload pages are now private: host writes fail.
        assert!(m.host().write(r.addr, b"tamper").is_err());
        // The guest can read the payload in place, no copy metered.
        let mut buf = vec![0u8; r.len as usize];
        m.guest().read(r.addr, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 2000]);
        let d = m.meter().snapshot().delta(&before);
        assert_eq!(d.copies, 0);
        assert!(d.pages_revoked >= 1);
        // Releasing re-shares the stride for reuse.
        c.release_revoked(r).unwrap();
        assert!(m.host().write(r.addr, b"ok now").is_ok());
    }

    #[test]
    fn revocation_confines_hostile_offsets_to_the_revoked_stride() {
        // A hostile producer aims the slot's offset at *another* slot's
        // stride; the returned payload must still live inside the pages
        // that were actually revoked.
        let (m, mut p, mut c) = rx_pair(revoke_cfg());
        p.produce(&[9u8; 100]).unwrap();
        let ring = c.ring().clone();
        // Point slot 0's descriptor at slot 3's stride.
        let hostile_offset = 3 * ring.config().stride();
        m.host()
            .write_u32(ring.slot_addr(0), hostile_offset)
            .unwrap();
        let r = c.consume_revoking().unwrap().expect("payload");
        // The payload address is inside slot 0's (revoked) stride...
        let base = ring.payload_addr(0).0;
        assert!(r.addr.0 >= base && r.addr.0 < base + u64::from(ring.config().stride()));
        // ...which means the host can no longer touch it.
        assert!(m.host().write(r.addr, b"flip").is_err());
        c.release_revoked(r).unwrap();
    }

    #[test]
    fn revocation_requires_configuration() {
        let (_m, _p, mut c) = rx_pair(small_cfg(DataMode::SharedArea));
        assert!(matches!(c.consume_revoking(), Err(RingError::Fatal(_))));
    }

    #[test]
    fn revoked_payload_immune_to_late_host_write() {
        // The TOCTOU-elimination property: after revocation, the host
        // cannot flip payload bytes between guest validation and use.
        let (m, mut p, mut c) = rx_pair(revoke_cfg());
        p.produce(b"validated content").unwrap();
        let r = c.consume_revoking().unwrap().unwrap();
        // Host tries the classic double-fetch flip — and faults.
        assert!(m.host().write(r.addr, b"flipped!").is_err());
        let mut buf = vec![0u8; r.len as usize];
        m.guest().read(r.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"validated content");
    }
}
