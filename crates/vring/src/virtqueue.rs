//! A from-scratch virtio-1.x split virtqueue.
//!
//! This is the baseline transport of experiments E5/E8/E10: the protocol's
//! descriptor table, avail ring, and used ring live in shared guest memory,
//! and the driver keeps exactly the state the unhardened Linux drivers
//! historically kept there — including threading its *free list* through
//! the shared descriptor table's `next` fields and re-reading host-writable
//! config on the data path. The [`Driver`] here is deliberately
//! *unhardened*; [`crate::hardened`] builds the Linux-retrofit variant on
//! top of the same layout.
//!
//! # The corruption oracle
//!
//! Where C code would silently corrupt memory (out-of-range used id, forged
//! length, descriptor loop), a Rust simulation cannot. The driver instead
//! performs the *wrapped/clamped* access — the closest well-defined
//! analogue of the out-of-bounds read — and records the event on the
//! meter's `violations_undetected` counter. The counter is instrumentation
//! (an oracle for the attack harness), not part of the simulated driver's
//! logic; the driver itself never "notices".

use crate::{RingError, Violation};
use cio_mem::{GuestAddr, GuestView, HostView, MemError};
use cio_sim::Meter;

/// Descriptor flag: buffer continues in `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: device-writable buffer.
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: buffer holds an indirect descriptor table.
pub const DESC_F_INDIRECT: u16 = 4;

/// Feature bit: virtio 1.0 compliance.
pub const F_VERSION_1: u64 = 1 << 32;
/// Feature bit: indirect descriptors supported.
pub const F_RING_INDIRECT_DESC: u64 = 1 << 28;
/// Feature bit: event-index interrupt suppression (negotiable; this model
/// accepts the bit but always signals, like many simple devices).
pub const F_RING_EVENT_IDX: u64 = 1 << 29;
/// virtio-net feature: checksum offload.
pub const F_NET_CSUM: u64 = 1 << 0;
/// virtio-net feature: device-supplied MTU.
pub const F_NET_MTU: u64 = 1 << 3;
/// virtio-net feature: device-supplied MAC.
pub const F_NET_MAC: u64 = 1 << 5;

/// Device status: guest found the device.
pub const STATUS_ACKNOWLEDGE: u8 = 1;
/// Device status: guest has a driver.
pub const STATUS_DRIVER: u8 = 2;
/// Device status: driver is ready.
pub const STATUS_DRIVER_OK: u8 = 4;
/// Device status: feature negotiation complete.
pub const STATUS_FEATURES_OK: u8 = 8;
/// Device status: device hit a fatal error.
pub const STATUS_NEEDS_RESET: u8 = 64;
/// Device status: driver gave up.
pub const STATUS_FAILED: u8 = 128;

/// Size of one descriptor in bytes.
pub const DESC_SIZE: u64 = 16;

/// Memory layout of one split virtqueue.
///
/// ```text
/// base:                descriptor table, 16 * qsize bytes
/// base + 16*qsize:     avail  { flags u16, idx u16, ring[qsize] u16, used_event u16 }
/// align4(above):       used   { flags u16, idx u16, ring[qsize] {id u32, len u32}, avail_event u16 }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Base guest-physical address (must be in shared pages).
    pub base: GuestAddr,
    /// Queue size; must be a power of two per the virtio spec.
    pub qsize: u16,
}

impl Layout {
    /// Creates a layout, validating the queue size.
    ///
    /// # Errors
    ///
    /// [`RingError::Fatal`] if `qsize` is zero or not a power of two.
    pub fn new(base: GuestAddr, qsize: u16) -> Result<Layout, RingError> {
        if qsize == 0 || !qsize.is_power_of_two() {
            return Err(RingError::Fatal("queue size must be a power of two"));
        }
        Ok(Layout { base, qsize })
    }

    /// Address of descriptor `i`.
    pub fn desc(&self, i: u16) -> GuestAddr {
        self.base.add(u64::from(i) * DESC_SIZE)
    }

    fn avail_base(&self) -> GuestAddr {
        self.base.add(u64::from(self.qsize) * DESC_SIZE)
    }

    /// Address of `avail.flags`.
    pub fn avail_flags(&self) -> GuestAddr {
        self.avail_base()
    }

    /// Address of `avail.idx`.
    pub fn avail_idx(&self) -> GuestAddr {
        self.avail_base().add(2)
    }

    /// Address of `avail.ring[i]`.
    pub fn avail_ring(&self, i: u16) -> GuestAddr {
        self.avail_base().add(4 + 2 * u64::from(i))
    }

    fn used_base(&self) -> GuestAddr {
        let end = self.avail_base().0 + 4 + 2 * u64::from(self.qsize) + 2;
        GuestAddr((end + 3) & !3)
    }

    /// Address of `used.flags`.
    pub fn used_flags(&self) -> GuestAddr {
        self.used_base()
    }

    /// Address of `used.idx`.
    pub fn used_idx(&self) -> GuestAddr {
        self.used_base().add(2)
    }

    /// Address of `used.ring[i]` (8 bytes: id u32, len u32).
    pub fn used_ring(&self, i: u16) -> GuestAddr {
        self.used_base().add(4 + 8 * u64::from(i))
    }

    /// Total bytes occupied by the queue structures.
    pub fn total_size(&self) -> usize {
        (self.used_base().0 - self.base.0) as usize + 4 + 8 * self.qsize as usize + 2
    }
}

/// One entry of a descriptor chain as collected by either side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescSeg {
    /// Guest-physical buffer address.
    pub addr: GuestAddr,
    /// Buffer length.
    pub len: u32,
}

/// Host-writable device config space (one shared page by convention).
///
/// Offsets: `mac[6]` at 0, `status` u8 at 6 (guest-written), `mtu` u16 at
/// 8, `device_features` u64 at 16, `driver_features` u64 at 24 (guest-
/// written). The *host* owns mac/mtu/device_features — which is precisely
/// why re-reading them on the data path is a double-fetch hazard.
#[derive(Debug, Clone, Copy)]
pub struct ConfigSpace {
    /// Base address of the config page (shared).
    pub base: GuestAddr,
}

impl ConfigSpace {
    /// Offset of the MAC address.
    pub const MAC: u64 = 0;
    /// Offset of the status byte.
    pub const STATUS: u64 = 6;
    /// Offset of the MTU field.
    pub const MTU: u64 = 8;
    /// Offset of the device-features word.
    pub const DEVICE_FEATURES: u64 = 16;
    /// Offset of the driver-features word.
    pub const DRIVER_FEATURES: u64 = 24;
    /// Bytes used by the config block.
    pub const SIZE: usize = 32;

    /// Host-side initialisation of the device-owned fields.
    pub fn device_init(
        &self,
        host: &HostView,
        mac: [u8; 6],
        mtu: u16,
        features: u64,
    ) -> Result<(), MemError> {
        host.write(self.base.add(Self::MAC), &mac)?;
        host.write_u16(self.base.add(Self::MTU), mtu)?;
        host.write_u64(self.base.add(Self::DEVICE_FEATURES), features)?;
        Ok(())
    }

    /// Reads the device MTU (guest side). Every call is a fresh fetch of
    /// host-controlled memory — callers decide whether to cache.
    pub fn read_mtu(&self, guest: &GuestView) -> Result<u16, MemError> {
        guest.read_u16(self.base.add(Self::MTU))
    }

    /// Reads the device MAC (guest side).
    pub fn read_mac(&self, guest: &GuestView) -> Result<[u8; 6], MemError> {
        let mut mac = [0u8; 6];
        guest.read(self.base.add(Self::MAC), &mut mac)?;
        Ok(mac)
    }

    /// Reads the offered feature word (guest side).
    pub fn read_device_features(&self, guest: &GuestView) -> Result<u64, MemError> {
        guest.read_u64(self.base.add(Self::DEVICE_FEATURES))
    }

    /// Reads the status byte (either side; it lives in shared memory).
    pub fn read_status(&self, guest: &GuestView) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        guest.read(self.base.add(Self::STATUS), &mut b)?;
        Ok(b[0])
    }

    /// Guest-side status write.
    pub fn write_status(&self, guest: &GuestView, status: u8) -> Result<(), MemError> {
        guest.write(self.base.add(Self::STATUS), &[status])
    }

    /// Host-side status write (e.g. clearing FEATURES_OK to reject).
    pub fn host_write_status(&self, host: &HostView, status: u8) -> Result<(), MemError> {
        host.write(self.base.add(Self::STATUS), &[status])
    }

    /// Guest-side accepted-features write.
    pub fn write_driver_features(&self, guest: &GuestView, f: u64) -> Result<(), MemError> {
        guest.write_u64(self.base.add(Self::DRIVER_FEATURES), f)
    }
}

/// Runs the driver side of the stateful virtio negotiation protocol.
///
/// This is the control-plane complexity §2.5 calls out: five ordered
/// status transitions, two feature fetches, and a host veto point — all of
/// it stateful shared memory. Returns the accepted feature set.
///
/// # Errors
///
/// [`RingError::BadState`] if the host rejects the feature subset.
pub fn driver_negotiate(
    cfg: &ConfigSpace,
    guest: &GuestView,
    wanted: u64,
) -> Result<u64, RingError> {
    cfg.write_status(guest, STATUS_ACKNOWLEDGE)?;
    cfg.write_status(guest, STATUS_ACKNOWLEDGE | STATUS_DRIVER)?;
    let offered = cfg.read_device_features(guest)?;
    let accepted = offered & wanted;
    cfg.write_driver_features(guest, accepted)?;
    cfg.write_status(
        guest,
        STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK,
    )?;
    // Re-read: the device may have cleared FEATURES_OK to veto.
    let status = cfg.read_status(guest)?;
    if status & STATUS_FEATURES_OK == 0 {
        cfg.write_status(guest, status | STATUS_FAILED)?;
        return Err(RingError::BadState);
    }
    cfg.write_status(guest, status | STATUS_DRIVER_OK)?;
    Ok(accepted)
}

/// Private record of one in-flight buffer chain.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    token: u64,
    /// Total device-writable capacity the guest granted.
    in_capacity: u32,
}

/// A completed buffer returned by [`Driver::poll_used`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The caller token passed to [`Driver::add_buf`].
    pub token: u64,
    /// Device-reported written length — the unhardened driver passes this
    /// through untrusted.
    pub len: u32,
}

/// The guest-side virtqueue driver (unhardened baseline).
pub struct Driver {
    guest: GuestView,
    layout: Layout,
    /// Head of the free descriptor list. The list itself is threaded
    /// through the shared descriptor table's `next` fields — faithful to
    /// the unhardened layout, and host-corruptible.
    free_head: u16,
    num_free: u16,
    avail_shadow: u16,
    last_used: u16,
    inflight: Vec<Option<Inflight>>,
    last_chain: Vec<u16>,
    /// Private mirror of the descriptor `next` fields (the Linux
    /// `vring_desc_extra` hardening): when present, the driver never reads
    /// `next` from shared memory.
    extra_next: Option<Vec<u16>>,
    meter: Meter,
}

impl Driver {
    /// Initialises a driver over `layout`, chaining all descriptors into
    /// the free list.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (the queue region must be mapped).
    pub fn new(guest: GuestView, layout: Layout, meter: Meter) -> Result<Self, RingError> {
        Self::build(guest, layout, meter, false)
    }

    /// Like [`Driver::new`], but keeps the free-list `next` chain in a
    /// private mirror (`vring_desc_extra`-style hardening) so the host can
    /// never influence descriptor allocation.
    pub fn new_private_chaining(
        guest: GuestView,
        layout: Layout,
        meter: Meter,
    ) -> Result<Self, RingError> {
        Self::build(guest, layout, meter, true)
    }

    fn build(
        guest: GuestView,
        layout: Layout,
        meter: Meter,
        private_chaining: bool,
    ) -> Result<Self, RingError> {
        let qsize = layout.qsize;
        let mut extra = Vec::with_capacity(qsize as usize);
        for i in 0..qsize {
            let next = if i + 1 < qsize { i + 1 } else { 0 };
            guest.write_u16(layout.desc(i).add(14), next)?;
            extra.push(next);
        }
        guest.write_u16(layout.avail_idx(), 0)?;
        guest.write_u16(layout.used_idx(), 0)?;
        Ok(Driver {
            guest,
            layout,
            free_head: 0,
            num_free: qsize,
            avail_shadow: 0,
            last_used: 0,
            inflight: vec![None; qsize as usize],
            last_chain: Vec::new(),
            extra_next: private_chaining.then_some(extra),
            meter,
        })
    }

    /// The queue layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Free descriptors remaining.
    pub fn num_free(&self) -> u16 {
        self.num_free
    }

    /// Charges `n` ring-maintenance operations to the shared clock.
    fn charge_ring_ops(&self, n: u64) {
        let mem = self.guest.memory();
        mem.clock()
            .advance(cio_sim::Cycles(mem.cost().ring_op.get() * n));
    }

    fn write_desc(
        &self,
        i: u16,
        addr: GuestAddr,
        len: u32,
        flags: u16,
        next: u16,
    ) -> Result<(), RingError> {
        let d = self.layout.desc(i);
        self.guest.write_u64(d, addr.0)?;
        self.guest.write_u32(d.add(8), len)?;
        self.guest.write_u16(d.add(12), flags)?;
        self.guest.write_u16(d.add(14), next)?;
        Ok(())
    }

    /// Reads a descriptor's `next` field — from the private mirror when
    /// hardened, otherwise from shared memory where the host may have
    /// corrupted it.
    fn read_next(&self, i: u16) -> Result<u16, RingError> {
        if let Some(extra) = &self.extra_next {
            return Ok(extra[usize::from(i) % usize::from(self.layout.qsize)]);
        }
        Ok(self.guest.read_u16(self.layout.desc(i).add(14))?)
    }

    /// Records a descriptor's `next` in the private mirror (if any).
    fn set_private_next(&mut self, i: u16, next: u16) {
        if let Some(extra) = &mut self.extra_next {
            extra[usize::from(i)] = next;
        }
    }

    /// Exposes a buffer chain to the device.
    ///
    /// `outs` are device-readable segments, `ins` device-writable. Returns
    /// the head descriptor index. `token` is returned on completion.
    ///
    /// # Errors
    ///
    /// [`RingError::Full`] if not enough descriptors are free;
    /// [`RingError::TooLarge`] for empty chains.
    pub fn add_buf(
        &mut self,
        outs: &[DescSeg],
        ins: &[DescSeg],
        token: u64,
    ) -> Result<u16, RingError> {
        let needed = (outs.len() + ins.len()) as u16;
        if needed == 0 {
            return Err(RingError::TooLarge);
        }
        if needed > self.num_free {
            return Err(RingError::Full);
        }

        let head = self.free_head;
        let mut cur = self.free_head;
        let total = outs.len() + ins.len();
        self.last_chain.clear();
        for (n, seg) in outs.iter().chain(ins.iter()).enumerate() {
            let is_last = n + 1 == total;
            // Fetch the next free descriptor *before* overwriting `next`.
            let next_free = self.read_next(cur)?;
            let mut flags = if n < outs.len() { 0 } else { DESC_F_WRITE };
            if !is_last {
                flags |= DESC_F_NEXT;
            }
            let next_field = if is_last { 0 } else { next_free };
            self.write_desc(cur, seg.addr, seg.len, flags, next_field)?;
            self.last_chain.push(cur);
            if is_last {
                self.free_head = next_free;
            }
            cur = next_free;
        }
        self.num_free -= needed;

        // Descriptor writes plus the avail slot and index publication.
        self.charge_ring_ops(needed as u64 + 2);
        let in_capacity: u32 = ins.iter().map(|s| s.len).sum();
        self.inflight[head as usize] = Some(Inflight { token, in_capacity });

        // Publish: ring slot, then idx (the barrier is implicit in the
        // sequential simulation).
        let slot = self.avail_shadow % self.layout.qsize;
        self.guest.write_u16(self.layout.avail_ring(slot), head)?;
        self.avail_shadow = self.avail_shadow.wrapping_add(1);
        self.guest
            .write_u16(self.layout.avail_idx(), self.avail_shadow)?;
        Ok(head)
    }

    /// Reads one used-ring entry without consuming or freeing anything.
    ///
    /// The hardened wrapper uses this to validate before it commits.
    pub(crate) fn peek_used(&self) -> Result<Option<(u32, u32)>, RingError> {
        let used_idx = self.used_idx()?;
        if used_idx == self.last_used {
            return Ok(None);
        }
        let slot = self.last_used % self.layout.qsize;
        let entry = self.layout.used_ring(slot);
        let id = self.guest.read_u32(entry)?;
        let len = self.guest.read_u32(entry.add(4))?;
        Ok(Some((id, len)))
    }

    /// Advances past one used entry (hardened path commit step).
    pub(crate) fn advance_used(&mut self) {
        self.last_used = self.last_used.wrapping_add(1);
    }

    /// Takes the in-flight record for exactly `head`, without wrapping.
    pub(crate) fn take_inflight_exact(&mut self, head: u16) -> Option<u64> {
        self.inflight
            .get_mut(head as usize)
            .and_then(|e| e.take())
            .map(|e| e.token)
    }

    /// Frees a chain using a *privately tracked* descriptor list, ignoring
    /// the (host-corruptible) `next` fields entirely.
    pub(crate) fn free_descs_private(&mut self, descs: &[u16]) -> Result<(), RingError> {
        for &d in descs {
            self.guest
                .write_u16(self.layout.desc(d).add(14), self.free_head)?;
            self.set_private_next(d, self.free_head);
            self.free_head = d;
            self.num_free = self.num_free.saturating_add(1).min(self.layout.qsize);
        }
        Ok(())
    }

    /// Descriptor indices allocated by the most recent [`Driver::add_buf`].
    pub(crate) fn last_chain_descs(&self) -> &[u16] {
        &self.last_chain
    }

    /// Number of chains currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.iter().filter(|e| e.is_some()).count()
    }

    /// Reads the device-visible used index (shared memory).
    pub fn used_idx(&self) -> Result<u16, RingError> {
        Ok(self.guest.read_u16(self.layout.used_idx())?)
    }

    /// The driver's consumed-used counter.
    pub fn last_used(&self) -> u16 {
        self.last_used
    }

    /// Frees the chain starting at `head`, walking `next` pointers *in
    /// shared memory*. Returns how many descriptors were reclaimed.
    ///
    /// A host-corrupted `next` field misleads this walk; the iteration cap
    /// stands in for the infinite loop the real driver would enter, and the
    /// oracle records it.
    fn free_chain_unhardened(&mut self, head: u16) -> Result<u16, RingError> {
        let mut cur = head;
        let mut freed = 0u16;
        loop {
            freed += 1;
            let flags = self.guest.read_u16(self.layout.desc(cur).add(12))?;
            let next = self.read_next(cur)?;
            let has_next = flags & DESC_F_NEXT != 0;
            // Thread back into the free list.
            self.guest
                .write_u16(self.layout.desc(cur).add(14), self.free_head)?;
            self.free_head = cur;
            self.num_free = self.num_free.saturating_add(1).min(self.layout.qsize);
            if !has_next {
                break;
            }
            if freed >= self.layout.qsize {
                // Real driver: unbounded loop / free-list corruption.
                self.meter.violations_undetected(1);
                break;
            }
            cur = next % self.layout.qsize; // wrapped access, oracle below
            if next >= self.layout.qsize {
                self.meter.violations_undetected(1);
            }
        }
        Ok(freed)
    }

    /// Polls the used ring for one completion (unhardened).
    ///
    /// Trusts `used.idx`, `used.ring[..].id`, and `used.ring[..].len`
    /// exactly as far as the historical drivers did. Host-forged values
    /// produce wrapped accesses plus oracle counts instead of memory
    /// corruption.
    ///
    /// # Errors
    ///
    /// Only propagates memory errors; host lies are (mis)handled silently.
    pub fn poll_used(&mut self) -> Result<Option<Completion>, RingError> {
        let used_idx = self.used_idx()?;
        self.charge_ring_ops(1);
        if used_idx == self.last_used {
            return Ok(None);
        }
        self.charge_ring_ops(2);
        // Oracle: more pending completions than chains in flight means the
        // host forged the index; the unhardened driver will happily chew
        // through stale ring entries (stale-id reuse in C terms).
        let pending = u32::from(used_idx.wrapping_sub(self.last_used));
        if pending > self.in_flight() as u32 {
            self.meter.violations_undetected(1);
        }
        let slot = self.last_used % self.layout.qsize;
        let entry = self.layout.used_ring(slot);
        let id = self.guest.read_u32(entry)?;
        let len = self.guest.read_u32(entry.add(4))?;
        self.last_used = self.last_used.wrapping_add(1);

        let qsize = u32::from(self.layout.qsize);
        let wrapped_id = (id % qsize) as u16;
        if id >= qsize {
            // C driver: out-of-bounds array index into the state table.
            self.meter.violations_undetected(1);
        }
        let entry = self.inflight[wrapped_id as usize].take();
        let token = match entry {
            Some(inflight) => {
                if len > inflight.in_capacity && inflight.in_capacity > 0 {
                    // Over-long completion: consumer will read past the
                    // payload the device actually wrote.
                    self.meter.violations_undetected(1);
                }
                inflight.token
            }
            None => {
                // Spurious/duplicate completion: C driver frees a chain that
                // is not in flight (double free / stale pointer).
                self.meter.violations_undetected(1);
                0
            }
        };
        self.free_chain_unhardened(wrapped_id)?;
        Ok(Some(Completion { token, len }))
    }
}

/// The host-side view of a virtqueue (the device model).
pub struct DeviceSide {
    host: HostView,
    layout: Layout,
    last_avail: u16,
}

/// A descriptor chain popped by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Head descriptor index (completion id).
    pub head: u16,
    /// Device-readable segments.
    pub readable: Vec<DescSeg>,
    /// Device-writable segments.
    pub writable: Vec<DescSeg>,
}

impl DeviceSide {
    /// Creates the device side over the same layout.
    pub fn new(host: HostView, layout: Layout) -> Self {
        DeviceSide {
            host,
            layout,
            last_avail: 0,
        }
    }

    fn charge_ring_ops(&self, n: u64) {
        let mem = self.host.memory();
        mem.clock()
            .advance(cio_sim::Cycles(mem.cost().ring_op.get() * n));
    }

    fn charge_copy(&self, bytes: usize) {
        let mem = self.host.memory();
        mem.clock().advance(mem.cost().copy(bytes));
        mem.meter().copies(1);
        mem.meter().bytes_copied(bytes as u64);
    }

    /// The queue layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether new buffers are available.
    pub fn has_work(&self) -> Result<bool, RingError> {
        let avail = self.host.read_u16(self.layout.avail_idx())?;
        Ok(avail != self.last_avail)
    }

    fn read_desc(&self, table: GuestAddr, i: u16) -> Result<(GuestAddr, u32, u16, u16), RingError> {
        let d = GuestAddr(table.0 + u64::from(i) * DESC_SIZE);
        let addr = GuestAddr(self.host.read_u64(d)?);
        let len = self.host.read_u32(d.add(8))?;
        let flags = self.host.read_u16(d.add(12))?;
        let next = self.host.read_u16(d.add(14))?;
        Ok((addr, len, flags, next))
    }

    fn collect_chain(&self, head: u16) -> Result<Chain, RingError> {
        let mut chain = Chain {
            head,
            readable: Vec::new(),
            writable: Vec::new(),
        };
        let mut cur = head % self.layout.qsize;
        let mut steps = 0u16;
        loop {
            let (addr, len, flags, next) = self.read_desc(self.layout.base, cur)?;
            if flags & DESC_F_INDIRECT != 0 {
                // Indirect table: `len/16` descriptors stored at `addr`.
                let count = (len / DESC_SIZE as u32) as u16;
                let mut icur = 0u16;
                let mut isteps = 0u16;
                while icur < count {
                    let (ia, il, ifl, inx) = self.read_desc(addr, icur)?;
                    let seg = DescSeg { addr: ia, len: il };
                    if ifl & DESC_F_WRITE != 0 {
                        chain.writable.push(seg);
                    } else {
                        chain.readable.push(seg);
                    }
                    if ifl & DESC_F_NEXT == 0 {
                        break;
                    }
                    isteps += 1;
                    if isteps >= count {
                        return Err(RingError::HostViolation(Violation::ChainLoop));
                    }
                    icur = inx % count.max(1);
                }
            } else {
                let seg = DescSeg { addr, len };
                if flags & DESC_F_WRITE != 0 {
                    chain.writable.push(seg);
                } else {
                    chain.readable.push(seg);
                }
            }
            if flags & DESC_F_NEXT == 0 {
                break;
            }
            steps += 1;
            if steps >= self.layout.qsize {
                return Err(RingError::HostViolation(Violation::ChainLoop));
            }
            cur = next % self.layout.qsize;
        }
        Ok(chain)
    }

    /// Pops the next available chain, if any.
    ///
    /// # Errors
    ///
    /// Memory errors, or [`Violation::ChainLoop`] if the guest published a
    /// looping chain (the device also defends itself).
    pub fn pop(&mut self) -> Result<Option<Chain>, RingError> {
        if !self.has_work()? {
            return Ok(None);
        }
        let slot = self.last_avail % self.layout.qsize;
        let head = self.host.read_u16(self.layout.avail_ring(slot))?;
        self.last_avail = self.last_avail.wrapping_add(1);
        let chain = self.collect_chain(head % self.layout.qsize)?;
        self.charge_ring_ops(2 + (chain.readable.len() + chain.writable.len()) as u64);
        Ok(Some(chain))
    }

    /// Reads and concatenates a chain's readable payload.
    ///
    /// # Errors
    ///
    /// [`cio_mem::MemError::Protected`] if the guest handed the device a
    /// private address — exactly what happens when a CVM forgets to bounce.
    pub fn read_payload(&self, chain: &Chain) -> Result<Vec<u8>, RingError> {
        let mut out = Vec::new();
        for seg in &chain.readable {
            let mut buf = vec![0u8; seg.len as usize];
            self.host.read(seg.addr, &mut buf)?;
            out.extend_from_slice(&buf);
        }
        // The backend copies the payload into its own buffers (skb/iov).
        self.charge_copy(out.len());
        Ok(out)
    }

    /// Writes `data` into a chain's writable segments; returns bytes
    /// written.
    ///
    /// # Errors
    ///
    /// Memory errors as for [`DeviceSide::read_payload`].
    pub fn write_payload(&self, chain: &Chain, data: &[u8]) -> Result<u32, RingError> {
        let mut written = 0usize;
        for seg in &chain.writable {
            if written == data.len() {
                break;
            }
            let take = (data.len() - written).min(seg.len as usize);
            self.host.write(seg.addr, &data[written..written + take])?;
            written += take;
        }
        self.charge_copy(written);
        Ok(written as u32)
    }

    /// Publishes a completion for chain `head` with `len` bytes written.
    pub fn complete(&mut self, head: u16, len: u32) -> Result<(), RingError> {
        self.charge_ring_ops(2);
        let used_idx = self.host.read_u16(self.layout.used_idx())?;
        let slot = used_idx % self.layout.qsize;
        let entry = self.layout.used_ring(slot);
        self.host.write_u32(entry, u32::from(head))?;
        self.host.write_u32(entry.add(4), len)?;
        self.host
            .write_u16(self.layout.used_idx(), used_idx.wrapping_add(1))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel};

    fn setup(qsize: u16) -> (GuestMemory, Driver, DeviceSide) {
        let meter = Meter::new();
        let mem = GuestMemory::new(32, Clock::new(), CostModel::default(), meter.clone());
        // Share the first 8 pages: queue structures + buffer arena.
        mem.share_range(GuestAddr(0), 8 * PAGE_SIZE).unwrap();
        let layout = Layout::new(GuestAddr(0), qsize).unwrap();
        assert!(layout.total_size() < 4 * PAGE_SIZE);
        let driver = Driver::new(mem.guest(), layout, meter).unwrap();
        let device = DeviceSide::new(mem.host(), layout);
        (mem, driver, device)
    }

    /// Buffer arena: pages 4..8 of the shared range.
    fn buf(i: u64) -> GuestAddr {
        GuestAddr(4 * PAGE_SIZE as u64 + i * 256)
    }

    #[test]
    fn layout_rejects_bad_qsize() {
        assert!(Layout::new(GuestAddr(0), 0).is_err());
        assert!(Layout::new(GuestAddr(0), 3).is_err());
        assert!(Layout::new(GuestAddr(0), 8).is_ok());
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = Layout::new(GuestAddr(0), 16).unwrap();
        let desc_end = l.desc(15).0 + DESC_SIZE;
        assert!(l.avail_flags().0 >= desc_end);
        let avail_end = l.avail_ring(15).0 + 2 + 2;
        assert!(l.used_flags().0 >= avail_end);
        assert_eq!(l.used_flags().0 % 4, 0);
    }

    #[test]
    fn tx_roundtrip() {
        let (mem, mut driver, mut device) = setup(8);
        mem.guest().write(buf(0), b"hello device").unwrap();
        let head = driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 12,
                }],
                &[],
                0xAA,
            )
            .unwrap();
        let chain = device.pop().unwrap().expect("chain available");
        assert_eq!(chain.head, head);
        assert_eq!(device.read_payload(&chain).unwrap(), b"hello device");
        device.complete(chain.head, 0).unwrap();
        let done = driver.poll_used().unwrap().expect("completion");
        assert_eq!(done.token, 0xAA);
        assert_eq!(driver.num_free(), 8);
    }

    #[test]
    fn rx_roundtrip_multi_segment() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[],
                &[
                    DescSeg {
                        addr: buf(1),
                        len: 8,
                    },
                    DescSeg {
                        addr: buf(2),
                        len: 8,
                    },
                ],
                7,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.writable.len(), 2);
        let n = device.write_payload(&chain, b"0123456789AB").unwrap();
        assert_eq!(n, 12);
        device.complete(chain.head, n).unwrap();
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.len, 12);
        let mut a = [0u8; 8];
        let mut b = [0u8; 4];
        mem.guest().read(buf(1), &mut a).unwrap();
        mem.guest().read(buf(2), &mut b).unwrap();
        assert_eq!(&a, b"01234567");
        assert_eq!(&b, b"89AB");
    }

    #[test]
    fn queue_fills_and_recycles() {
        let (_mem, mut driver, mut device) = setup(4);
        for i in 0..4 {
            driver
                .add_buf(
                    &[DescSeg {
                        addr: buf(i),
                        len: 16,
                    }],
                    &[],
                    i,
                )
                .unwrap();
        }
        assert_eq!(driver.num_free(), 0);
        assert!(matches!(
            driver.add_buf(
                &[DescSeg {
                    addr: buf(9),
                    len: 4
                }],
                &[],
                9
            ),
            Err(RingError::Full)
        ));
        // Drain and refill.
        for _ in 0..4 {
            let c = device.pop().unwrap().unwrap();
            device.complete(c.head, 0).unwrap();
        }
        for _ in 0..4 {
            driver.poll_used().unwrap().unwrap();
        }
        assert_eq!(driver.num_free(), 4);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                1,
            )
            .unwrap();
    }

    #[test]
    fn empty_chain_rejected() {
        let (_mem, mut driver, _device) = setup(4);
        assert!(matches!(
            driver.add_buf(&[], &[], 0),
            Err(RingError::TooLarge)
        ));
    }

    #[test]
    fn poll_on_empty_returns_none() {
        let (_mem, mut driver, _device) = setup(4);
        assert_eq!(driver.poll_used().unwrap(), None);
    }

    #[test]
    fn oob_used_id_flagged_by_oracle() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                1,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Malicious host: complete with id = 1000 (>= qsize).
        device.complete(1000, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        let after = mem.meter().snapshot().violations_undetected;
        assert!(after > before, "oracle must flag the wrapped access");
        // The driver got *something* back — the wrong something.
        let _ = (chain, done);
    }

    #[test]
    fn overlong_completion_len_flagged() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[],
                &[DescSeg {
                    addr: buf(0),
                    len: 64,
                }],
                2,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Host claims it wrote 100000 bytes into a 64-byte buffer.
        device.complete(chain.head, 100_000).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.len, 100_000, "unhardened driver trusts the length");
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn spurious_completion_flagged() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                3,
            )
            .unwrap();
        let c = device.pop().unwrap().unwrap();
        device.complete(c.head, 0).unwrap();
        driver.poll_used().unwrap().unwrap();
        // Replay the same completion: chain no longer in flight.
        device.complete(c.head, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.token, 0);
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn corrupted_next_pointer_misleads_free_walk() {
        let (mem, mut driver, mut device) = setup(8);
        // Two-segment chain occupies descriptors 0 and 1.
        driver
            .add_buf(
                &[
                    DescSeg {
                        addr: buf(0),
                        len: 4,
                    },
                    DescSeg {
                        addr: buf(1),
                        len: 4,
                    },
                ],
                &[],
                4,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Host corrupts descriptor 0's next field to point out of range.
        let l = *driver.layout();
        mem.host().write_u16(l.desc(0).add(14), 999).unwrap();
        device.complete(chain.head, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        driver.poll_used().unwrap().unwrap();
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn negotiation_happy_path() {
        let (mem, _driver, _device) = setup(4);
        let cfg = ConfigSpace {
            base: GuestAddr(6 * PAGE_SIZE as u64),
        };
        let offered = F_VERSION_1 | F_NET_MAC | F_NET_MTU | F_RING_INDIRECT_DESC;
        cfg.device_init(&mem.host(), [2, 0, 0, 0, 0, 1], 1500, offered)
            .unwrap();
        let accepted =
            driver_negotiate(&cfg, &mem.guest(), F_VERSION_1 | F_NET_MAC | F_NET_CSUM).unwrap();
        assert_eq!(accepted, F_VERSION_1 | F_NET_MAC);
        let status = cfg.read_status(&mem.guest()).unwrap();
        assert!(status & STATUS_DRIVER_OK != 0);
        assert_eq!(cfg.read_mtu(&mem.guest()).unwrap(), 1500);
        assert_eq!(cfg.read_mac(&mem.guest()).unwrap(), [2, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn negotiation_host_veto() {
        let (mem, _driver, _device) = setup(4);
        let cfg = ConfigSpace {
            base: GuestAddr(6 * PAGE_SIZE as u64),
        };
        cfg.device_init(&mem.host(), [0; 6], 1500, F_VERSION_1)
            .unwrap();
        // A device that rejects the accepted feature set clears FEATURES_OK
        // before the driver's re-read. The sequential simulation cannot
        // interleave inside `driver_negotiate`, so script the same step
        // sequence here with the veto inserted at the protocol-defined
        // point.
        let guest = mem.guest();
        cfg.write_status(&guest, STATUS_ACKNOWLEDGE).unwrap();
        cfg.write_status(&guest, STATUS_ACKNOWLEDGE | STATUS_DRIVER)
            .unwrap();
        let offered = cfg.read_device_features(&guest).unwrap();
        cfg.write_driver_features(&guest, offered).unwrap();
        cfg.write_status(
            &guest,
            STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK,
        )
        .unwrap();
        // Device veto:
        cfg.host_write_status(&mem.host(), STATUS_ACKNOWLEDGE | STATUS_DRIVER)
            .unwrap();
        let status = cfg.read_status(&guest).unwrap();
        assert_eq!(status & STATUS_FEATURES_OK, 0, "veto visible to driver");
    }

    #[test]
    fn device_side_detects_guest_chain_loop() {
        let (mem, mut driver, mut device) = setup(4);
        driver
            .add_buf(
                &[
                    DescSeg {
                        addr: buf(0),
                        len: 4,
                    },
                    DescSeg {
                        addr: buf(1),
                        len: 4,
                    },
                ],
                &[],
                0,
            )
            .unwrap();
        // Corrupt the chain into a loop (0 -> 0).
        let l = *driver.layout();
        mem.guest().write_u16(l.desc(0).add(14), 0).unwrap();
        let r = device.pop();
        assert!(matches!(
            r,
            Err(RingError::HostViolation(Violation::ChainLoop))
        ));
    }

    #[test]
    fn indirect_chain_collected() {
        let (mem, mut driver, mut device) = setup(8);
        // Build an indirect table at buf(8): two readable segments.
        let itable = buf(8);
        let g = mem.guest();
        // Entry 0: buf(0), len 4, NEXT, next=1.
        g.write_u64(itable, buf(0).0).unwrap();
        g.write_u32(itable.add(8), 4).unwrap();
        g.write_u16(itable.add(12), DESC_F_NEXT).unwrap();
        g.write_u16(itable.add(14), 1).unwrap();
        // Entry 1: buf(1), len 4, end.
        g.write_u64(itable.add(16), buf(1).0).unwrap();
        g.write_u32(itable.add(24), 4).unwrap();
        g.write_u16(itable.add(28), 0).unwrap();
        g.write_u16(itable.add(30), 0).unwrap();
        g.write(buf(0), b"abcd").unwrap();
        g.write(buf(1), b"efgh").unwrap();

        // Publish a single descriptor with INDIRECT pointing at the table.
        let head = driver
            .add_buf(
                &[DescSeg {
                    addr: itable,
                    len: 32,
                }],
                &[],
                0,
            )
            .unwrap();
        // Patch the flags to INDIRECT (add_buf writes a plain readable).
        let l = *driver.layout();
        g.write_u16(l.desc(head).add(12), DESC_F_INDIRECT).unwrap();

        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.readable.len(), 2);
        assert_eq!(device.read_payload(&chain).unwrap(), b"abcdefgh");
    }
}
