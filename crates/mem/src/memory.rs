//! The shared guest-physical address space and its two views.
//!
//! A [`GuestMemory`] owns a flat byte array plus a per-page state table.
//! The [`GuestView`] models the confidential VM/enclave side: it can read
//! and write every page. The [`HostView`] models the untrusted hypervisor:
//! it can only access pages in [`PageState::Shared`]; anything else fails
//! like an RMP violation would. Page-state transitions are charged to the
//! cost model and counted on the meter, because they are the primitives
//! whose relative costs drive the copy-vs-revocation exploration (E7).

use crate::{GuestAddr, MemError, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Meter};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Protection state of one guest page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Encrypted/guest-only; the host cannot read or usefully write it.
    Private,
    /// Visible to both the guest and the host.
    Shared,
}

/// Data-positioning policy for a trust boundary (§3.2).
///
/// The paper frames copies as a first-class design decision: a boundary
/// either *positions* data directly where the other side will read it, or
/// it *copies early* into private memory so that nothing the host mutates
/// afterwards can influence the guest. The in-slot dataplane consults this
/// policy before sealing or parsing records in shared ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyPolicy {
    /// Data may be produced and consumed directly in shared slot memory.
    /// Safe when every datum is read exactly once (single-fetch) and
    /// authenticated before use, which is what the hardened ring and the
    /// fused AEAD guarantee.
    #[default]
    InPlace,
    /// Every payload must be staged through a private buffer before the
    /// boundary is crossed. This is the SWIOTLB-style "copy always"
    /// discipline; adversarial double-fetch configurations select it so
    /// the in-slot fast path falls back to the staged path automatically.
    CopyEarly,
}

impl CopyPolicy {
    /// Whether this policy permits operating on shared slot memory in
    /// place (no staging copy).
    #[inline]
    pub fn allows_in_place(self) -> bool {
        matches!(self, CopyPolicy::InPlace)
    }
}

/// Pages per lock stripe. One stripe covers 512 KiB, a whole ring payload
/// area, so on an area laid out on a stripe boundary every run of slots
/// lives inside a single stripe and the in-place hot path takes exactly
/// one uncontended lock — while distinct queues' ring arenas land on
/// distinct stripes and never serialize against each other in the
/// thread-per-queue parallel host.
const STRIPE_PAGES: usize = 128;

/// Bytes per lock stripe. An access that straddles two stripes is
/// served through a bounce copy of the whole range, so layouts align
/// their hot regions to it.
pub const STRIPE_BYTES: usize = STRIPE_PAGES * PAGE_SIZE;

impl PageState {
    #[inline]
    fn to_u8(self) -> u8 {
        match self {
            PageState::Private => 0,
            PageState::Shared => 1,
        }
    }

    #[inline]
    fn from_u8(v: u8) -> PageState {
        if v == 0 {
            PageState::Private
        } else {
            PageState::Shared
        }
    }
}

/// The backing store, shared by every handle/view of one address space.
///
/// The byte array is sharded into independently locked stripes and the
/// page-state table is lock-free atomics, so accesses to disjoint
/// stripes — per-queue ring arenas, in particular — proceed in parallel.
/// Cross-stripe accesses lock stripes one at a time in address order;
/// like real memory, a multi-cache-line access is not atomic against a
/// concurrent writer (that tearing window is exactly what the TOCTOU
/// adversaries probe).
struct MemShared {
    /// Empty until first touched (see `GuestMemory::lock_stripe`).
    stripes: Vec<Mutex<Vec<u8>>>,
    states: Vec<AtomicU8>,
    /// Serializes share/unshare so check-then-flip transitions stay
    /// atomic; data accesses never take it.
    transitions: Mutex<()>,
    len: usize,
}

thread_local! {
    /// Reusable staging buffer for the rare `with_range` that straddles a
    /// stripe boundary: grown once per thread, then steady-state
    /// allocation-free.
    static STRADDLE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A simulated guest-physical address space.
///
/// Cloning yields another handle to the same memory (like mapping the same
/// guest into two processes).
///
/// # Examples
///
/// ```
/// use cio_mem::{GuestMemory, GuestAddr, PAGE_SIZE};
/// use cio_sim::{Clock, CostModel, Meter};
///
/// let mem = GuestMemory::new(4, Clock::new(), CostModel::default(), Meter::new());
/// mem.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
/// mem.guest().write(GuestAddr(16), b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// mem.host().read(GuestAddr(16), &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Clone)]
pub struct GuestMemory {
    shared: Arc<MemShared>,
    clock: Clock,
    cost: Arc<CostModel>,
    meter: Meter,
}

impl GuestMemory {
    /// Creates `pages` pages of private guest memory.
    pub fn new(pages: usize, clock: Clock, cost: CostModel, meter: Meter) -> Self {
        let len = pages * PAGE_SIZE;
        let stripes = (0..len.div_ceil(STRIPE_BYTES)).map(|_| Mutex::default());
        GuestMemory {
            shared: Arc::new(MemShared {
                stripes: stripes.collect(),
                states: (0..pages)
                    .map(|_| AtomicU8::new(PageState::Private.to_u8()))
                    .collect(),
                transitions: Mutex::new(()),
                len,
            }),
            clock,
            cost: Arc::new(cost),
            meter,
        }
    }

    /// Returns a handle to the same address space whose *time charges* go
    /// to `clock` instead of this handle's clock. The backing bytes,
    /// page states, cost model, and meter stay shared (the meter's
    /// counters are atomic sums, so totals remain order-independent).
    ///
    /// The parallel host gives each worker thread a handle bound to its
    /// private lane clock: the worker charges virtual time at its lane
    /// frontier while the shared world clock stays untouched until the
    /// coordinator folds the lanes back at the barrier.
    pub fn with_clock(&self, clock: Clock) -> GuestMemory {
        GuestMemory {
            shared: Arc::clone(&self.shared),
            clock,
            cost: Arc::clone(&self.cost),
            meter: self.meter.clone(),
        }
    }

    /// Total size in bytes.
    pub fn len(&self) -> usize {
        self.shared.len
    }

    /// Whether the memory has zero pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The shared meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Returns the state of the page containing `addr`.
    pub fn page_state(&self, addr: GuestAddr) -> Result<PageState, MemError> {
        self.shared
            .states
            .get(addr.page_index())
            .map(|s| PageState::from_u8(s.load(Ordering::Acquire)))
            .ok_or(MemError::OutOfBounds)
    }

    fn transition(&self, addr: GuestAddr, len: usize, to: PageState) -> Result<usize, MemError> {
        if !addr.is_page_aligned() {
            return Err(MemError::Misaligned);
        }
        let pages = len.div_ceil(PAGE_SIZE);
        let first = addr.page_index();
        let _serialize = self
            .shared
            .transitions
            .lock()
            .expect("transition lock poisoned");
        if first + pages > self.shared.states.len() {
            return Err(MemError::OutOfBounds);
        }
        let range = &self.shared.states[first..first + pages];
        for s in range {
            if PageState::from_u8(s.load(Ordering::Acquire)) == to {
                return Err(MemError::BadTransition);
            }
        }
        for s in range {
            s.store(to.to_u8(), Ordering::Release);
        }
        Ok(pages)
    }

    /// Checks that every page in `[start, end)` is host-visible.
    fn check_host_pages(&self, start: usize, end: usize) -> Result<(), MemError> {
        let first = start / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for s in &self.shared.states[first..=last] {
            if PageState::from_u8(s.load(Ordering::Acquire)) != PageState::Shared {
                return Err(MemError::Protected);
            }
        }
        Ok(())
    }

    /// Locks stripe `i`, zero-filling it on its first touch: an address
    /// space costs what its users touch, and building one never zeroes
    /// the untouched rest (whose cost would swing with the heap's state).
    #[inline]
    fn lock_stripe(&self, i: usize) -> MutexGuard<'_, Vec<u8>> {
        let mut stripe = self.shared.stripes[i].lock().expect("memory lock poisoned");
        if stripe.is_empty() {
            *stripe = vec![0u8; STRIPE_BYTES.min(self.shared.len - i * STRIPE_BYTES)];
        }
        stripe
    }

    /// Walks the stripes spanned by `[start, start + len)` in address
    /// order, handing `f` each stripe's overlapping subslice plus the
    /// request-relative offset it maps to.
    fn for_stripes(&self, start: usize, len: usize, mut f: impl FnMut(&mut [u8], usize)) {
        let mut off = 0;
        while off < len {
            let pos = start + off;
            let si = pos / STRIPE_BYTES;
            let so = pos % STRIPE_BYTES;
            let n = (STRIPE_BYTES - so).min(len - off);
            let mut stripe = self.lock_stripe(si);
            f(&mut stripe[so..so + n], off);
            off += n;
        }
    }

    /// Makes `len` bytes of pages starting at page-aligned `addr` visible
    /// to the host. Charges the per-page share cost. The range's stripes
    /// are zero-filled here if still untouched, so the ring traffic that
    /// runs over shared memory never allocates.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] for unaligned `addr`, [`MemError::OutOfBounds`]
    /// past the end, [`MemError::BadTransition`] if any page is already
    /// shared.
    pub fn share_range(&self, addr: GuestAddr, len: usize) -> Result<(), MemError> {
        let pages = self.transition(addr, len, PageState::Shared)?;
        self.for_stripes(addr.0 as usize, len, |_, _| ());
        self.clock.advance(self.cost.share(pages));
        self.meter.pages_shared(pages as u64);
        Ok(())
    }

    /// Revokes host visibility of the pages holding `len` bytes at `addr`.
    ///
    /// Charges the batched un-share cost (per-page RMP update plus a single
    /// TLB shootdown) — this is the "revocation" primitive of §3.2.
    pub fn unshare_range(&self, addr: GuestAddr, len: usize) -> Result<(), MemError> {
        let pages = self.transition(addr, len, PageState::Private)?;
        self.clock.advance(self.cost.unshare(pages));
        self.meter.pages_revoked(pages as u64);
        Ok(())
    }

    /// Returns the guest-side (trusted) view.
    pub fn guest(&self) -> GuestView {
        GuestView { mem: self.clone() }
    }

    /// Returns the host-side (untrusted) view.
    pub fn host(&self) -> HostView {
        HostView { mem: self.clone() }
    }

    fn access(
        &self,
        addr: GuestAddr,
        len: usize,
        host: bool,
        write: Option<&[u8]>,
        read: Option<&mut [u8]>,
    ) -> Result<(), MemError> {
        let start = addr.0 as usize;
        let end = start.checked_add(len).ok_or(MemError::OutOfBounds)?;
        if end > self.shared.len {
            return Err(MemError::OutOfBounds);
        }
        if host && len > 0 {
            self.check_host_pages(start, end)?;
        }
        if let Some(src) = write {
            self.for_stripes(start, len, |seg, off| {
                seg.copy_from_slice(&src[off..off + seg.len()]);
            });
        }
        if let Some(dst) = read {
            self.for_stripes(start, len, |seg, off| {
                dst[off..off + seg.len()].copy_from_slice(seg);
            });
        }
        Ok(())
    }

    /// Runs `f` over the bytes `[addr, addr + len)` in place, with the
    /// same bounds and page-state checks as a read or write from the given
    /// side (`host = true` requires every touched page to be shared).
    ///
    /// This is the *data positioning* primitive: the closure sees the real
    /// backing bytes, so a producer can seal a record directly into a ring
    /// slot and a consumer can parse it where it lies — no staging copy.
    ///
    /// The closure runs under a memory lock (the single stripe holding
    /// the range on the fast path), so it must not call back into this
    /// [`GuestMemory`] (doing so could deadlock, exactly like touching
    /// guest memory from an SMI handler would wedge real hardware). Pure
    /// computation over the slice — AEAD, header parsing, checksums — is
    /// the intended use.
    ///
    /// The backing store is striped (one lock per `STRIPE_PAGES` = 128 pages),
    /// so ranges within one stripe — every well-formed ring slot — take
    /// exactly one lock and distinct queues never contend. A range that
    /// straddles a stripe boundary is staged through a per-thread scratch
    /// buffer (copy out, run `f`, copy back), which preserves the
    /// in-place semantics at a copy cost only adversarially mis-aligned
    /// ranges pay.
    pub fn with_range<R>(
        &self,
        addr: GuestAddr,
        len: usize,
        host: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemError> {
        let start = addr.0 as usize;
        let end = start.checked_add(len).ok_or(MemError::OutOfBounds)?;
        if end > self.shared.len {
            return Err(MemError::OutOfBounds);
        }
        if len == 0 {
            return Ok(f(&mut []));
        }
        if host {
            self.check_host_pages(start, end)?;
        }
        let first_stripe = start / STRIPE_BYTES;
        if (end - 1) / STRIPE_BYTES == first_stripe {
            let mut stripe = self.lock_stripe(first_stripe);
            let so = start % STRIPE_BYTES;
            return Ok(f(&mut stripe[so..so + len]));
        }
        STRADDLE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(len, 0);
            self.for_stripes(start, len, |seg, off| {
                scratch[off..off + seg.len()].copy_from_slice(seg);
            });
            let out = f(&mut scratch);
            self.for_stripes(start, len, |seg, off| {
                seg.copy_from_slice(&scratch[off..off + seg.len()]);
            });
            Ok(out)
        })
    }
}

// The parallel host hands worker threads views over the same address
// space; keep that audited at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GuestMemory>();
    assert_send_sync::<GuestView>();
    assert_send_sync::<HostView>();
};

/// Uniform access interface over [`GuestView`] and [`HostView`].
///
/// Transports that have symmetric endpoints (the cio-ring has a producer
/// and a consumer on *either* side of the trust boundary) are generic over
/// this trait; the permission behaviour still differs because the
/// implementations enforce their own page-state rules.
pub trait MemView {
    /// Reads `buf.len()` bytes at `addr`.
    fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError>;
    /// Writes `data` at `addr`.
    fn write(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError>;
    /// The underlying memory handle (clock/cost/meter access).
    fn memory(&self) -> &GuestMemory;
    /// Whether this is the untrusted host side (used to pick notification
    /// costs: doorbell vs. interrupt injection).
    fn is_host(&self) -> bool;

    /// Reads a little-endian `u16`.
    fn read_u16(&self, addr: GuestAddr) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: GuestAddr) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: GuestAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    fn write_u16(&self, addr: GuestAddr, v: u16) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    fn write_u32(&self, addr: GuestAddr, v: u32) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    fn write_u64(&self, addr: GuestAddr, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Runs `f` directly over `[addr, addr + len)` with this view's
    /// permission checks (the host side still faults on private pages).
    ///
    /// See [`GuestMemory::with_range`] for the locking contract: the
    /// closure must not touch the memory handle again.
    fn with_range_mut<R>(
        &self,
        addr: GuestAddr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemError> {
        self.memory().with_range(addr, len, self.is_host(), f)
    }
}

impl MemView for GuestView {
    fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        GuestView::read(self, addr, buf)
    }
    fn write(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        GuestView::write(self, addr, data)
    }
    fn memory(&self) -> &GuestMemory {
        GuestView::memory(self)
    }
    fn is_host(&self) -> bool {
        false
    }
}

impl MemView for HostView {
    fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        HostView::read(self, addr, buf)
    }
    fn write(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        HostView::write(self, addr, data)
    }
    fn memory(&self) -> &GuestMemory {
        HostView::memory(self)
    }
    fn is_host(&self) -> bool {
        true
    }
}

/// Trusted (guest) access to the whole address space.
#[derive(Clone)]
pub struct GuestView {
    mem: GuestMemory,
}

impl GuestView {
    /// Reads `buf.len()` bytes at `addr`.
    pub fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.mem.access(addr, buf.len(), false, None, Some(buf))
    }

    /// Writes `data` at `addr`.
    pub fn write(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        self.mem.access(addr, data.len(), false, Some(data), None)
    }

    /// Copies `data` into guest memory, charging copy cost and metering it.
    ///
    /// Use this (not [`GuestView::write`]) when modelling a *data-path
    /// copy*; plain `write` models stores that would happen anyway.
    pub fn copy_in(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        self.write(addr, data)?;
        self.mem.clock.advance(self.mem.cost.copy(data.len()));
        self.mem.meter.copies(1);
        self.mem.meter.bytes_copied(data.len() as u64);
        Ok(())
    }

    /// Copies bytes out of guest memory, charging copy cost and metering it.
    pub fn copy_out(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.read(addr, buf)?;
        self.mem.clock.advance(self.mem.cost.copy(buf.len()));
        self.mem.meter.copies(1);
        self.mem.meter.bytes_copied(buf.len() as u64);
        Ok(())
    }

    /// The underlying memory handle.
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }
}

/// Untrusted (host) access: shared pages only.
#[derive(Clone)]
pub struct HostView {
    mem: GuestMemory,
}

impl HostView {
    /// Reads from shared memory.
    ///
    /// # Errors
    ///
    /// [`MemError::Protected`] if any touched page is private.
    pub fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.mem.access(addr, buf.len(), true, None, Some(buf))
    }

    /// Writes to shared memory.
    ///
    /// # Errors
    ///
    /// [`MemError::Protected`] if any touched page is private.
    pub fn write(&self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        self.mem.access(addr, data.len(), true, Some(data), None)
    }

    /// The underlying memory handle (for state queries in tests).
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_sim::Cycles;

    fn mem(pages: usize) -> GuestMemory {
        GuestMemory::new(pages, Clock::new(), CostModel::default(), Meter::new())
    }

    #[test]
    fn guest_can_access_private() {
        let m = mem(2);
        m.guest().write(GuestAddr(100), b"secret").unwrap();
        let mut buf = [0u8; 6];
        m.guest().read(GuestAddr(100), &mut buf).unwrap();
        assert_eq!(&buf, b"secret");
    }

    #[test]
    fn host_blocked_from_private() {
        let m = mem(2);
        m.guest().write(GuestAddr(100), b"secret").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(
            m.host().read(GuestAddr(100), &mut buf),
            Err(MemError::Protected)
        );
        assert_eq!(
            m.host().write(GuestAddr(100), b"x"),
            Err(MemError::Protected)
        );
    }

    #[test]
    fn sharing_grants_host_access() {
        let m = mem(2);
        m.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        m.host().write(GuestAddr(8), b"from host").unwrap();
        let mut buf = [0u8; 9];
        m.guest().read(GuestAddr(8), &mut buf).unwrap();
        assert_eq!(&buf, b"from host");
        // Second page is still private.
        assert_eq!(
            m.host().write(GuestAddr(PAGE_SIZE as u64), b"x"),
            Err(MemError::Protected)
        );
    }

    #[test]
    fn unshare_revokes_access() {
        let m = mem(1);
        m.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        m.host().write(GuestAddr(0), b"ok").unwrap();
        m.unshare_range(GuestAddr(0), PAGE_SIZE).unwrap();
        assert_eq!(
            m.host().write(GuestAddr(0), b"no"),
            Err(MemError::Protected)
        );
        // Guest still sees the data the host wrote while it was shared.
        let mut buf = [0u8; 2];
        m.guest().read(GuestAddr(0), &mut buf).unwrap();
        assert_eq!(&buf, b"ok");
    }

    #[test]
    fn cross_page_host_access_requires_all_shared() {
        let m = mem(2);
        m.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        let straddle = GuestAddr(PAGE_SIZE as u64 - 2);
        assert_eq!(m.host().write(straddle, b"abcd"), Err(MemError::Protected));
        m.share_range(GuestAddr(PAGE_SIZE as u64), PAGE_SIZE)
            .unwrap();
        m.host().write(straddle, b"abcd").unwrap();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = mem(1);
        let mut buf = [0u8; 8];
        assert_eq!(
            m.guest().read(GuestAddr(PAGE_SIZE as u64 - 4), &mut buf),
            Err(MemError::OutOfBounds)
        );
        assert_eq!(
            m.guest().read(GuestAddr(u64::MAX - 2), &mut buf),
            Err(MemError::OutOfBounds)
        );
        assert_eq!(
            m.share_range(GuestAddr(0), 2 * PAGE_SIZE),
            Err(MemError::OutOfBounds)
        );
    }

    #[test]
    fn misaligned_share_rejected() {
        let m = mem(2);
        assert_eq!(m.share_range(GuestAddr(12), 100), Err(MemError::Misaligned));
    }

    #[test]
    fn double_share_rejected() {
        let m = mem(1);
        m.share_range(GuestAddr(0), 1).unwrap();
        assert_eq!(m.share_range(GuestAddr(0), 1), Err(MemError::BadTransition));
        m.unshare_range(GuestAddr(0), 1).unwrap();
        assert_eq!(
            m.unshare_range(GuestAddr(0), 1),
            Err(MemError::BadTransition)
        );
    }

    #[test]
    fn transitions_charge_time_and_meter() {
        let m = mem(8);
        let t0 = m.clock().now();
        m.share_range(GuestAddr(0), 4 * PAGE_SIZE).unwrap();
        let shared_at = m.clock().now();
        assert_eq!(shared_at - t0, m.cost().share(4));
        m.unshare_range(GuestAddr(0), 4 * PAGE_SIZE).unwrap();
        assert_eq!(m.clock().now() - shared_at, m.cost().unshare(4));
        let snap = m.meter().snapshot();
        assert_eq!(snap.pages_shared, 4);
        assert_eq!(snap.pages_revoked, 4);
    }

    #[test]
    fn copy_helpers_meter() {
        let m = mem(1);
        m.guest().copy_in(GuestAddr(0), &[7u8; 100]).unwrap();
        let mut out = [0u8; 100];
        m.guest().copy_out(GuestAddr(0), &mut out).unwrap();
        assert_eq!(out, [7u8; 100]);
        let snap = m.meter().snapshot();
        assert_eq!(snap.copies, 2);
        assert_eq!(snap.bytes_copied, 200);
        assert!(m.clock().now() > Cycles::ZERO);
    }

    #[test]
    fn scalar_accessors_roundtrip() {
        let m = mem(1);
        let g = m.guest();
        g.write_u16(GuestAddr(0), 0xBEEF).unwrap();
        g.write_u32(GuestAddr(8), 0xDEAD_BEEF).unwrap();
        g.write_u64(GuestAddr(16), 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(g.read_u16(GuestAddr(0)).unwrap(), 0xBEEF);
        assert_eq!(g.read_u32(GuestAddr(8)).unwrap(), 0xDEAD_BEEF);
        assert_eq!(g.read_u64(GuestAddr(16)).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn host_sees_guest_writes_to_shared() {
        // The double-fetch window: host mutates between guest reads.
        let m = mem(1);
        m.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        let g = m.guest();
        let h = m.host();
        g.write_u32(GuestAddr(0), 100).unwrap();
        let first_fetch = g.read_u32(GuestAddr(0)).unwrap();
        h.write_u32(GuestAddr(0), 4096).unwrap(); // host flips it
        let second_fetch = g.read_u32(GuestAddr(0)).unwrap();
        assert_eq!(first_fetch, 100);
        assert_eq!(second_fetch, 4096); // TOCTOU is representable
    }

    #[test]
    fn with_range_sees_and_mutates_backing_bytes() {
        let m = mem(2);
        m.guest().write(GuestAddr(64), b"abcd").unwrap();
        let got = m
            .guest()
            .with_range_mut(GuestAddr(64), 4, |bytes| {
                let copy = bytes.to_vec();
                bytes.copy_from_slice(b"WXYZ");
                copy
            })
            .unwrap();
        assert_eq!(got, b"abcd");
        let mut back = [0u8; 4];
        m.guest().read(GuestAddr(64), &mut back).unwrap();
        assert_eq!(&back, b"WXYZ");
    }

    #[test]
    fn with_range_enforces_host_page_state() {
        let m = mem(2);
        assert_eq!(
            m.host().with_range_mut(GuestAddr(0), 8, |_| ()),
            Err(MemError::Protected)
        );
        m.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        m.host()
            .with_range_mut(GuestAddr(0), 8, |b| b.fill(7))
            .unwrap();
        // Straddling into the private second page still faults.
        assert_eq!(
            m.host()
                .with_range_mut(GuestAddr(PAGE_SIZE as u64 - 4), 8, |_| ()),
            Err(MemError::Protected)
        );
        assert_eq!(
            m.guest().with_range_mut(GuestAddr(0), usize::MAX, |_| ()),
            Err(MemError::OutOfBounds)
        );
    }

    #[test]
    fn with_range_straddling_a_stripe_boundary_round_trips() {
        // Enough pages for two stripes; pick a range crossing the seam.
        let m = mem(STRIPE_PAGES + 4);
        let seam = STRIPE_BYTES as u64;
        let addr = GuestAddr(seam - 8);
        m.guest().write(addr, &[0xAAu8; 16]).unwrap();
        let seen = m
            .guest()
            .with_range_mut(addr, 16, |bytes| {
                let copy = bytes.to_vec();
                for b in bytes.iter_mut() {
                    *b ^= 0xFF;
                }
                copy
            })
            .unwrap();
        assert_eq!(seen, vec![0xAA; 16], "closure sees the backing bytes");
        let mut back = [0u8; 16];
        m.guest().read(addr, &mut back).unwrap();
        assert_eq!(back, [0x55; 16], "mutations land across the seam");
    }

    #[test]
    fn reads_and_writes_span_many_stripes() {
        let m = mem(3 * STRIPE_PAGES);
        let len = 2 * STRIPE_BYTES + 123;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        m.guest().write(GuestAddr(17), &data).unwrap();
        let mut back = vec![0u8; len];
        m.guest().read(GuestAddr(17), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn stripes_are_zero_filled_when_shared_or_first_touched() {
        // A partial last stripe: 2.5 stripes of pages.
        let m = mem(5 * STRIPE_PAGES / 2);
        let live = |m: &GuestMemory| {
            let stripes = m.shared.stripes.iter();
            stripes.filter(|s| !s.lock().unwrap().is_empty()).count()
        };
        assert_eq!(live(&m), 0, "building an address space zeroes nothing");
        m.share_range(GuestAddr(STRIPE_BYTES as u64), PAGE_SIZE)
            .unwrap();
        assert_eq!(live(&m), 1);
        let (last, mut b) = (GuestAddr(m.len() as u64 - 4), [1u8; 4]);
        m.guest().read(last, &mut b).unwrap();
        assert_eq!((b, live(&m)), ([0; 4], 2));
        assert_eq!(m.shared.stripes[2].lock().unwrap().len(), STRIPE_BYTES / 2);
    }

    #[test]
    fn with_clock_shares_bytes_but_charges_its_own_clock() {
        let m = mem(1);
        let lane = Clock::new();
        let lane_view = m.with_clock(lane.clone());
        lane_view.guest().copy_in(GuestAddr(0), &[9u8; 64]).unwrap();
        // The copy charged the lane clock, not the world clock.
        assert!(lane.now() > Cycles::ZERO);
        assert_eq!(m.clock().now(), Cycles::ZERO);
        // ... but the bytes and the meter are the same underneath.
        let mut out = [0u8; 64];
        m.guest().read(GuestAddr(0), &mut out).unwrap();
        assert_eq!(out, [9u8; 64]);
        assert_eq!(m.meter().snapshot().copies, 1);
        // Page-state transitions are visible through both handles.
        lane_view.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        assert_eq!(m.page_state(GuestAddr(0)).unwrap(), PageState::Shared);
    }

    #[test]
    fn disjoint_stripes_are_accessible_from_concurrent_threads() {
        let m = mem(2 * STRIPE_PAGES);
        let other = m.clone();
        let t = std::thread::spawn(move || {
            for i in 0..500u64 {
                other
                    .guest()
                    .with_range_mut(GuestAddr(STRIPE_BYTES as u64), 512, |b| b.fill(i as u8))
                    .unwrap();
            }
        });
        for i in 0..500u64 {
            m.guest()
                .with_range_mut(GuestAddr(0), 512, |b| b.fill(i as u8))
                .unwrap();
        }
        t.join().unwrap();
        let mut a = [0u8; 1];
        let mut b = [0u8; 1];
        m.guest().read(GuestAddr(0), &mut a).unwrap();
        m.guest()
            .read(GuestAddr(STRIPE_BYTES as u64), &mut b)
            .unwrap();
        assert_eq!(a[0], 243); // 499 % 256
        assert_eq!(b[0], 243);
    }

    #[test]
    fn copy_policy_defaults_in_place() {
        assert!(CopyPolicy::default().allows_in_place());
        assert!(!CopyPolicy::CopyEarly.allows_in_place());
    }

    #[test]
    fn zero_length_host_access_never_faults() {
        let m = mem(1);
        let mut empty = [0u8; 0];
        m.host().read(GuestAddr(0), &mut empty).unwrap();
        m.host().write(GuestAddr(0), &[]).unwrap();
    }
}
