//! SWIOTLB-style bounce buffering.
//!
//! Linux CVMs route paravirtual DMA through a shared bounce pool: the
//! driver copies every transmit buffer into the pool before handing it to
//! the host, and copies every receive buffer out of the pool before the
//! guest may look at it. The paper's §2.5 criticism is that this discipline
//! "copies systematically even in cases where double fetch is impossible";
//! this module implements the discipline faithfully so the hardened-virtio
//! baseline pays exactly that tax (experiment E5).
//!
//! Slot metadata (the free list) is guest-private state; only the slot
//! *contents* are shared with the host.

use crate::{GuestAddr, GuestMemory, MemError, PAGE_SIZE};

/// A fixed pool of shared bounce slots.
///
/// # Examples
///
/// ```
/// use cio_mem::{BouncePool, GuestMemory, GuestAddr};
/// use cio_sim::{Clock, CostModel, Meter};
///
/// let mem = GuestMemory::new(16, Clock::new(), CostModel::default(), Meter::new());
/// let mut pool = BouncePool::new(&mem, GuestAddr(0), 8, cio_mem::PAGE_SIZE).unwrap();
/// let slot = pool.bounce_tx(b"packet bytes").unwrap();
/// // ... host consumes the slot ...
/// pool.release(slot).unwrap();
/// ```
pub struct BouncePool {
    mem: GuestMemory,
    base: GuestAddr,
    slot_count: usize,
    /// Bytes per slot: a whole number of pages, room for one frame.
    slot_bytes: usize,
    /// Free list lives here, in guest-private allocator state — the host
    /// cannot corrupt it.
    free: Vec<usize>,
    in_use: Vec<bool>,
}

/// A handle to an allocated bounce slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BounceSlot {
    /// Index of the slot in the pool.
    pub index: usize,
    /// Guest-physical address of the slot.
    pub addr: GuestAddr,
    /// Bytes of payload currently in the slot.
    pub len: usize,
}

impl BouncePool {
    /// Creates a pool of `slots` slots of `slot_bytes` each (rounded up to
    /// whole pages) starting at page-aligned `base`, sharing the
    /// underlying pages with the host.
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the share operation.
    pub fn new(
        mem: &GuestMemory,
        base: GuestAddr,
        slots: usize,
        slot_bytes: usize,
    ) -> Result<Self, MemError> {
        let slot_bytes = slot_bytes.max(1).next_multiple_of(PAGE_SIZE);
        mem.share_range(base, slots * slot_bytes)?;
        Ok(BouncePool {
            mem: mem.clone(),
            base,
            slot_count: slots,
            slot_bytes,
            free: (0..slots).rev().collect(),
            in_use: vec![false; slots],
        })
    }

    /// Number of slots currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total slots in the pool.
    pub fn capacity(&self) -> usize {
        self.slot_count
    }

    fn slot_addr(&self, index: usize) -> GuestAddr {
        self.base.add((index * self.slot_bytes) as u64)
    }

    /// Allocates a slot without copying (receive path: host will fill it).
    ///
    /// # Errors
    ///
    /// [`MemError::PoolExhausted`] when no slot is free.
    pub fn alloc_rx(&mut self) -> Result<BounceSlot, MemError> {
        let index = self.free.pop().ok_or(MemError::PoolExhausted)?;
        self.in_use[index] = true;
        Ok(BounceSlot {
            index,
            addr: self.slot_addr(index),
            len: self.slot_bytes,
        })
    }

    /// Allocates a slot and copies `data` into it (transmit path).
    ///
    /// Charges one metered copy — this is the systematic SWIOTLB copy.
    ///
    /// # Errors
    ///
    /// [`MemError::PoolExhausted`] if no slot is free or
    /// [`MemError::OutOfBounds`] if `data` exceeds a slot.
    pub fn bounce_tx(&mut self, data: &[u8]) -> Result<BounceSlot, MemError> {
        if data.len() > self.slot_bytes {
            return Err(MemError::OutOfBounds);
        }
        let mut slot = self.alloc_rx()?;
        slot.len = data.len();
        self.mem.guest().copy_in(slot.addr, data)?;
        Ok(slot)
    }

    /// Copies `len` bytes out of a slot into private memory (receive path)
    /// and returns them. Charges one metered copy.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] if the slot is not currently allocated;
    /// [`MemError::OutOfBounds`] if `len` exceeds the slot.
    pub fn bounce_rx(&mut self, slot: BounceSlot, len: usize) -> Result<Vec<u8>, MemError> {
        if slot.index >= self.slot_count || !self.in_use[slot.index] {
            return Err(MemError::BadFree);
        }
        if len > self.slot_bytes {
            return Err(MemError::OutOfBounds);
        }
        let mut buf = vec![0u8; len];
        self.mem.guest().copy_out(slot.addr, &mut buf)?;
        Ok(buf)
    }

    /// Returns a slot to the pool.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] on double free or foreign slots.
    pub fn release(&mut self, slot: BounceSlot) -> Result<(), MemError> {
        if slot.index >= self.slot_count || !self.in_use[slot.index] {
            return Err(MemError::BadFree);
        }
        self.in_use[slot.index] = false;
        self.free.push(slot.index);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_sim::{Clock, CostModel, Meter};

    fn pool(slots: usize) -> (GuestMemory, BouncePool) {
        let mem = GuestMemory::new(slots + 2, Clock::new(), CostModel::default(), Meter::new());
        let p = BouncePool::new(&mem, GuestAddr(0), slots, PAGE_SIZE).unwrap();
        (mem, p)
    }

    #[test]
    fn tx_copies_into_shared_slot() {
        let (mem, mut p) = pool(4);
        let slot = p.bounce_tx(b"hello host").unwrap();
        assert_eq!(slot.len, 10);
        // The host can read the bounced bytes.
        let mut buf = [0u8; 10];
        mem.host().read(slot.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello host");
        // Exactly one copy was metered.
        assert_eq!(mem.meter().snapshot().copies, 1);
    }

    #[test]
    fn rx_copies_out() {
        let (mem, mut p) = pool(4);
        let slot = p.alloc_rx().unwrap();
        mem.host().write(slot.addr, b"incoming").unwrap();
        let data = p.bounce_rx(slot, 8).unwrap();
        assert_eq!(&data, b"incoming");
        assert_eq!(mem.meter().snapshot().copies, 1);
    }

    #[test]
    fn exhaustion_and_release() {
        let (_mem, mut p) = pool(2);
        let a = p.alloc_rx().unwrap();
        let _b = p.alloc_rx().unwrap();
        assert_eq!(p.alloc_rx().unwrap_err(), MemError::PoolExhausted);
        assert_eq!(p.available(), 0);
        p.release(a).unwrap();
        assert_eq!(p.available(), 1);
        assert!(p.alloc_rx().is_ok());
    }

    #[test]
    fn double_free_rejected() {
        let (_mem, mut p) = pool(2);
        let a = p.alloc_rx().unwrap();
        p.release(a).unwrap();
        assert_eq!(p.release(a), Err(MemError::BadFree));
    }

    #[test]
    fn foreign_slot_rejected() {
        let (_mem, mut p) = pool(2);
        let fake = BounceSlot {
            index: 99,
            addr: GuestAddr(0),
            len: 0,
        };
        assert_eq!(p.release(fake), Err(MemError::BadFree));
        assert_eq!(p.bounce_rx(fake, 4), Err(MemError::BadFree));
    }

    #[test]
    fn oversized_tx_rejected() {
        let (_mem, mut p) = pool(2);
        let big = vec![0u8; PAGE_SIZE + 1];
        assert_eq!(p.bounce_tx(&big), Err(MemError::OutOfBounds));
        // Slot was not leaked by the failed attempt... it was allocated
        // before the copy; verify pool still has both slots.
        assert_eq!(p.available(), 2);
    }

    #[test]
    fn slots_are_distinct_pages() {
        let (_mem, mut p) = pool(3);
        let a = p.alloc_rx().unwrap();
        let b = p.alloc_rx().unwrap();
        assert_ne!(a.addr, b.addr);
        assert_eq!((a.addr.0 as usize) % PAGE_SIZE, 0);
        assert_eq!((b.addr.0 as usize) % PAGE_SIZE, 0);
    }
}
