//! The guest side of the split virtqueue: the deliberately unhardened
//! [`Driver`] (see the [module docs](super) for the corruption oracle).

use super::{DescSeg, Layout, DESC_F_NEXT, DESC_F_WRITE};
use crate::RingError;
use cio_mem::{GuestAddr, GuestView, MemView};
use cio_sim::Meter;

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
