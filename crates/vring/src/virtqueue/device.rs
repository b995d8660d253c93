//! The host side of the split virtqueue: the device model the untrusted
//! backend pops chains and publishes completions with. Nothing in this
//! file runs in the guest.

use super::{DescSeg, Layout, DESC_F_INDIRECT, DESC_F_NEXT, DESC_F_WRITE, DESC_SIZE};
use crate::{RingError, Violation};
use cio_mem::{GuestAddr, HostView, MemView};

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
