//! Multi-queue block steering: LBA-extent striping across ring lanes.
//!
//! The network side scales by steering flows to queues with an RSS hash
//! (`cio_netstack::rss`); storage mirrors that with *address* steering:
//! the LBA space is cut into fixed-size extents and extent `e` is owned by
//! lane `e % lanes`. Every block has exactly one home lane (the storage
//! analogue of flow affinity), so per-lane backends need no cross-lane
//! locking.
//!
//! Both `lanes` and `extent` must be powers of two so steering is a
//! shift-and-mask, like the RSS indirection mask. Runs submitted through
//! the [`RunStore`] interface are split at extent boundaries; each segment
//! stays a contiguous run on its home lane, so batched sealing still gets
//! its amortization within a segment.

use crate::blockdev::{BlockStore, RunStore};
use crate::transport::RingBlockStore;
use crate::BlockError;
use cio_sim::Telemetry;

/// Stripes a logical block space across homogeneous lanes by extent.
pub struct MultiQueueStore<S: BlockStore> {
    lanes: Vec<S>,
    /// log2(extent blocks).
    extent_shift: u32,
    /// log2(lane count).
    lane_shift: u32,
    blocks: u64,
    /// Lane-local LBA staging for scatter reads (steady-state reuse).
    scatter_scratch: Vec<u64>,
}

impl<S: BlockStore> MultiQueueStore<S> {
    /// Stripes `lanes` stores into one block space, `extent` consecutive
    /// blocks per stripe.
    ///
    /// Capacity is the largest striped space every lane can back: partial
    /// extents at a lane's tail are unused, exactly like disks rounded to
    /// stripe size in a RAID-0 set.
    ///
    /// # Panics
    ///
    /// If `lanes` is empty, or `lanes.len()` / `extent` is not a power of
    /// two.
    ///
    /// # Errors
    ///
    /// [`BlockError::NoSpace`] if some lane is smaller than one extent.
    pub fn new(lanes: Vec<S>, extent: u64) -> Result<Self, BlockError> {
        assert!(!lanes.is_empty(), "need at least one lane");
        assert!(
            lanes.len().is_power_of_two(),
            "lane count must be a power of two"
        );
        assert!(
            extent >= 1 && extent.is_power_of_two(),
            "extent must be a power of two"
        );
        let extent_shift = extent.trailing_zeros();
        let lane_shift = lanes.len().trailing_zeros();
        let stripes_per_lane = lanes
            .iter()
            .map(|l| l.blocks() >> extent_shift)
            .min()
            .unwrap();
        if stripes_per_lane == 0 {
            return Err(BlockError::NoSpace);
        }
        let blocks = (stripes_per_lane << lane_shift) << extent_shift;
        Ok(MultiQueueStore {
            lanes,
            extent_shift,
            lane_shift,
            blocks,
            scatter_scratch: Vec::with_capacity(64),
        })
    }

    /// Extent size in blocks.
    pub fn extent(&self) -> u64 {
        1 << self.extent_shift
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Maps a global LBA to `(lane, lane-local LBA)`.
    pub fn steer(&self, lba: u64) -> (usize, u64) {
        let stripe = lba >> self.extent_shift;
        let lane = (stripe & ((1 << self.lane_shift) - 1)) as usize;
        let local =
            ((stripe >> self.lane_shift) << self.extent_shift) | (lba & (self.extent() - 1));
        (lane, local)
    }

    /// Direct access to one lane's store.
    pub fn lane_mut(&mut self, lane: usize) -> &mut S {
        &mut self.lanes[lane]
    }

    /// Blocks remaining in the extent that contains `lba` (the largest
    /// segment starting at `lba` that one lane owns contiguously).
    fn extent_remaining(&self, lba: u64) -> u64 {
        self.extent() - (lba & (self.extent() - 1))
    }

    fn check(&self, lba: u64, count: usize) -> Result<(), BlockError> {
        let end = lba
            .checked_add(count as u64)
            .ok_or(BlockError::OutOfRange)?;
        if end > self.blocks {
            return Err(BlockError::OutOfRange);
        }
        Ok(())
    }
}

impl MultiQueueStore<RingBlockStore> {
    /// Attributes each lane's work to its own telemetry queue.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (q, lane) in self.lanes.iter_mut().enumerate() {
            lane.set_telemetry(telemetry.clone(), q);
        }
    }
}

impl<S: BlockStore> BlockStore for MultiQueueStore<S> {
    fn read_block(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.check(lba, 1)?;
        let (lane, local) = self.steer(lba);
        self.lanes[lane].read_block(local, buf)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.check(lba, 1)?;
        let (lane, local) = self.steer(lba);
        self.lanes[lane].write_block(local, data)
    }

    fn blocks(&self) -> u64 {
        self.blocks
    }
}

impl<S: RunStore> RunStore for MultiQueueStore<S> {
    fn write_run_with(
        &mut self,
        lba: u64,
        count: usize,
        fill: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        self.check(lba, count)?;
        let mut off = 0usize;
        while off < count {
            let cur = lba + off as u64;
            let seg = (count - off).min(self.extent_remaining(cur) as usize);
            let (lane, local) = self.steer(cur);
            self.lanes[lane].write_run_with(local, seg, &mut |b, slots| fill(off + b, slots))?;
            off += seg;
        }
        Ok(())
    }

    fn read_run_with(
        &mut self,
        lba: u64,
        count: usize,
        sink: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        self.check(lba, count)?;
        let mut off = 0usize;
        while off < count {
            let cur = lba + off as u64;
            let seg = (count - off).min(self.extent_remaining(cur) as usize);
            let (lane, local) = self.steer(cur);
            self.lanes[lane].read_run_with(local, seg, &mut |b, slots| sink(off + b, slots))?;
            off += seg;
        }
        Ok(())
    }

    fn read_scatter_with(
        &mut self,
        lbas: &[u64],
        sink: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        for &l in lbas {
            self.check(l, 1)?;
        }
        // Split into maximal groups of consecutive entries sharing a home
        // lane; each group is one lane-local scatter batch. Processing
        // groups in list order preserves the trait's in-order delivery.
        let mut g = 0usize;
        while g < lbas.len() {
            let lane = self.steer(lbas[g]).0;
            let mut e = g + 1;
            while e < lbas.len() && self.steer(lbas[e]).0 == lane {
                e += 1;
            }
            self.scatter_scratch.clear();
            for &l in &lbas[g..e] {
                let local = self.steer(l).1;
                self.scatter_scratch.push(local);
            }
            let Self {
                lanes,
                scatter_scratch,
                ..
            } = self;
            lanes[lane].read_scatter_with(scatter_scratch, &mut |b, slots| sink(g + b, slots))?;
            g = e;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::{RamDisk, BLOCK_SIZE};
    use crate::crypt::CryptStore;
    use crate::transport::{BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR};
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

    fn ring_lane(disk_blocks: u64, profile: BlkProfile) -> (GuestMemory, RingBlockStore) {
        let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 16,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: (BLOCK_SIZE + BLK_HDR) as u32,
            area_size: 1 << 17,
            notify: profile.notify,
            ..RingConfig::default()
        };
        let req_ring =
            CioRing::new(cfg.clone(), GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).unwrap();
        let resp_ring = CioRing::new(
            cfg,
            GuestAddr(8 * PAGE_SIZE as u64),
            GuestAddr(64 * PAGE_SIZE as u64),
        )
        .unwrap();
        mem.share_range(GuestAddr(0), req_ring.ring_bytes())
            .unwrap();
        mem.share_range(GuestAddr(8 * PAGE_SIZE as u64), resp_ring.ring_bytes())
            .unwrap();
        mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), req_ring.area_bytes())
            .unwrap();
        mem.share_range(GuestAddr(64 * PAGE_SIZE as u64), resp_ring.area_bytes())
            .unwrap();
        let front = CioBlkFrontend::with_profile(
            Producer::new(req_ring.clone(), mem.guest()).unwrap(),
            Consumer::new(resp_ring.clone(), mem.guest()).unwrap(),
            profile,
        );
        let back = CioBlkBackend::with_profile(
            Consumer::new(req_ring, mem.host()).unwrap(),
            Producer::new(resp_ring, mem.host()).unwrap(),
            RamDisk::new(disk_blocks),
            profile,
        );
        (mem, RingBlockStore::new(front, back))
    }

    fn pattern(i: usize) -> Vec<u8> {
        (0..BLOCK_SIZE)
            .map(|j| ((i * 37 + j * 13) % 251) as u8)
            .collect()
    }

    #[test]
    fn steering_is_a_bijection() {
        let mq = MultiQueueStore::new((0..4).map(|_| RamDisk::new(32)).collect(), 4).unwrap();
        assert_eq!(mq.blocks(), 4 * 32);
        let mut seen = std::collections::HashSet::new();
        for lba in 0..mq.blocks() {
            let (lane, local) = mq.steer(lba);
            assert!(lane < 4);
            assert!(local < 32, "local {local} out of lane range");
            assert!(seen.insert((lane, local)), "collision at lba {lba}");
            // Consecutive blocks in one extent share a lane.
            if lba % 4 != 0 {
                assert_eq!(mq.steer(lba - 1).0, lane);
            }
        }
    }

    #[test]
    fn capacity_rounds_to_whole_extents() {
        // 30 blocks at extent 8 => 3 stripes per lane.
        let mq = MultiQueueStore::new(vec![RamDisk::new(30), RamDisk::new(33)], 8).unwrap();
        assert_eq!(mq.blocks(), 2 * 3 * 8);
        assert!(MultiQueueStore::new(vec![RamDisk::new(3)], 8).is_err());
    }

    #[test]
    fn runs_split_at_extent_boundaries() {
        let mut mq = MultiQueueStore::new((0..2).map(|_| RamDisk::new(64)).collect(), 4).unwrap();
        let n = 19usize;
        let base = 2u64; // unaligned start
        let data: Vec<u8> = (0..n).flat_map(pattern).collect();
        // Track which run-relative indices the fill was asked for.
        let mut filled = vec![0u32; n];
        mq.write_run_with(base, n, &mut |b, slots| {
            for (s, slot) in slots.iter_mut().enumerate() {
                let i = b + s;
                filled[i] += 1;
                slot.copy_from_slice(&data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]);
            }
        })
        .unwrap();
        assert!(filled.iter().all(|&c| c == 1), "every index filled once");
        // Read back through both the run and serial interfaces.
        let mut seen = vec![0u32; n];
        let mut out = vec![0u8; n * BLOCK_SIZE];
        mq.read_run_with(base, n, &mut |b, slots| {
            for (s, slot) in slots.iter_mut().enumerate() {
                let i = b + s;
                seen[i] += 1;
                out[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE].copy_from_slice(slot);
            }
        })
        .unwrap();
        assert!(seen.iter().all(|&c| c == 1));
        assert_eq!(out, data);
        let mut one = vec![0u8; BLOCK_SIZE];
        mq.read_block(base + 7, &mut one).unwrap();
        assert_eq!(one, pattern(7));
    }

    #[test]
    fn crypt_over_multiqueue_rings_roundtrips_and_detects_tamper() {
        let (_m0, l0) = ring_lane(128, BlkProfile::batched(8));
        let (_m1, l1) = ring_lane(128, BlkProfile::batched(8));
        let mq = MultiQueueStore::new(vec![l0, l1], 8).unwrap();
        let mut crypt = CryptStore::new(mq, [0x44; 32]).unwrap();
        let n = 24usize;
        let data: Vec<u8> = (0..n).flat_map(pattern).collect();
        crypt.write_run(3, &data).unwrap();
        let mut out = vec![0u8; n * BLOCK_SIZE];
        crypt.read_run(3, &mut out).unwrap();
        assert_eq!(out, data);
        // Tamper one lane's disk; the damaged global block fails closed.
        let (lane, local) = crypt.inner_mut().steer(10);
        crypt
            .inner_mut()
            .lane_mut(lane)
            .backend_mut()
            .disk_mut()
            .tamper(local, 5, 0x01)
            .unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            crypt.read_block(10, &mut buf),
            Err(BlockError::IntegrityViolation)
        );
        // Other blocks (other lanes and extents) still verify.
        crypt.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, pattern(0));
    }
}
