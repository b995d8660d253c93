//! N independent cio rings steered as one multi-queue device model.
//!
//! This is host-side structure: the guest's multi-queue device
//! (`cio::dev::CioRingDevice`) steers with the same masked hash but keeps
//! its own per-queue state, so nothing here is in any design's TCB.

use cio_sim::Meter;
use cio_vring::RingError;

/// One queue of a [`MultiQueue`]: a ring endpoint plus the private state a
/// per-core queue owns on real multi-queue NICs.
///
/// `end` is whatever the embedding layer services per queue (a
/// producer/consumer pair, a device half, ...). The meter is *per queue*
/// so traffic can be attributed queue by queue.
#[derive(Debug)]
pub struct QueueLane<E> {
    /// The ring endpoint serviced on this queue.
    pub end: E,
    /// Traffic counters private to this queue (frames land in `copies`,
    /// bytes in `bytes_copied`, mirroring the global meter's categories).
    pub meter: Meter,
}

impl<E> QueueLane<E> {
    fn new(end: E) -> Self {
        QueueLane {
            end,
            meter: Meter::new(),
        }
    }

    /// Records one frame of `bytes` payload moved through this queue.
    #[inline]
    pub fn note_frame(&self, bytes: usize) {
        self.meter.copies(1);
        self.meter.bytes_copied(bytes as u64);
    }
}

/// N independent safe rings steered as one multi-queue interface.
///
/// Scaling the §3.2 ring out does not relax any of its principles — it
/// replicates them. Each queue is a complete single-producer
/// single-consumer ring with its own fixed config, masked indices, and
/// fatal-only error discipline; `MultiQueue` adds only the steering
/// arithmetic. The queue count must be a power of two so that steering is
/// the same masked-index discipline the ring itself uses
/// (`hash & (n - 1)`): no host- or flow-derived value can select an
/// out-of-range queue.
#[derive(Debug)]
pub struct MultiQueue<E> {
    lanes: Vec<QueueLane<E>>,
    mask: u32,
}

impl<E> MultiQueue<E> {
    /// Wraps one endpoint per queue.
    ///
    /// # Errors
    ///
    /// [`RingError::Fatal`] unless the queue count is a non-zero power of
    /// two (fixed at construction; there is no runtime queue control
    /// plane).
    pub fn new(ends: Vec<E>) -> Result<Self, RingError> {
        let n = ends.len();
        if n == 0 || !n.is_power_of_two() || n > u32::MAX as usize {
            return Err(RingError::Fatal("queue count must be a power of two"));
        }
        Ok(MultiQueue {
            lanes: ends.into_iter().map(QueueLane::new).collect(),
            mask: (n - 1) as u32,
        })
    }

    /// Number of queues.
    #[inline]
    pub fn queues(&self) -> usize {
        self.lanes.len()
    }

    /// The steering mask (`queues - 1`).
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Borrows queue `q`.
    pub fn lane(&self, q: usize) -> &QueueLane<E> {
        &self.lanes[q]
    }

    /// Mutably borrows queue `q`.
    pub fn lane_mut(&mut self, q: usize) -> &mut QueueLane<E> {
        &mut self.lanes[q]
    }

    /// Iterates over the queues in index order.
    pub fn iter(&self) -> impl Iterator<Item = &QueueLane<E>> {
        self.lanes.iter()
    }

    /// Mutably iterates over the queues in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut QueueLane<E>> {
        self.lanes.iter_mut()
    }

    /// Dissolves the steering wrapper into its per-queue lanes (index
    /// order), each keeping its endpoint and meter.
    ///
    /// The thread-per-queue parallel host calls this to pin one lane per
    /// worker thread: each queue was already a complete independent ring
    /// with zero cross-queue shared state, so handing the lanes to
    /// different threads changes ownership, not semantics. Steering
    /// (`hash & mask`) stays with the coordinator.
    pub fn into_lanes(self) -> Vec<QueueLane<E>> {
        self.lanes
    }
}

// Compile-time `Send` audit: the parallel host moves whole lanes — host
// endpoints and their per-queue meters — onto worker threads.
const _: () = {
    use cio_mem::HostView;
    use cio_vring::cioring::{Consumer, Producer};
    const fn assert_send<T: Send>() {}
    assert_send::<QueueLane<(Producer<HostView>, Consumer<HostView>)>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestAddr, GuestMemory, GuestView, HostView, PAGE_SIZE};
    use cio_sim::{Clock, CostModel};
    use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

    /// One guest-produces, host-consumes ring in its own memory.
    fn ring_pair() -> (Producer<GuestView>, Consumer<HostView>) {
        let cfg = RingConfig {
            slots: 8,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 1024,
            area_size: 8 * 1024,
            ..RingConfig::default()
        };
        let area = GuestAddr(16 * PAGE_SIZE as u64);
        let mem = GuestMemory::new(34, Clock::new(), CostModel::default(), Meter::new());
        let ring = CioRing::new(cfg, GuestAddr(0), area).unwrap();
        mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
        mem.share_range(area, ring.area_bytes()).unwrap();
        let p = Producer::new(ring.clone(), mem.guest()).unwrap();
        let c = Consumer::new(ring, mem.host()).unwrap();
        (p, c)
    }

    #[test]
    fn multiqueue_requires_power_of_two() {
        assert!(MultiQueue::new(Vec::<u32>::new()).is_err());
        assert!(matches!(
            MultiQueue::new(vec![0u32, 1, 2]),
            Err(RingError::Fatal(_))
        ));
        let mq = MultiQueue::new(vec![0u32, 1, 2, 3]).unwrap();
        assert_eq!(mq.queues(), 4);
        assert_eq!(mq.mask(), 3);
    }

    #[test]
    fn multiqueue_lanes_have_private_meters() {
        let mq = MultiQueue::new(vec![(), ()]).unwrap();
        mq.lane(0).note_frame(1514);
        assert_eq!(mq.lane(0).meter.snapshot().bytes_copied, 1514);
        assert_eq!(mq.lane(1).meter.snapshot().bytes_copied, 0);
    }

    #[test]
    fn multiqueue_wraps_real_ring_pairs() {
        // Each queue is a complete, independent safe ring.
        let mut pairs = Vec::new();
        for _ in 0..4 {
            pairs.push(ring_pair());
        }
        let mut mq = MultiQueue::new(pairs).unwrap();
        let q = (0xabcd_1234 & mq.mask()) as usize;
        let lane = mq.lane_mut(q);
        lane.end.0.produce(b"steered frame").unwrap();
        let got = lane
            .end
            .1
            .consume()
            .unwrap()
            .expect("frame on steered queue");
        assert_eq!(&got, b"steered frame");
        // Sibling queues saw nothing.
        for i in 0..4 {
            if i != q {
                assert_eq!(mq.lane_mut(i).end.1.available().unwrap(), 0);
            }
        }
    }
}
