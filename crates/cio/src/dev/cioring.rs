//! The cio-ring as a (multi-queue) network device.

use crate::CioError;
use cio_mem::{CopyPolicy, GuestView};
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_vring::cioring::{BatchPolicy, Consumer, Producer, MAX_BATCH};

/// One queue's guest-side ring pair.
struct GuestQueue {
    tx: Producer<GuestView>,
    rx: Consumer<GuestView>,
}

/// The cio-ring as a (multi-queue) network device.
///
/// Transmit steers each frame to a queue with the symmetric RSS hash
/// ([`cio_netstack::rss`]); the host backend uses the same hash for the
/// return direction, so a flow stays on one queue end to end without any
/// negotiation. Receive round-robins across queues, or drains a single
/// queue when a scheduler pins one via
/// [`select_rx_queue`](NetDevice::select_rx_queue).
///
/// Both directions copy early: every frame pays one metered copy between
/// private and shared memory.
pub struct CioRingDevice {
    queues: Vec<GuestQueue>,
    mask: u32,
    active_rx: Option<usize>,
    rx_cursor: usize,
    mac: MacAddr,
    mtu: usize,
    /// The buffers a receive pass drains into, shared by every queue:
    /// `rx_bufs[rx_next..rx_len]` are frames not yet handed out.
    rx_bufs: [Vec<u8>; MAX_BATCH],
    rx_next: usize,
    rx_len: usize,
    /// Record-batching discipline for receive draining: runs of up to this
    /// many slots per shared-index read, memory-lock acquisition, and
    /// consumer-index write (Serial, the default, is the run of one) —
    /// the guest-side mirror of the host backend's servicing.
    batch: BatchPolicy,
}

impl CioRingDevice {
    /// Wraps one ring pair per queue, wiring early copy onto both ring
    /// endpoints. The MTU and MAC come from the fixed ring config
    /// (zero-negotiation: there is no other source); the queue count must
    /// be a non-zero power of two so steering is a masked index.
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] for a bad queue count — misconfiguration never
    /// becomes a runtime error path.
    pub fn new(queues: Vec<(Producer<GuestView>, Consumer<GuestView>)>) -> Result<Self, CioError> {
        if queues.is_empty() || !queues.len().is_power_of_two() {
            return Err(CioError::Fatal(
                "cio-ring device needs a power-of-two queue count",
            ));
        }
        let cfg = queues[0].0.ring().config();
        let mask = queues.len() as u32 - 1;
        Ok(CioRingDevice {
            mac: MacAddr(cfg.mac),
            mtu: cfg.mtu as usize - cio_netstack::wire::ETH_HDR_LEN,
            queues: queues
                .into_iter()
                .map(|(mut tx, mut rx)| {
                    tx.set_copy_policy(CopyPolicy::CopyEarly);
                    rx.set_copy_policy(CopyPolicy::CopyEarly);
                    GuestQueue { tx, rx }
                })
                .collect(),
            mask,
            rx_bufs: std::array::from_fn(|_| Vec::new()),
            rx_next: 0,
            rx_len: 0,
            active_rx: None,
            rx_cursor: 0,
            batch: BatchPolicy::default(),
        })
    }

    /// Sets the record-batching discipline for receive draining.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch = batch;
    }

    fn recv_from(&mut self, q: usize, frame: &mut Vec<u8>) -> bool {
        // One pass pulls a run of frames from queue `q` under a single
        // lock and a single consumer-index write, each copied early (the
        // ring's one metered copy) into the device's receive buffers; the
        // caller takes them one at a time by swapping its buffer for the
        // frame's, so once the buffers in circulation have grown to the
        // frame limit a receive allocates nothing. A run is handed out in
        // full before any queue is drained again, so the queues share one
        // run's worth of buffers.
        if self.rx_next == self.rx_len {
            let bufs = &mut self.rx_bufs[..self.batch.max_batch()];
            let drained = self.queues[q].rx.consume_batch_into(bufs).unwrap_or(0);
            (self.rx_next, self.rx_len) = (0, drained);
            if self.rx_len == 0 {
                return false;
            }
        }
        std::mem::swap(frame, &mut self.rx_bufs[self.rx_next]);
        self.rx_next += 1;
        true
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

    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        if let Some(q) = self.active_rx {
            return self.recv_from(q, frame);
        }
        // Round-robin: resume at the cursor so no queue starves when the
        // caller drains one frame at a time.
        for i in 0..self.queues.len() {
            let q = (self.rx_cursor + i) & self.mask as usize;
            if self.recv_from(q, frame) {
                self.rx_cursor = q;
                return true;
            }
        }
        self.rx_cursor = (self.rx_cursor + 1) & self.mask as usize;
        false
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

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{CioRing, RingConfig};

    /// One frame each way costs exactly one metered copy and revokes no
    /// page: early copy is the device's only positioning, in both
    /// directions.
    #[test]
    fn one_frame_each_way_is_one_metered_copy() {
        let mem = GuestMemory::new(64, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 8,
            area_size: 8 * 2048,
            ..RingConfig::default()
        };
        // Ring words on page `page`, its payload area on the four after.
        let ring = |page: usize| {
            let base = GuestAddr((page * PAGE_SIZE) as u64);
            let area = base.add(PAGE_SIZE as u64);
            let ring = CioRing::new(cfg.clone(), base, area).unwrap();
            mem.share_range(base, ring.ring_bytes()).unwrap();
            mem.share_range(area, ring.area_bytes()).unwrap();
            ring
        };
        let (tx_ring, rx_ring) = (ring(0), ring(8));
        let guest_tx = Producer::new(tx_ring.clone(), mem.guest()).unwrap();
        let guest_rx = Consumer::new(rx_ring.clone(), mem.guest()).unwrap();
        let mut host_rx = Consumer::new(tx_ring, mem.host()).unwrap();
        let mut host_tx = Producer::new(rx_ring, mem.host()).unwrap();
        let mut dev = CioRingDevice::new(vec![(guest_tx, guest_rx)]).unwrap();
        let frame = [0x5Au8; 128];

        let before = mem.meter().snapshot();
        dev.transmit(&frame).unwrap();
        let d = mem.meter().snapshot().delta(&before);
        assert_eq!((d.copies, d.bytes_copied, d.pages_revoked), (1, 128, 0));
        assert_eq!(host_rx.consume().unwrap().as_deref(), Some(&frame[..]));

        host_tx.produce(&frame).unwrap();
        let before = mem.meter().snapshot();
        let mut got = Vec::new();
        assert!(dev.receive(&mut got));
        assert_eq!(got, frame);
        let d = mem.meter().snapshot().delta(&before);
        assert_eq!((d.copies, d.bytes_copied, d.pages_revoked), (1, 128, 0));
    }
}
