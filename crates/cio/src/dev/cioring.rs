//! The cio-ring as a (multi-queue) network device.

use crate::CioError;
use cio_mem::{CopyPolicy, GuestMemory, GuestView};
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_vring::cioring::{BatchPolicy, Consumer, Producer, RevokedPayload, MAX_BATCH};
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
