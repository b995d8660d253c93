//! The network-device abstraction the stack drives.
//!
//! The stack does not know what carries its frames: in the dual-boundary
//! design it is a cio-ring pair, in the baselines a virtqueue or a raw
//! queue, in unit tests an in-memory [`PairDevice`]. Anything that moves
//! whole Ethernet frames implements [`NetDevice`].

use crate::wire::MacAddr;
use crate::NetError;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A frame-granular network device.
pub trait NetDevice {
    /// Transmits one Ethernet frame.
    ///
    /// # Errors
    ///
    /// [`NetError::TooLarge`] over the device MTU (plus header);
    /// [`NetError::DeviceFull`] when the TX queue is full.
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Receives one frame into `frame`, replacing its contents; returns
    /// whether one was available. The buffer is the caller's: a device
    /// may swap it with one of its own instead of copying, so a receive
    /// loop that hands the same buffer back allocates nothing once the
    /// buffers in circulation have grown to the largest frame.
    fn receive(&mut self, frame: &mut Vec<u8>) -> bool;

    /// The device's fixed MAC address.
    fn mac(&self) -> MacAddr;

    /// The device's fixed MTU (IP payload bytes per frame).
    fn mtu(&self) -> usize;

    /// Number of receive queues the device exposes (1 for single-queue
    /// devices, which is the default).
    fn rx_queues(&self) -> usize {
        1
    }

    /// Restricts [`receive`](Self::receive) to one queue, or lifts the
    /// restriction with `None` (round-robin over all queues).
    ///
    /// Single-queue devices ignore this; it exists so a scheduler can
    /// drain a multi-queue device one queue at a time and attribute the
    /// work to that queue's virtual core.
    fn select_rx_queue(&mut self, _queue: Option<usize>) {}
}

impl NetDevice for Box<dyn NetDevice> {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        (**self).transmit(frame)
    }
    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        (**self).receive(frame)
    }
    fn mac(&self) -> MacAddr {
        (**self).mac()
    }
    fn mtu(&self) -> usize {
        (**self).mtu()
    }
    fn rx_queues(&self) -> usize {
        (**self).rx_queues()
    }
    fn select_rx_queue(&mut self, queue: Option<usize>) {
        (**self).select_rx_queue(queue)
    }
}

/// Frames in flight one way along a pair.
type Queue = VecDeque<Vec<u8>>;

#[derive(Debug, Default)]
struct PairInner {
    a_to_b: Queue,
    b_to_a: Queue,
    /// Buffers receivers handed back, reused by the next transmits.
    spare: Vec<Vec<u8>>,
}

/// One endpoint of an in-memory device pair (a virtual cable).
///
/// # Examples
///
/// ```
/// use cio_netstack::{PairDevice, NetDevice};
/// let (mut a, mut b) = PairDevice::pair([[1;6], [2;6]].map(cio_netstack::MacAddr), 1500);
/// a.transmit(&vec![0u8; 60]).unwrap();
/// let mut frame = Vec::new();
/// assert!(b.receive(&mut frame));
/// assert_eq!(frame.len(), 60);
/// assert!(!b.receive(&mut frame));
/// ```
#[derive(Clone)]
pub struct PairDevice {
    inner: Arc<Mutex<PairInner>>,
    is_a: bool,
    mac: MacAddr,
    mtu: usize,
    /// Frames the queue toward the peer holds before `transmit` reports
    /// [`NetError::DeviceFull`].
    pub(crate) capacity: usize,
}

impl PairDevice {
    /// Creates two connected endpoints with the given MACs and MTU.
    pub fn pair(macs: [MacAddr; 2], mtu: usize) -> (PairDevice, PairDevice) {
        let inner = Arc::new(Mutex::new(PairInner::default()));
        (
            PairDevice {
                inner: inner.clone(),
                is_a: true,
                mac: macs[0],
                mtu,
                capacity: 1024,
            },
            PairDevice {
                inner,
                is_a: false,
                mac: macs[1],
                mtu,
                capacity: 1024,
            },
        )
    }

    /// Runs `f` under the pair's lock on the queue toward B (`to_b`) or
    /// toward A, and on the spare buffers.
    fn with_queue<R>(&self, to_b: bool, f: impl FnOnce(&mut Queue, &mut Vec<Vec<u8>>) -> R) -> R {
        let mut guard = self.inner.lock().expect("pair lock");
        let g = &mut *guard;
        let q = if to_b { &mut g.a_to_b } else { &mut g.b_to_a };
        f(q, &mut g.spare)
    }

    /// Frames queued toward this endpoint (diagnostic).
    pub fn pending(&self) -> usize {
        self.with_queue(!self.is_a, |q, _| q.len())
    }
}

impl NetDevice for PairDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + crate::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        self.with_queue(self.is_a, |q, spare| {
            if q.len() >= self.capacity {
                return Err(NetError::DeviceFull);
            }
            let mut buf = spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(frame);
            q.push_back(buf);
            Ok(())
        })
    }

    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        self.with_queue(!self.is_a, |q, spare| {
            let Some(mut next) = q.pop_front() else {
                return false;
            };
            std::mem::swap(frame, &mut next);
            spare.push(next);
            true
        })
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs() -> [MacAddr; 2] {
        [MacAddr([1; 6]), MacAddr([2; 6])]
    }

    #[test]
    fn frames_flow_both_ways() {
        let (mut a, mut b) = PairDevice::pair(macs(), 1500);
        a.transmit(b"to b").unwrap();
        b.transmit(b"to a").unwrap();
        let mut frame = Vec::new();
        assert!(b.receive(&mut frame));
        assert_eq!(frame, b"to b");
        assert!(a.receive(&mut frame));
        assert_eq!(frame, b"to a");
        assert!(!a.receive(&mut frame));
    }

    #[test]
    fn mtu_enforced() {
        let (mut a, _b) = PairDevice::pair(macs(), 100);
        assert!(a.transmit(&[0u8; 100 + 14]).is_ok());
        assert_eq!(a.transmit(&[0u8; 100 + 15]), Err(NetError::TooLarge));
    }

    #[test]
    fn ordering_preserved() {
        let (mut a, mut b) = PairDevice::pair(macs(), 1500);
        for i in 0..10u8 {
            a.transmit(&[i]).unwrap();
        }
        let mut frame = Vec::new();
        for i in 0..10u8 {
            assert!(b.receive(&mut frame));
            assert_eq!(frame, [i]);
        }
    }

    #[test]
    fn queue_capacity_bounds() {
        let (mut a, _b) = PairDevice::pair(macs(), 1500);
        for _ in 0..1024 {
            a.transmit(b"x").unwrap();
        }
        assert_eq!(a.transmit(b"x"), Err(NetError::DeviceFull));
    }
}
