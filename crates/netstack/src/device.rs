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

    /// Receives one frame, if available.
    fn receive(&mut self) -> Option<Vec<u8>>;

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
    fn receive(&mut self) -> Option<Vec<u8>> {
        (**self).receive()
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

#[derive(Debug, Default)]
struct PairInner {
    a_to_b: VecDeque<Vec<u8>>,
    b_to_a: VecDeque<Vec<u8>>,
}

/// One endpoint of an in-memory device pair (a virtual cable).
///
/// # Examples
///
/// ```
/// use cio_netstack::{PairDevice, NetDevice};
/// let (mut a, mut b) = PairDevice::pair([[1;6], [2;6]].map(cio_netstack::MacAddr), 1500);
/// a.transmit(&vec![0u8; 60]).unwrap();
/// assert_eq!(b.receive().unwrap().len(), 60);
/// assert!(b.receive().is_none());
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

    /// Frames queued toward this endpoint (diagnostic).
    pub fn pending(&self) -> usize {
        let g = self.inner.lock().expect("pair lock");
        if self.is_a {
            g.b_to_a.len()
        } else {
            g.a_to_b.len()
        }
    }
}

impl NetDevice for PairDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + crate::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        let mut g = self.inner.lock().expect("pair lock");
        let q = if self.is_a {
            &mut g.a_to_b
        } else {
            &mut g.b_to_a
        };
        if q.len() >= self.capacity {
            return Err(NetError::DeviceFull);
        }
        q.push_back(frame.to_vec());
        Ok(())
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let mut g = self.inner.lock().expect("pair lock");
        let q = if self.is_a {
            &mut g.b_to_a
        } else {
            &mut g.a_to_b
        };
        q.pop_front()
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
        assert_eq!(b.receive().unwrap(), b"to b");
        assert_eq!(a.receive().unwrap(), b"to a");
        assert!(a.receive().is_none());
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
        for i in 0..10u8 {
            assert_eq!(b.receive().unwrap(), [i]);
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
