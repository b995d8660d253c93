//! The hardened (Linux-retrofit) virtio-net device.

use crate::CioError;
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_vring::hardened::HardenedDriver;

/// The hardened virtio device: validated completions + SWIOTLB bouncing.
pub struct HardenedVirtioNetDevice {
    tx: HardenedDriver,
    rx: HardenedDriver,
    mtu: usize,
    tokens: u64,
}

impl HardenedVirtioNetDevice {
    /// Builds the device and posts `rx_buffers` receive slots.
    ///
    /// # Errors
    ///
    /// Transport errors during setup.
    pub fn new(
        tx: HardenedDriver,
        mut rx: HardenedDriver,
        rx_buffers: u32,
    ) -> Result<Self, CioError> {
        let mut tokens = 0;
        for t in 0..u64::from(rx_buffers) {
            match rx.post_recv(t) {
                Ok(()) => tokens += 1,
                Err(cio_vring::RingError::Full) => break,
                Err(e) => return Err(e.into()),
            }
        }
        let mtu = usize::from(tx.mtu());
        Ok(HardenedVirtioNetDevice {
            tx,
            rx,
            mtu,
            tokens,
        })
    }

    fn reclaim_tx(&mut self) {
        // Hardened polling: violations surface as errors and are counted
        // by the meter; the device drops the poisoned completion.
        loop {
            match self.tx.poll() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => continue,
            }
        }
    }
}

impl NetDevice for HardenedVirtioNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.reclaim_tx();
        self.tokens += 1;
        match self.tx.send(frame, self.tokens) {
            Ok(()) => Ok(()),
            Err(cio_vring::RingError::TooLarge) => Err(NetError::TooLarge),
            Err(_) => Err(NetError::DeviceFull),
        }
    }

    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        loop {
            match self.rx.poll() {
                Ok(Some((_done, Some(data)))) => {
                    // Repost a fresh buffer to keep the queue primed.
                    self.tokens += 1;
                    let _ = self.rx.post_recv(self.tokens);
                    *frame = data;
                    return true;
                }
                Ok(Some((_done, None))) => continue,
                Ok(None) => return false,
                Err(_) => {
                    // Detected violation: drop it and repost.
                    self.tokens += 1;
                    let _ = self.rx.post_recv(self.tokens);
                    continue;
                }
            }
        }
    }

    fn mac(&self) -> MacAddr {
        MacAddr(self.tx.mac())
    }

    fn mtu(&self) -> usize {
        // The negotiated MTU is already the IP-payload limit.
        self.mtu
    }
}
