//! The unhardened virtio-net device over two split virtqueues.

use crate::CioError;
use cio_mem::{GuestAddr, GuestMemory};
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_vring::virtqueue::{ConfigSpace, DescSeg, Driver};

/// Buffer geometry of one [`VirtqueueNetDevice`] arena.
#[derive(Debug, Clone, Copy)]
pub struct VqArena {
    /// Base of the buffer arena (shared pages for the traditional-VM
    /// model).
    pub base: GuestAddr,
    /// Per-buffer stride (>= MTU + Ethernet header).
    pub stride: u32,
    /// Buffers in the arena (>= queue size).
    pub count: u16,
}

impl VqArena {
    fn slot(&self, i: u16) -> GuestAddr {
        self.base.add(u64::from(i) * u64::from(self.stride))
    }
}

/// The unhardened virtio device (traditional lift-and-shift / DPDK-style):
/// shared buffer arena, zero-copy placement, zero validation.
pub struct VirtqueueNetDevice {
    tx: Driver,
    rx: Driver,
    tx_arena: VqArena,
    rx_arena: VqArena,
    tx_free: Vec<u16>,
    mem: GuestMemory,
    mac: MacAddr,
    /// The MTU read at initialisation.
    initial_mtu: u16,
    /// Host-writable config space, re-read on the data path (the
    /// historical double-fetch pattern the hardening commits removed).
    cfg: ConfigSpace,
}

impl VirtqueueNetDevice {
    /// Builds the device: posts every RX buffer up front.
    ///
    /// # Errors
    ///
    /// Transport errors during setup.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tx: Driver,
        mut rx: Driver,
        tx_arena: VqArena,
        rx_arena: VqArena,
        mem: GuestMemory,
        mac: MacAddr,
        cfg: ConfigSpace,
    ) -> Result<Self, CioError> {
        let initial_mtu = cfg.read_mtu(&mem.guest())?;
        for i in 0..rx_arena.count.min(rx.layout().qsize) {
            rx.add_buf(
                &[],
                &[DescSeg {
                    addr: rx_arena.slot(i),
                    len: rx_arena.stride,
                }],
                u64::from(i),
            )?;
        }
        let tx_free = (0..tx_arena.count.min(tx.layout().qsize)).collect();
        Ok(VirtqueueNetDevice {
            tx,
            rx,
            tx_arena,
            rx_arena,
            tx_free,
            mem,
            mac,
            initial_mtu,
            cfg,
        })
    }

    fn reclaim_tx(&mut self) {
        while let Ok(Some(done)) = self.tx.poll_used() {
            self.tx_free.push(done.token as u16);
        }
    }
}

impl NetDevice for VirtqueueNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        // Double fetch: the unhardened driver re-reads the host-owned MTU
        // on every transmit and trusts whatever it finds *now*.
        let mtu_now = self
            .cfg
            .read_mtu(&self.mem.guest())
            .unwrap_or(self.initial_mtu);
        if mtu_now != self.initial_mtu {
            // Oracle: the driver is acting on host-mutated configuration.
            self.mem.meter().violations_undetected(1);
        }
        if frame.len() > usize::from(mtu_now) + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        if frame.len() > self.tx_arena.stride as usize {
            // An inflated MTU lets frames overrun the per-slot buffer —
            // real cross-buffer corruption in the shared arena.
            self.mem.meter().violations_undetected(1);
            return Err(NetError::TooLarge);
        }
        self.reclaim_tx();
        let Some(slot) = self.tx_free.pop() else {
            return Err(NetError::DeviceFull);
        };
        let addr = self.tx_arena.slot(slot);
        // Zero-copy placement into the shared arena; the meter records the
        // bytes as unprotected zero-copy traffic.
        if self.mem.guest().write(addr, frame).is_err() {
            self.tx_free.push(slot);
            return Err(NetError::DeviceFull);
        }
        self.mem.meter().bytes_zero_copy(frame.len() as u64);
        if self
            .tx
            .add_buf(
                &[DescSeg {
                    addr,
                    len: frame.len() as u32,
                }],
                &[],
                u64::from(slot),
            )
            .is_err()
        {
            self.tx_free.push(slot);
            return Err(NetError::DeviceFull);
        }
        Ok(())
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let done = self.rx.poll_used().ok().flatten()?;
        let slot = (done.token as u16) % self.rx_arena.count;
        // Unhardened: the length is trusted as-is (the oracle flags abuse);
        // clamp only to keep the simulation itself well-defined.
        let len = (done.len).min(self.rx_arena.stride) as usize;
        let mut buf = vec![0u8; len];
        let addr = self.rx_arena.slot(slot);
        self.mem.guest().read(addr, &mut buf).ok()?;
        // Repost the buffer.
        let _ = self.rx.add_buf(
            &[],
            &[DescSeg {
                addr,
                len: self.rx_arena.stride,
            }],
            done.token,
        );
        Some(buf)
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        usize::from(self.initial_mtu)
    }
}
