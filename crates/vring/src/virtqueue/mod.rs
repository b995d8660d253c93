//! A from-scratch virtio-1.x split virtqueue.
//!
//! This is the baseline transport of experiments E5/E8/E10: the protocol's
//! descriptor table, avail ring, and used ring live in shared guest memory,
//! and the driver keeps exactly the state the unhardened Linux drivers
//! historically kept there — including threading its *free list* through
//! the shared descriptor table's `next` fields and re-reading host-writable
//! config on the data path. The [`Driver`] here is deliberately
//! *unhardened*; [`crate::hardened`] builds the Linux-retrofit variant on
//! top of the same layout.
//!
//! # The corruption oracle
//!
//! Where C code would silently corrupt memory (out-of-range used id, forged
//! length, descriptor loop), a Rust simulation cannot. The driver instead
//! performs the *wrapped/clamped* access — the closest well-defined
//! analogue of the out-of-bounds read — and records the event on the
//! meter's `violations_undetected` counter. The counter is instrumentation
//! (an oracle for the attack harness), not part of the simulated driver's
//! logic; the driver itself never "notices".

use crate::RingError;
use cio_mem::{GuestAddr, GuestView, HostView, MemError, MemView};

mod device;
mod driver;

pub use device::{Chain, DeviceSide};
pub use driver::{Completion, Driver};

/// Descriptor flag: buffer continues in `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: device-writable buffer.
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: buffer holds an indirect descriptor table.
pub const DESC_F_INDIRECT: u16 = 4;

/// Feature bit: virtio 1.0 compliance.
pub const F_VERSION_1: u64 = 1 << 32;
/// Feature bit: indirect descriptors supported.
pub const F_RING_INDIRECT_DESC: u64 = 1 << 28;
/// Feature bit: event-index interrupt suppression (negotiable; this model
/// accepts the bit but always signals, like many simple devices).
pub const F_RING_EVENT_IDX: u64 = 1 << 29;
/// virtio-net feature: checksum offload.
pub const F_NET_CSUM: u64 = 1 << 0;
/// virtio-net feature: device-supplied MTU.
pub const F_NET_MTU: u64 = 1 << 3;
/// virtio-net feature: device-supplied MAC.
pub const F_NET_MAC: u64 = 1 << 5;

/// Device status: guest found the device.
pub const STATUS_ACKNOWLEDGE: u8 = 1;
/// Device status: guest has a driver.
pub const STATUS_DRIVER: u8 = 2;
/// Device status: driver is ready.
pub const STATUS_DRIVER_OK: u8 = 4;
/// Device status: feature negotiation complete.
pub const STATUS_FEATURES_OK: u8 = 8;
/// Device status: device hit a fatal error.
pub const STATUS_NEEDS_RESET: u8 = 64;
/// Device status: driver gave up.
pub const STATUS_FAILED: u8 = 128;

/// Size of one descriptor in bytes.
pub const DESC_SIZE: u64 = 16;

/// Memory layout of one split virtqueue.
///
/// ```text
/// base:                descriptor table, 16 * qsize bytes
/// base + 16*qsize:     avail  { flags u16, idx u16, ring[qsize] u16, used_event u16 }
/// align4(above):       used   { flags u16, idx u16, ring[qsize] {id u32, len u32}, avail_event u16 }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Base guest-physical address (must be in shared pages).
    pub base: GuestAddr,
    /// Queue size; must be a power of two per the virtio spec.
    pub qsize: u16,
}

impl Layout {
    /// Creates a layout, validating the queue size.
    ///
    /// # Errors
    ///
    /// [`RingError::Fatal`] if `qsize` is zero or not a power of two.
    pub fn new(base: GuestAddr, qsize: u16) -> Result<Layout, RingError> {
        if qsize == 0 || !qsize.is_power_of_two() {
            return Err(RingError::Fatal("queue size must be a power of two"));
        }
        Ok(Layout { base, qsize })
    }

    /// Address of descriptor `i`.
    pub fn desc(&self, i: u16) -> GuestAddr {
        self.base.add(u64::from(i) * DESC_SIZE)
    }

    fn avail_base(&self) -> GuestAddr {
        self.base.add(u64::from(self.qsize) * DESC_SIZE)
    }

    /// Address of `avail.flags`.
    pub fn avail_flags(&self) -> GuestAddr {
        self.avail_base()
    }

    /// Address of `avail.idx`.
    pub fn avail_idx(&self) -> GuestAddr {
        self.avail_base().add(2)
    }

    /// Address of `avail.ring[i]`.
    pub fn avail_ring(&self, i: u16) -> GuestAddr {
        self.avail_base().add(4 + 2 * u64::from(i))
    }

    fn used_base(&self) -> GuestAddr {
        let end = self.avail_base().0 + 4 + 2 * u64::from(self.qsize) + 2;
        GuestAddr((end + 3) & !3)
    }

    /// Address of `used.flags`.
    pub fn used_flags(&self) -> GuestAddr {
        self.used_base()
    }

    /// Address of `used.idx`.
    pub fn used_idx(&self) -> GuestAddr {
        self.used_base().add(2)
    }

    /// Address of `used.ring[i]` (8 bytes: id u32, len u32).
    pub fn used_ring(&self, i: u16) -> GuestAddr {
        self.used_base().add(4 + 8 * u64::from(i))
    }

    /// Total bytes occupied by the queue structures.
    pub fn total_size(&self) -> usize {
        (self.used_base().0 - self.base.0) as usize + 4 + 8 * self.qsize as usize + 2
    }
}

/// One entry of a descriptor chain as collected by either side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescSeg {
    /// Guest-physical buffer address.
    pub addr: GuestAddr,
    /// Buffer length.
    pub len: u32,
}

/// Host-writable device config space (one shared page by convention).
///
/// Offsets: `mac[6]` at 0, `status` u8 at 6 (guest-written), `mtu` u16 at
/// 8, `device_features` u64 at 16, `driver_features` u64 at 24 (guest-
/// written). The *host* owns mac/mtu/device_features — which is precisely
/// why re-reading them on the data path is a double-fetch hazard.
#[derive(Debug, Clone, Copy)]
pub struct ConfigSpace {
    /// Base address of the config page (shared).
    pub base: GuestAddr,
}

impl ConfigSpace {
    /// Offset of the MAC address.
    pub const MAC: u64 = 0;
    /// Offset of the status byte.
    pub const STATUS: u64 = 6;
    /// Offset of the MTU field.
    pub const MTU: u64 = 8;
    /// Offset of the device-features word.
    pub const DEVICE_FEATURES: u64 = 16;
    /// Offset of the driver-features word.
    pub const DRIVER_FEATURES: u64 = 24;
    /// Bytes used by the config block.
    pub const SIZE: usize = 32;

    /// Host-side initialisation of the device-owned fields.
    pub fn device_init(
        &self,
        host: &HostView,
        mac: [u8; 6],
        mtu: u16,
        features: u64,
    ) -> Result<(), MemError> {
        host.write(self.base.add(Self::MAC), &mac)?;
        host.write_u16(self.base.add(Self::MTU), mtu)?;
        host.write_u64(self.base.add(Self::DEVICE_FEATURES), features)?;
        Ok(())
    }

    /// Reads the device MTU (guest side). Every call is a fresh fetch of
    /// host-controlled memory — callers decide whether to cache.
    pub fn read_mtu(&self, guest: &GuestView) -> Result<u16, MemError> {
        guest.read_u16(self.base.add(Self::MTU))
    }

    /// Reads the device MAC (guest side).
    pub fn read_mac(&self, guest: &GuestView) -> Result<[u8; 6], MemError> {
        let mut mac = [0u8; 6];
        guest.read(self.base.add(Self::MAC), &mut mac)?;
        Ok(mac)
    }

    /// Reads the offered feature word (guest side).
    pub fn read_device_features(&self, guest: &GuestView) -> Result<u64, MemError> {
        guest.read_u64(self.base.add(Self::DEVICE_FEATURES))
    }

    /// Reads the status byte (either side; it lives in shared memory).
    pub fn read_status(&self, guest: &GuestView) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        guest.read(self.base.add(Self::STATUS), &mut b)?;
        Ok(b[0])
    }

    /// Guest-side status write.
    pub fn write_status(&self, guest: &GuestView, status: u8) -> Result<(), MemError> {
        guest.write(self.base.add(Self::STATUS), &[status])
    }

    /// Host-side status write (e.g. clearing FEATURES_OK to reject).
    pub fn host_write_status(&self, host: &HostView, status: u8) -> Result<(), MemError> {
        host.write(self.base.add(Self::STATUS), &[status])
    }

    /// Guest-side accepted-features write.
    pub fn write_driver_features(&self, guest: &GuestView, f: u64) -> Result<(), MemError> {
        guest.write_u64(self.base.add(Self::DRIVER_FEATURES), f)
    }
}

/// Runs the driver side of the stateful virtio negotiation protocol.
///
/// This is the control-plane complexity §2.5 calls out: five ordered
/// status transitions, two feature fetches, and a host veto point — all of
/// it stateful shared memory. Returns the accepted feature set.
///
/// # Errors
///
/// [`RingError::BadState`] if the host rejects the feature subset.
pub fn driver_negotiate(
    cfg: &ConfigSpace,
    guest: &GuestView,
    wanted: u64,
) -> Result<u64, RingError> {
    cfg.write_status(guest, STATUS_ACKNOWLEDGE)?;
    cfg.write_status(guest, STATUS_ACKNOWLEDGE | STATUS_DRIVER)?;
    let offered = cfg.read_device_features(guest)?;
    let accepted = offered & wanted;
    cfg.write_driver_features(guest, accepted)?;
    cfg.write_status(
        guest,
        STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK,
    )?;
    // Re-read: the device may have cleared FEATURES_OK to veto.
    let status = cfg.read_status(guest)?;
    if status & STATUS_FEATURES_OK == 0 {
        cfg.write_status(guest, status | STATUS_FAILED)?;
        return Err(RingError::BadState);
    }
    cfg.write_status(guest, status | STATUS_DRIVER_OK)?;
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;
    use cio_mem::{GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};

    fn setup(qsize: u16) -> (GuestMemory, Driver, DeviceSide) {
        let meter = Meter::new();
        let mem = GuestMemory::new(32, Clock::new(), CostModel::default(), meter.clone());
        // Share the first 8 pages: queue structures + buffer arena.
        mem.share_range(GuestAddr(0), 8 * PAGE_SIZE).unwrap();
        let layout = Layout::new(GuestAddr(0), qsize).unwrap();
        assert!(layout.total_size() < 4 * PAGE_SIZE);
        let driver = Driver::new(mem.guest(), layout, meter).unwrap();
        let device = DeviceSide::new(mem.host(), layout);
        (mem, driver, device)
    }

    /// Buffer arena: pages 4..8 of the shared range.
    fn buf(i: u64) -> GuestAddr {
        GuestAddr(4 * PAGE_SIZE as u64 + i * 256)
    }

    #[test]
    fn layout_rejects_bad_qsize() {
        assert!(Layout::new(GuestAddr(0), 0).is_err());
        assert!(Layout::new(GuestAddr(0), 3).is_err());
        assert!(Layout::new(GuestAddr(0), 8).is_ok());
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = Layout::new(GuestAddr(0), 16).unwrap();
        let desc_end = l.desc(15).0 + DESC_SIZE;
        assert!(l.avail_flags().0 >= desc_end);
        let avail_end = l.avail_ring(15).0 + 2 + 2;
        assert!(l.used_flags().0 >= avail_end);
        assert_eq!(l.used_flags().0 % 4, 0);
    }

    #[test]
    fn tx_roundtrip() {
        let (mem, mut driver, mut device) = setup(8);
        mem.guest().write(buf(0), b"hello device").unwrap();
        let head = driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 12,
                }],
                &[],
                0xAA,
            )
            .unwrap();
        let chain = device.pop().unwrap().expect("chain available");
        assert_eq!(chain.head, head);
        assert_eq!(device.read_payload(&chain).unwrap(), b"hello device");
        device.complete(chain.head, 0).unwrap();
        let done = driver.poll_used().unwrap().expect("completion");
        assert_eq!(done.token, 0xAA);
        assert_eq!(driver.num_free(), 8);
    }

    #[test]
    fn rx_roundtrip_multi_segment() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[],
                &[
                    DescSeg {
                        addr: buf(1),
                        len: 8,
                    },
                    DescSeg {
                        addr: buf(2),
                        len: 8,
                    },
                ],
                7,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.writable.len(), 2);
        let n = device.write_payload(&chain, b"0123456789AB").unwrap();
        assert_eq!(n, 12);
        device.complete(chain.head, n).unwrap();
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.len, 12);
        let mut a = [0u8; 8];
        let mut b = [0u8; 4];
        mem.guest().read(buf(1), &mut a).unwrap();
        mem.guest().read(buf(2), &mut b).unwrap();
        assert_eq!(&a, b"01234567");
        assert_eq!(&b, b"89AB");
    }

    #[test]
    fn queue_fills_and_recycles() {
        let (_mem, mut driver, mut device) = setup(4);
        for i in 0..4 {
            driver
                .add_buf(
                    &[DescSeg {
                        addr: buf(i),
                        len: 16,
                    }],
                    &[],
                    i,
                )
                .unwrap();
        }
        assert_eq!(driver.num_free(), 0);
        assert!(matches!(
            driver.add_buf(
                &[DescSeg {
                    addr: buf(9),
                    len: 4
                }],
                &[],
                9
            ),
            Err(RingError::Full)
        ));
        // Drain and refill.
        for _ in 0..4 {
            let c = device.pop().unwrap().unwrap();
            device.complete(c.head, 0).unwrap();
        }
        for _ in 0..4 {
            driver.poll_used().unwrap().unwrap();
        }
        assert_eq!(driver.num_free(), 4);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                1,
            )
            .unwrap();
    }

    #[test]
    fn empty_chain_rejected() {
        let (_mem, mut driver, _device) = setup(4);
        assert!(matches!(
            driver.add_buf(&[], &[], 0),
            Err(RingError::TooLarge)
        ));
    }

    #[test]
    fn poll_on_empty_returns_none() {
        let (_mem, mut driver, _device) = setup(4);
        assert_eq!(driver.poll_used().unwrap(), None);
    }

    #[test]
    fn oob_used_id_flagged_by_oracle() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                1,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Malicious host: complete with id = 1000 (>= qsize).
        device.complete(1000, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        let after = mem.meter().snapshot().violations_undetected;
        assert!(after > before, "oracle must flag the wrapped access");
        // The driver got *something* back — the wrong something.
        let _ = (chain, done);
    }

    #[test]
    fn overlong_completion_len_flagged() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[],
                &[DescSeg {
                    addr: buf(0),
                    len: 64,
                }],
                2,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Host claims it wrote 100000 bytes into a 64-byte buffer.
        device.complete(chain.head, 100_000).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.len, 100_000, "unhardened driver trusts the length");
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn spurious_completion_flagged() {
        let (mem, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &[DescSeg {
                    addr: buf(0),
                    len: 4,
                }],
                &[],
                3,
            )
            .unwrap();
        let c = device.pop().unwrap().unwrap();
        device.complete(c.head, 0).unwrap();
        driver.poll_used().unwrap().unwrap();
        // Replay the same completion: chain no longer in flight.
        device.complete(c.head, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        let done = driver.poll_used().unwrap().unwrap();
        assert_eq!(done.token, 0);
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn corrupted_next_pointer_misleads_free_walk() {
        let (mem, mut driver, mut device) = setup(8);
        // Two-segment chain occupies descriptors 0 and 1.
        driver
            .add_buf(
                &[
                    DescSeg {
                        addr: buf(0),
                        len: 4,
                    },
                    DescSeg {
                        addr: buf(1),
                        len: 4,
                    },
                ],
                &[],
                4,
            )
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        // Host corrupts descriptor 0's next field to point out of range.
        let l = *driver.layout();
        mem.host().write_u16(l.desc(0).add(14), 999).unwrap();
        device.complete(chain.head, 0).unwrap();
        let before = mem.meter().snapshot().violations_undetected;
        driver.poll_used().unwrap().unwrap();
        assert!(mem.meter().snapshot().violations_undetected > before);
    }

    #[test]
    fn negotiation_happy_path() {
        let (mem, _driver, _device) = setup(4);
        let cfg = ConfigSpace {
            base: GuestAddr(6 * PAGE_SIZE as u64),
        };
        let offered = F_VERSION_1 | F_NET_MAC | F_NET_MTU | F_RING_INDIRECT_DESC;
        cfg.device_init(&mem.host(), [2, 0, 0, 0, 0, 1], 1500, offered)
            .unwrap();
        let accepted =
            driver_negotiate(&cfg, &mem.guest(), F_VERSION_1 | F_NET_MAC | F_NET_CSUM).unwrap();
        assert_eq!(accepted, F_VERSION_1 | F_NET_MAC);
        let status = cfg.read_status(&mem.guest()).unwrap();
        assert!(status & STATUS_DRIVER_OK != 0);
        assert_eq!(cfg.read_mtu(&mem.guest()).unwrap(), 1500);
        assert_eq!(cfg.read_mac(&mem.guest()).unwrap(), [2, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn negotiation_host_veto() {
        let (mem, _driver, _device) = setup(4);
        let cfg = ConfigSpace {
            base: GuestAddr(6 * PAGE_SIZE as u64),
        };
        cfg.device_init(&mem.host(), [0; 6], 1500, F_VERSION_1)
            .unwrap();
        // A device that rejects the accepted feature set clears FEATURES_OK
        // before the driver's re-read. The sequential simulation cannot
        // interleave inside `driver_negotiate`, so script the same step
        // sequence here with the veto inserted at the protocol-defined
        // point.
        let guest = mem.guest();
        cfg.write_status(&guest, STATUS_ACKNOWLEDGE).unwrap();
        cfg.write_status(&guest, STATUS_ACKNOWLEDGE | STATUS_DRIVER)
            .unwrap();
        let offered = cfg.read_device_features(&guest).unwrap();
        cfg.write_driver_features(&guest, offered).unwrap();
        cfg.write_status(
            &guest,
            STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK,
        )
        .unwrap();
        // Device veto:
        cfg.host_write_status(&mem.host(), STATUS_ACKNOWLEDGE | STATUS_DRIVER)
            .unwrap();
        let status = cfg.read_status(&guest).unwrap();
        assert_eq!(status & STATUS_FEATURES_OK, 0, "veto visible to driver");
    }

    #[test]
    fn device_side_detects_guest_chain_loop() {
        let (mem, mut driver, mut device) = setup(4);
        driver
            .add_buf(
                &[
                    DescSeg {
                        addr: buf(0),
                        len: 4,
                    },
                    DescSeg {
                        addr: buf(1),
                        len: 4,
                    },
                ],
                &[],
                0,
            )
            .unwrap();
        // Corrupt the chain into a loop (0 -> 0).
        let l = *driver.layout();
        mem.guest().write_u16(l.desc(0).add(14), 0).unwrap();
        let r = device.pop();
        assert!(matches!(
            r,
            Err(RingError::HostViolation(Violation::ChainLoop))
        ));
    }

    #[test]
    fn indirect_chain_collected() {
        let (mem, mut driver, mut device) = setup(8);
        // Build an indirect table at buf(8): two readable segments.
        let itable = buf(8);
        let g = mem.guest();
        // Entry 0: buf(0), len 4, NEXT, next=1.
        g.write_u64(itable, buf(0).0).unwrap();
        g.write_u32(itable.add(8), 4).unwrap();
        g.write_u16(itable.add(12), DESC_F_NEXT).unwrap();
        g.write_u16(itable.add(14), 1).unwrap();
        // Entry 1: buf(1), len 4, end.
        g.write_u64(itable.add(16), buf(1).0).unwrap();
        g.write_u32(itable.add(24), 4).unwrap();
        g.write_u16(itable.add(28), 0).unwrap();
        g.write_u16(itable.add(30), 0).unwrap();
        g.write(buf(0), b"abcd").unwrap();
        g.write(buf(1), b"efgh").unwrap();

        // Publish a single descriptor with INDIRECT pointing at the table.
        let head = driver
            .add_buf(
                &[DescSeg {
                    addr: itable,
                    len: 32,
                }],
                &[],
                0,
            )
            .unwrap();
        // Patch the flags to INDIRECT (add_buf writes a plain readable).
        let l = *driver.layout();
        g.write_u16(l.desc(head).add(12), DESC_F_INDIRECT).unwrap();

        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.readable.len(), 2);
        assert_eq!(device.read_payload(&chain).unwrap(), b"abcdefgh");
    }
}
