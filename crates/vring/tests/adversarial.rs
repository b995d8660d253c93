//! Adversarial property tests: the transports under arbitrary host
//! corruption.
//!
//! The safety claims are universally quantified ("no host value can steer
//! an access out of bounds"), so they are tested that way: a deterministic
//! `cio_sim::SimRng` drives the host's writes across many seeded cases, so
//! the suite runs fully offline and every failure reproduces.

use cio_mem::{GuestAddr, GuestMemory, MemView, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Meter, SimRng};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use cio_vring::hardened::HardenedDriver;
use cio_vring::virtqueue::{
    ConfigSpace, DescSeg, DeviceSide, Driver, Layout, F_NET_MAC, F_NET_MTU, F_VERSION_1,
};
use cio_vring::RingError;

fn vq_world() -> (GuestMemory, Driver, DeviceSide, Layout) {
    let meter = Meter::new();
    let mem = GuestMemory::new(64, Clock::new(), CostModel::default(), meter.clone());
    mem.share_range(GuestAddr(0), 16 * PAGE_SIZE).unwrap();
    let layout = Layout::new(GuestAddr(0), 16).unwrap();
    let driver = Driver::new(mem.guest(), layout, meter).unwrap();
    let device = DeviceSide::new(mem.host(), layout);
    (mem, driver, device, layout)
}

/// The *device side* defends itself: arbitrary guest-written queue
/// bytes never panic it, and collected chains are bounded.
#[test]
fn device_side_total_under_queue_corruption() {
    let mut rng = SimRng::seed_from(0xde51de);
    for _case in 0..64 {
        let (mem, mut driver, mut device, layout) = vq_world();
        driver
            .add_buf(
                &[DescSeg {
                    addr: GuestAddr(8 * PAGE_SIZE as u64),
                    len: 64,
                }],
                &[],
                1,
            )
            .unwrap();
        let writes = rng.range(1, 64);
        for _ in 0..writes {
            let off = rng.next_below(16_000);
            let val = rng.next_u64() as u8;
            let _ = mem.guest().write(GuestAddr(off), &[val]);
        }
        let avail_idx = rng.next_u64() as u16;
        mem.guest()
            .write_u16(layout.avail_idx(), avail_idx)
            .unwrap();
        // Pop everything claimed available; each pop must terminate.
        for _ in 0..64 {
            match device.pop() {
                Ok(Some(chain)) => {
                    assert!(chain.readable.len() + chain.writable.len() <= 16);
                }
                Ok(None) => break,
                Err(RingError::HostViolation(_)) => break,
                Err(RingError::Mem(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }
}

/// The *unhardened driver* never returns an error on hostile used-ring
/// bytes (that is the point: it cannot tell), and the oracle flags
/// every phantom batch.
#[test]
fn unhardened_driver_swallows_and_oracle_flags() {
    let mut rng = SimRng::seed_from(0x0a7ac1e);
    for _case in 0..64 {
        let (mem, mut driver, _device, layout) = vq_world();
        driver
            .add_buf(
                &[DescSeg {
                    addr: GuestAddr(8 * PAGE_SIZE as u64),
                    len: 64,
                }],
                &[],
                7,
            )
            .unwrap();
        let id = rng.next_u64() as u32;
        let len = rng.next_u64() as u32;
        let idx_jump = rng.range(1, 200) as u16;
        // Host forges one used entry and jumps the index.
        let entry = layout.used_ring(0);
        mem.host().write_u32(entry, id).unwrap();
        mem.host().write_u32(entry.add(4), len).unwrap();
        mem.host().write_u16(layout.used_idx(), idx_jump).unwrap();
        for _ in 0..(idx_jump as usize).min(64) {
            let r = driver.poll_used();
            assert!(r.is_ok(), "unhardened driver must not error: {r:?}");
        }
        if idx_jump > 1 || id >= 16 {
            assert!(
                mem.meter().snapshot().violations_undetected > 0,
                "oracle must flag id={id} jump={idx_jump}"
            );
        }
    }
}

/// The *hardened driver* never delivers a completion for a forged id:
/// every hostile (id, len) is either a detected violation or a valid
/// completion of something actually in flight.
#[test]
fn hardened_driver_never_accepts_forgeries() {
    let mut rng = SimRng::seed_from(0x4a4de4);
    for _case in 0..64 {
        let id = rng.next_u64() as u32;
        let len = 1 + rng.next_below((1 << 20) - 1) as u32;
        let meter = Meter::new();
        let mem = GuestMemory::new(128, Clock::new(), CostModel::default(), meter.clone());
        mem.share_range(GuestAddr(0), 8 * PAGE_SIZE).unwrap();
        let layout = Layout::new(GuestAddr(0), 16).unwrap();
        let cfg = ConfigSpace {
            base: GuestAddr(4 * PAGE_SIZE as u64),
        };
        cfg.device_init(
            &mem.host(),
            [2; 6],
            1500,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
        )
        .unwrap();
        let mut drv = HardenedDriver::new(
            &mem,
            layout,
            cfg,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
            GuestAddr(16 * PAGE_SIZE as u64),
            16,
            meter.clone(),
        )
        .unwrap();
        drv.post_recv(1).unwrap();
        let mut device = DeviceSide::new(mem.host(), layout);
        device.complete((id % 65_536) as u16, len).unwrap();
        match drv.poll() {
            Ok(Some((done, data))) => {
                // Only the genuinely posted chain may complete, with a
                // length the posted buffer can hold.
                assert_eq!(done.token, 1);
                assert!(data.is_some());
                assert!(done.len <= PAGE_SIZE as u32);
            }
            Ok(None) => {}
            Err(RingError::HostViolation(_)) => {
                assert!(meter.snapshot().violations_detected > 0);
            }
            Err(e) => panic!("unexpected {e}"),
        }
        assert_eq!(meter.snapshot().violations_undetected, 0);
    }
}

/// cio-ring producers stay correct when the host lies about consumer
/// progress in every possible way.
#[test]
fn producer_correct_under_consumer_index_lies() {
    let mut rng = SimRng::seed_from(0x11e5);
    for case in 0..64 {
        // Cover the boundary lies exactly, then random ones.
        let lie = match case {
            0 => 0,
            1 => 1,
            2 => 7,
            3 => 8,
            4 => u32::MAX,
            5 => u32::MAX - 7,
            _ => rng.next_u64() as u32,
        };
        let mem = GuestMemory::new(64, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 8,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 512,
            area_size: 8 * 512,
            ..RingConfig::default()
        };
        let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(8 * PAGE_SIZE as u64)).unwrap();
        mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
        mem.share_range(GuestAddr(8 * PAGE_SIZE as u64), ring.area_bytes())
            .unwrap();
        let mut p = Producer::new(ring.clone(), mem.guest()).unwrap();
        let mut c = Consumer::new(ring.clone(), mem.host()).unwrap();
        p.produce(b"one").unwrap();
        mem.host().write_u32(ring.cons_idx_addr(), lie).unwrap();
        // The producer either produces or reports Full — never corrupts.
        match p.produce(b"two") {
            Ok(()) | Err(RingError::Full) => {}
            Err(e) => panic!("unexpected {e}"),
        }
        // Restore honesty: the ring still works.
        mem.host().write_u32(ring.cons_idx_addr(), 0).unwrap();
        let first = c.consume().unwrap().unwrap();
        assert_eq!(first, b"one".to_vec());
    }
}
