//! Transport-level harness: drives the raw transports (no TCP, no TLS) so
//! E5–E8 measure pure interface costs.

use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Cycles, Meter, MeterSnapshot};
use cio_vring::cioring::{CioRing, Consumer, DataMode, NotifyMode, Producer, RingConfig};
use cio_vring::hardened::HardenedDriver;
use cio_vring::virtqueue::{
    driver_negotiate, ConfigSpace, DescSeg, DeviceSide, Driver, Layout, F_NET_MAC, F_NET_MTU,
    F_VERSION_1,
};

/// Transport variants compared by E5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Raw split virtqueue, shared arenas, no validation.
    VirtioUnhardened,
    /// Linux-retrofit: validation + SWIOTLB bouncing.
    VirtioHardened,
    /// The paper's ring with copy-as-first-class.
    CioRingCopy,
    /// The paper's ring with zero-copy TX placement.
    CioRingZeroCopy,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TransportKind::VirtioUnhardened => "virtio-unhardened",
            TransportKind::VirtioHardened => "virtio-hardened",
            TransportKind::CioRingCopy => "cio-ring (copy)",
            TransportKind::CioRingZeroCopy => "cio-ring (zero-copy)",
        };
        f.write_str(s)
    }
}

/// Result of one transport run.
#[derive(Debug, Clone)]
pub struct TransportResult {
    /// Cycles consumed for the whole run.
    pub elapsed: Cycles,
    /// Meter delta.
    pub meter: MeterSnapshot,
    /// Payload bytes moved one way.
    pub bytes: u64,
}

impl TransportResult {
    /// Gbit/s one-way at `ghz`.
    pub fn gbps(&self, ghz: f64) -> f64 {
        cio_sim::gbps(self.bytes, self.elapsed, ghz)
    }

    /// Cycles per frame for `frames` frames.
    pub fn cycles_per_frame(&self, frames: u64) -> u64 {
        self.elapsed.get() / frames.max(1)
    }
}

/// Echo-roundtrips `frames` frames of `size` bytes through the transport:
/// guest TX -> host -> host RX injection -> guest delivery.
///
/// # Panics
///
/// On transport setup failures (bench-internal invariants).
pub fn frame_echo(
    kind: TransportKind,
    size: usize,
    frames: u32,
    cost: CostModel,
) -> TransportResult {
    match kind {
        TransportKind::VirtioUnhardened => virtio_echo(false, size, frames, cost),
        TransportKind::VirtioHardened => virtio_echo(true, size, frames, cost),
        TransportKind::CioRingCopy => cio_echo(false, size, frames, cost),
        TransportKind::CioRingZeroCopy => cio_echo(true, size, frames, cost),
    }
}

fn virtio_echo(hardened: bool, size: usize, frames: u32, cost: CostModel) -> TransportResult {
    let clock = Clock::new();
    let meter = Meter::new();
    let mem = GuestMemory::new(1024, clock.clone(), cost, meter.clone());
    let qsize: u16 = 64;
    let stride: u32 = 2048;
    assert!(size <= stride as usize);

    // Layout: queues at pages 0..4, config at 4, arenas/bounce after.
    mem.share_range(GuestAddr(0), 5 * PAGE_SIZE).unwrap();
    let tx_layout = Layout::new(GuestAddr(0), qsize).unwrap();
    let rx_layout = Layout::new(GuestAddr(2 * PAGE_SIZE as u64), qsize).unwrap();
    let cfg = ConfigSpace {
        base: GuestAddr(4 * PAGE_SIZE as u64),
    };
    cfg.device_init(
        &mem.host(),
        [2; 6],
        2000,
        F_VERSION_1 | F_NET_MAC | F_NET_MTU,
    )
    .unwrap();

    let mut tx_dev = DeviceSide::new(mem.host(), tx_layout);
    let mut rx_dev = DeviceSide::new(mem.host(), rx_layout);

    let run = |elapsed_from: Cycles, meter0: MeterSnapshot, clock: &Clock, meter: &Meter| {
        TransportResult {
            elapsed: clock.since(elapsed_from),
            meter: meter.snapshot().delta(&meter0),
            bytes: u64::from(frames) * size as u64,
        }
    };

    let payload = vec![0xABu8; size];
    if hardened {
        let bounce_pages = usize::from(qsize);
        let tx_b = GuestAddr(16 * PAGE_SIZE as u64);
        let rx_b = GuestAddr((16 + bounce_pages as u64) * PAGE_SIZE as u64);
        let mut tx = HardenedDriver::new(
            &mem,
            tx_layout,
            cfg,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
            tx_b,
            bounce_pages,
            meter.clone(),
        )
        .unwrap();
        let mut rx = HardenedDriver::new(
            &mem,
            rx_layout,
            cfg,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
            rx_b,
            bounce_pages,
            meter.clone(),
        )
        .unwrap();
        for t in 0..u64::from(qsize) - 1 {
            rx.post_recv(t).unwrap();
        }
        let t0 = clock.now();
        let m0 = meter.snapshot();
        for i in 0..frames {
            tx.send(&payload, u64::from(i)).unwrap();
            tx.kick();
            let chain = tx_dev.pop().unwrap().expect("tx chain");
            let f = tx_dev.read_payload(&chain).unwrap();
            tx_dev.complete(chain.head, 0).unwrap();
            tx.poll().unwrap();
            // Host echoes into a posted rx chain.
            let rchain = rx_dev.pop().unwrap().expect("rx chain");
            let n = rx_dev.write_payload(&rchain, &f).unwrap();
            rx_dev.complete(rchain.head, n).unwrap();
            let (_done, data) = rx.poll().unwrap().expect("rx completion");
            assert_eq!(data.unwrap().len(), size);
            rx.post_recv(u64::from(qsize) + u64::from(i)).unwrap();
        }
        run(t0, m0, &clock, &meter)
    } else {
        driver_negotiate(&cfg, &mem.guest(), F_VERSION_1 | F_NET_MAC | F_NET_MTU).unwrap();
        // Shared arenas.
        let arena_pages = usize::from(qsize) * stride as usize / PAGE_SIZE;
        let tx_arena = GuestAddr(16 * PAGE_SIZE as u64);
        let rx_arena = GuestAddr((16 + arena_pages as u64) * PAGE_SIZE as u64);
        mem.share_range(tx_arena, arena_pages * PAGE_SIZE).unwrap();
        mem.share_range(rx_arena, arena_pages * PAGE_SIZE).unwrap();
        let mut tx = Driver::new(mem.guest(), tx_layout, meter.clone()).unwrap();
        let mut rx = Driver::new(mem.guest(), rx_layout, meter.clone()).unwrap();
        let slot = |base: GuestAddr, i: u16| base.add(u64::from(i) * u64::from(stride));
        for i in 0..qsize - 1 {
            rx.add_buf(
                &[],
                &[DescSeg {
                    addr: slot(rx_arena, i),
                    len: stride,
                }],
                u64::from(i),
            )
            .unwrap();
        }
        let t0 = clock.now();
        let m0 = meter.snapshot();
        for i in 0..frames {
            let s = (i % u32::from(qsize)) as u16;
            mem.guest().write(slot(tx_arena, s), &payload).unwrap();
            mem.meter().bytes_zero_copy(size as u64);
            tx.add_buf(
                &[DescSeg {
                    addr: slot(tx_arena, s),
                    len: size as u32,
                }],
                &[],
                u64::from(i),
            )
            .unwrap();
            let chain = tx_dev.pop().unwrap().expect("tx chain");
            let f = tx_dev.read_payload(&chain).unwrap();
            tx_dev.complete(chain.head, 0).unwrap();
            tx.poll_used().unwrap();
            let rchain = rx_dev.pop().unwrap().expect("rx chain");
            let n = rx_dev.write_payload(&rchain, &f).unwrap();
            rx_dev.complete(rchain.head, n).unwrap();
            let done = rx.poll_used().unwrap().expect("rx completion");
            // Guest reads the delivered frame from the shared buffer.
            let mut buf = vec![0u8; done.len as usize];
            mem.guest()
                .read(
                    slot(rx_arena, (done.token % u64::from(qsize)) as u16),
                    &mut buf,
                )
                .unwrap();
            mem.meter().bytes_zero_copy(buf.len() as u64);
            // Repost.
            rx.add_buf(
                &[],
                &[DescSeg {
                    addr: slot(rx_arena, (done.token % u64::from(qsize)) as u16),
                    len: stride,
                }],
                done.token,
            )
            .unwrap();
        }
        run(t0, m0, &clock, &meter)
    }
}

/// Ring config for transport benches with `mtu` payload capacity.
pub fn bench_ring_config(mode: DataMode, mtu: u32) -> RingConfig {
    let slots = 64u32;
    let stride = mtu.next_power_of_two().max(64);
    RingConfig {
        slots,
        slot_size: if mode == DataMode::Inline {
            (mtu + 4).next_power_of_two().max(16)
        } else {
            16
        },
        mode,
        mtu,
        area_size: slots * stride,
        notify: NotifyMode::Polling,
        ..RingConfig::default()
    }
}

/// Builds a (guest producer, host consumer) pair plus the reverse
/// direction over fresh memory.
#[allow(clippy::type_complexity)]
pub fn cio_pair(
    cfg: RingConfig,
    cost: CostModel,
) -> (
    GuestMemory,
    Producer<cio_mem::GuestView>,
    Consumer<cio_mem::HostView>,
    Producer<cio_mem::HostView>,
    Consumer<cio_mem::GuestView>,
) {
    let clock = Clock::new();
    let meter = Meter::new();
    let ring_pages = (128 + cfg.slots as usize * cfg.slot_size as usize).div_ceil(PAGE_SIZE) + 1;
    let area_pages = (cfg.area_size as usize).div_ceil(PAGE_SIZE).max(1);
    let total = 2 * (ring_pages + area_pages) + 8;
    let mem = GuestMemory::new(total, clock, cost, meter);

    let mut next_page = 0u64;
    let mut alloc = |pages: usize| {
        let a = GuestAddr(next_page * PAGE_SIZE as u64);
        next_page += pages as u64;
        a
    };
    let tx_base = alloc(ring_pages);
    let tx_area = alloc(area_pages);
    let rx_base = alloc(ring_pages);
    let rx_area = alloc(area_pages);
    let tx_ring = CioRing::new(cfg.clone(), tx_base, tx_area).unwrap();
    let rx_ring = CioRing::new(cfg, rx_base, rx_area).unwrap();
    for (base, ring) in [(tx_base, &tx_ring), (rx_base, &rx_ring)] {
        mem.share_range(base, ring.ring_bytes()).unwrap();
    }
    for (base, ring) in [(tx_area, &tx_ring), (rx_area, &rx_ring)] {
        if ring.area_bytes() > 0 {
            mem.share_range(base, ring.area_bytes()).unwrap();
        }
    }
    let mut gp = Producer::new(tx_ring.clone(), mem.guest()).unwrap();
    let mut hc = Consumer::new(tx_ring, mem.host()).unwrap();
    let mut hp = Producer::new(rx_ring.clone(), mem.host()).unwrap();
    let mut gc = Consumer::new(rx_ring, mem.guest()).unwrap();
    // The microbenchmarks measure the copy-as-first-class discipline: one
    // explicit, metered copy on each side of each ring.
    gp.set_copy_policy(CopyPolicy::CopyEarly);
    hc.set_copy_policy(CopyPolicy::CopyEarly);
    hp.set_copy_policy(CopyPolicy::CopyEarly);
    gc.set_copy_policy(CopyPolicy::CopyEarly);
    (mem, gp, hc, hp, gc)
}

fn cio_echo(zero_copy: bool, size: usize, frames: u32, cost: CostModel) -> TransportResult {
    let cfg = bench_ring_config(DataMode::SharedArea, size as u32 + 64);
    let (mem, mut gp, mut hc, mut hp, mut gc) = cio_pair(cfg, cost);
    if zero_copy {
        gp.set_copy_policy(CopyPolicy::InPlace);
    }
    let payload = vec![0xCDu8; size];
    let t0 = mem.clock().now();
    let m0 = mem.meter().snapshot();
    for _ in 0..frames {
        gp.produce(&payload).unwrap();
        gp.kick();
        let f = hc.consume().unwrap().expect("host consume");
        hp.produce(&f).unwrap();
        hp.kick();
        let got = gc.consume().unwrap().expect("guest consume");
        assert_eq!(got.len(), size);
    }
    TransportResult {
        elapsed: mem.clock().since(t0),
        meter: mem.meter().snapshot().delta(&m0),
        bytes: u64::from(frames) * size as u64,
    }
}

/// One-way delivery with a chosen data-positioning mode (E6): guest
/// produces, host consumes.
pub fn cio_oneway(mode: DataMode, size: usize, frames: u32, cost: CostModel) -> TransportResult {
    let cfg = bench_ring_config(mode, size as u32 + 64);
    let (mem, mut gp, mut hc, _hp, _gc) = cio_pair(cfg, cost);
    let payload = vec![0x5Au8; size];
    let t0 = mem.clock().now();
    let m0 = mem.meter().snapshot();
    for _ in 0..frames {
        gp.produce(&payload).unwrap();
        let f = hc.consume().unwrap().expect("consume");
        debug_assert_eq!(f.len(), size);
    }
    TransportResult {
        elapsed: mem.clock().since(t0),
        meter: mem.meter().snapshot().delta(&m0),
        bytes: u64::from(frames) * size as u64,
    }
}

/// Receive-side delivery cost (E7): host produces `frames` payloads; the
/// guest consumes by copy or by revocation. Returns cycles per delivery.
pub fn rx_delivery(revoke: bool, size: usize, frames: u32, cost: CostModel) -> TransportResult {
    let stride = (size.max(1) as u32)
        .next_power_of_two()
        .max(PAGE_SIZE as u32);
    let slots = 16u32;
    let cfg = RingConfig {
        slots,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: size as u32,
        area_size: slots * stride,
        page_aligned_payloads: true,
        ..RingConfig::default()
    };
    let (mem, _gp, _hc, mut hp, mut gc) = cio_pair(cfg, cost);
    let payload = vec![0x11u8; size];
    let t0 = mem.clock().now();
    let m0 = mem.meter().snapshot();
    for _ in 0..frames {
        hp.produce(&payload).unwrap();
        if revoke {
            let r = gc.consume_revoking().unwrap().expect("payload");
            // Process in place, then return the pages.
            gc.release_revoked(r).unwrap();
        } else {
            let v = gc.consume().unwrap().expect("payload");
            debug_assert_eq!(v.len(), size);
        }
    }
    TransportResult {
        elapsed: mem.clock().since(t0),
        meter: mem.meter().snapshot().delta(&m0),
        bytes: u64::from(frames) * size as u64,
    }
}

/// Notification-discipline comparison (E8): `bursts` bursts of `burst`
/// messages. In doorbell mode the producer kicks once per burst and the
/// consumer drains on the doorbell; in polling mode the consumer performs
/// `idle_polls` empty polls between bursts (duty-cycle model).
pub fn notify_bench(
    doorbell: bool,
    burst: u32,
    bursts: u32,
    idle_polls: u32,
    cost: CostModel,
) -> TransportResult {
    let mut cfg = bench_ring_config(DataMode::SharedArea, 1514);
    cfg.notify = if doorbell {
        NotifyMode::Doorbell
    } else {
        NotifyMode::Polling
    };
    let (mem, mut gp, mut hc, _hp, _gc) = cio_pair(cfg, cost);
    let payload = vec![0x77u8; 256];
    let t0 = mem.clock().now();
    let m0 = mem.meter().snapshot();
    let mut delivered = 0u64;
    for _ in 0..bursts {
        for _ in 0..burst {
            gp.produce(&payload).unwrap();
        }
        if doorbell {
            gp.kick(); // one doorbell per burst
        } else {
            // The consumer was polling while idle: each empty poll costs
            // the index read plus the idle quantum.
            for _ in 0..idle_polls {
                if hc.consume().unwrap().is_none() {
                    mem.clock().advance(mem.cost().poll_idle);
                    mem.meter().idle_polls(1);
                }
            }
        }
        while hc.consume().unwrap().is_some() {
            delivered += 1;
        }
    }
    TransportResult {
        elapsed: mem.clock().since(t0),
        meter: mem.meter().snapshot().delta(&m0),
        bytes: delivered * 256,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_transports_echo() {
        for kind in [
            TransportKind::VirtioUnhardened,
            TransportKind::VirtioHardened,
            TransportKind::CioRingCopy,
            TransportKind::CioRingZeroCopy,
        ] {
            let r = frame_echo(kind, 1024, 16, CostModel::default());
            assert_eq!(r.bytes, 16 * 1024, "{kind}");
            assert!(r.elapsed.get() > 0, "{kind}");
        }
    }

    #[test]
    fn all_data_modes_deliver() {
        for mode in [DataMode::Inline, DataMode::SharedArea] {
            let r = cio_oneway(mode, 512, 32, CostModel::default());
            assert_eq!(r.bytes, 32 * 512, "{mode:?}");
        }
    }
}
