//! E18 — seal-in-slot zero-copy ring (§3.2): copy counts and virtual-time
//! throughput for copy-early ring endpoints (seal into private staging,
//! one metered copy into the ring, one out of it) vs in-place endpoints
//! (seal directly where the consumer reads, consume in place). Both run
//! the same code over the same cTLS -> cio-ring -> tunnel-gateway stack;
//! only the endpoints' `CopyPolicy` differs.
//!
//! The in-slot rows must report exactly 0.00 staging copies per record —
//! the binary exits non-zero otherwise, which is the CI guard for the
//! zero-copy discipline. `--quick` shrinks the sweep for smoke runs.

use cio::world::speer::TunnelGateway;
use cio::world::{BoundaryKind, WorldOptions};
use cio_bench::{bench_opts, echo_latency, fmt_cycles, print_table};
use cio_ctls::{Channel, SimHooks, RECORD_OVERHEAD};
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, PAGE_SIZE};
use cio_netstack::{MacAddr, NetDevice, PairDevice};
use cio_sim::{Clock, CostModel, Meter, MeterSnapshot};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

struct Row {
    size: usize,
    in_slot: bool,
    cycles_per_rec: u64,
    gbps: f64,
    copies_per_rec: f64,
    bytes_copied: u64,
    bytes_zero_copy: u64,
}

/// Pushes `frames` records of `size` bytes through the full record/ring
/// stack with both ring endpoints positioned by `policy`, and returns the
/// virtual-time cost and meter delta.
fn run_ring(size: usize, policy: CopyPolicy, frames: u32) -> Row {
    let clock = Clock::new();
    let cost = CostModel::default();
    let meter = Meter::new();
    let cfg = RingConfig {
        slots: 16,
        mtu: 32 * 1024,
        mode: DataMode::SharedArea,
        area_size: 1 << 19, // 32 KiB stride at 16 slots
        ..RingConfig::default()
    };
    let area_pages = cfg.area_size as usize / PAGE_SIZE;
    let mem = GuestMemory::new(32 + area_pages, clock.clone(), cost.clone(), meter.clone());
    let ring =
        CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).expect("ring config");
    mem.share_range(GuestAddr(0), ring.ring_bytes())
        .expect("share ring");
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())
        .expect("share area");
    let mut producer = Producer::new(ring.clone(), mem.guest()).expect("producer");
    let mut consumer = Consumer::new(ring, mem.host()).expect("consumer");
    producer.set_copy_policy(policy);
    consumer.set_copy_policy(policy);

    let hooks = SimHooks {
        clock: clock.clone(),
        cost: cost.clone(),
        meter: meter.clone(),
        telemetry: cio_sim::Telemetry::disabled(),
    };
    let mut guest = Channel::from_secrets([3; 32], [4; 32], true, Some(hooks));
    let gw_chan = Channel::from_secrets([3; 32], [4; 32], false, None);
    let (gw_side, mut peer_side) =
        PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 32 * 1024);
    let mut gw = TunnelGateway::new(gw_chan, gw_side);

    let payload = vec![0x42u8; size];
    let m0 = meter.snapshot();
    let t0 = clock.now();
    for _ in 0..frames {
        let grant = producer
            .reserve(size + RECORD_OVERHEAD)
            .expect("slot reservation");
        let n = producer
            .with_slot_mut(&grant, |slot| guest.seal_into_slot(&payload, slot))
            .expect("slot access")
            .expect("seal in slot");
        producer.commit(grant, n).expect("commit");
        let accepted = consumer
            .consume_in_place(|record| gw.ingress(record))
            .expect("consume")
            .expect("record available");
        assert!(accepted, "gateway must accept the record");
        let frame = peer_side.receive().expect("frame on segment");
        std::hint::black_box(&frame);
    }
    let elapsed = clock.since(t0);
    let d = meter.snapshot().delta(&m0);
    Row {
        size,
        in_slot: policy == CopyPolicy::InPlace,
        cycles_per_rec: elapsed.get() / u64::from(frames),
        gbps: cio_sim::gbps(u64::from(frames) * size as u64, elapsed, cost.ghz),
        copies_per_rec: copies_per_record(&d),
        bytes_copied: d.bytes_copied,
        bytes_zero_copy: d.bytes_zero_copy,
    }
}

fn copies_per_record(d: &MeterSnapshot) -> f64 {
    if d.ring_records == 0 {
        0.0
    } else {
        d.copies as f64 / d.ring_records as f64
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let frames: u32 = if quick { 64 } else { 512 };
    let sizes: &[usize] = if quick {
        &[256, 4096]
    } else {
        &[64, 256, 1024, 4096, 16384]
    };

    let mut rows = Vec::new();
    let mut in_slot_copies_clean = true;
    for &size in sizes {
        for policy in [CopyPolicy::CopyEarly, CopyPolicy::InPlace] {
            let r = run_ring(size, policy, frames);
            if r.in_slot && r.copies_per_rec != 0.0 {
                in_slot_copies_clean = false;
            }
            rows.push(r);
        }
    }

    print_table(
        "E18 — seal-in-slot zero-copy ring: staged vs in-slot positioning",
        &[
            "payload B",
            "path",
            "cyc/record",
            "Gbit/s",
            "copies/rec",
            "bytes copied",
            "bytes zero-copy",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.size.to_string(),
                    if r.in_slot { "in-slot" } else { "staged" }.to_string(),
                    fmt_cycles(cio_sim::Cycles(r.cycles_per_rec)),
                    format!("{:.2}", r.gbps),
                    format!("{:.2}", r.copies_per_rec),
                    r.bytes_copied.to_string(),
                    r.bytes_zero_copy.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // End-to-end control: the same discipline through the whole Tunneled
    // world (guest stack, both rings, host backend, secure peer), flipped
    // by the world-level copy policy.
    let echo_rounds: u32 = if quick { 8 } else { 32 };
    let mut world_rows = Vec::new();
    let mut world_copies = [0u64; 2];
    for (i, (policy, name)) in [
        (CopyPolicy::CopyEarly, "staged (CopyEarly)"),
        (CopyPolicy::InPlace, "in-slot (InPlace)"),
    ]
    .into_iter()
    .enumerate()
    {
        let opts = WorldOptions {
            copy_policy: policy,
            ..bench_opts()
        };
        let (rt, r) =
            echo_latency(BoundaryKind::Tunneled, opts, 1024, echo_rounds).expect("tunneled echo");
        world_copies[i] = r.meter.copies;
        world_rows.push(vec![
            name.to_string(),
            fmt_cycles(rt),
            format!("{:.2}", copies_per_record(&r.meter)),
            r.meter.bytes_copied.to_string(),
            r.meter.bytes_zero_copy.to_string(),
        ]);
    }
    print_table(
        "E18 — tunneled world echo (1 KiB), staged vs in-slot policy",
        &[
            "policy",
            "cyc/round-trip",
            "copies/rec",
            "bytes copied",
            "bytes zero-copy",
        ],
        &world_rows,
    );

    println!(
        "\nReading: the staged path pays one metered copy per record on each side of the \
         boundary (seal into a scratch, copy into the slot; copy out, then open). The \
         in-slot path seals ciphertext directly where the consumer fetches it and opens \
         records in place under the memory lock, so steady state moves payload bytes \
         zero-copy in both directions — same interface validation, same single-fetch \
         discipline, fewer positioned bytes touched twice (§3.2 'copies as a first-class \
         citizen')."
    );

    if !in_slot_copies_clean {
        eprintln!("FAIL: in-slot path reported staging copies; zero-copy discipline broken");
        std::process::exit(1);
    }
    if world_copies[1] >= world_copies[0] {
        eprintln!(
            "FAIL: InPlace world copies ({}) not below CopyEarly ({})",
            world_copies[1], world_copies[0]
        );
        std::process::exit(1);
    }
    println!("\nPASS: in-slot steady state performed 0 staging copies per record");
}
