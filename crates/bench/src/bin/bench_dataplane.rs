//! Micro-benchmark for the one-pass AEAD dataplane.
//!
//! Three report sections, written to stdout and `BENCH_dataplane.json`:
//!
//! 1. `seal_open` — wall-clock throughput of AEAD seal+open round trips
//!    at 64 B..64 KiB, two-pass reference API vs the fused one-pass API
//!    on the same reused buffer. The acceptance bar for the dataplane
//!    rework is a >= 1.5x fused/two-pass ratio at 4 KiB.
//! 2. `record_scratch` — cTLS record seal/open through the reusable
//!    [`RecordScratch`] path (header + fused AEAD + tag in one buffer).
//! 3. `record_ring` — end-to-end records through the full stack on the
//!    seal-in-slot path: cTLS seal directly into a reserved cio-ring
//!    slot, host-side in-place consume, and decapsulation through the
//!    speer tunnel gateway onto its network segment. Wall-clock
//!    records/sec plus the deterministic cio-sim cycle meter series;
//!    steady state performs zero staging copies per record.
//! 4. `multiqueue` — wall-clock cost of simulating the full multi-queue
//!    world (8 RSS-steered flows through 1 vs 4 cio queues), alongside
//!    the virtual-time speedup the lane scheduler reports. The wall
//!    fields are explicitly labeled `serial_stepping`: one thread
//!    simulates every queue, so serial wall time does not scale down
//!    with queue count even though virtual time improves — that is the
//!    expected shape, not an anomaly. A third field times the same 4q world with
//!    the `parallel(4)` worker-thread host for contrast. This is a
//!    deliberately small smoke workload (8 flows x 8 KiB): its speedup is
//!    lower than E16's headline, which runs 32 flows x 128 KiB and has
//!    enough in-flight chunks to keep all four lanes busy. The JSON
//!    labels the workload so the two numbers are never conflated.
//! 5. `batch` — the amortized-boundary dataplane: records pushed through
//!    the ring in runs of 8 (one lock, one index publish, one doorbell,
//!    one batched AEAD pass per run) vs the per-record path, reporting
//!    locks/record, records/commit, and virtual cycles/record.
//!
//! The first line names the AEAD kernel tier this CPU selects
//! (`cio_crypto::aead::kernel_tier`), also written as `aead_kernel`, the
//! X25519 tier (`cio_crypto::x25519::kernel_tier`: IFMA lanes or scalar)
//! and the SHA-256 tier (`cio_crypto::sha256::kernel_tier`: the SHA
//! extensions or scalar).
//! `--quick` shrinks the timing windows for CI smoke runs.

use cio::world::speer::TunnelGateway;
use cio::world::{BoundaryKind, WorldOptions};
use cio_bench::micro::{json_array, measure, JsonObj, Measurement};
use cio_bench::{bench_opts, multi_stream_download};
use cio_crypto::ChaCha20Poly1305;
use cio_ctls::{Channel, RecordScratch, SimHooks, RECORD_OVERHEAD};
use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
use cio_netstack::{MacAddr, NetDevice, PairDevice};
use cio_sim::{Clock, CostModel, Meter, SimRng};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use std::hint::black_box;

const SIZES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];
const KEY_SIZE: usize = 4096; // the acceptance-bar size
/// Run depth of the batched section: below 4 a run amortizes too little
/// for its lock and commit counts to say anything.
const BATCH: usize = 8;
const _: () = assert!(BATCH >= 4);

struct SealOpenRow {
    size: usize,
    two_pass: Measurement,
    fused: Measurement,
}

impl SealOpenRow {
    fn ratio(&self) -> f64 {
        self.fused.gb_per_s() / self.two_pass.gb_per_s()
    }
}

/// AEAD seal+open round trip on a reused buffer, two-pass vs fused.
fn bench_seal_open(target_ms: u64) -> Vec<SealOpenRow> {
    let mut rng = SimRng::seed_from(0xbe7c);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let aead = ChaCha20Poly1305::new(key);
    let nonce = [7u8; 12];
    let aad = [0xA5u8; 8];

    SIZES
        .iter()
        .map(|&size| {
            let mut buf = vec![0u8; size];
            rng.fill_bytes(&mut buf);

            let two_pass = measure(target_ms, 2 * size as u64, || {
                let tag = aead.seal_in_place(&nonce, &aad, &mut buf);
                aead.open_in_place(&nonce, &aad, &mut buf, &tag)
                    .expect("self round trip");
                black_box(&buf);
            });
            let fused = measure(target_ms, 2 * size as u64, || {
                let tag = aead.seal_fused_in_place(&nonce, &aad, &mut buf);
                aead.open_fused_in_place(&nonce, &aad, &mut buf, &tag)
                    .expect("self round trip");
                black_box(&buf);
            });
            SealOpenRow {
                size,
                two_pass,
                fused,
            }
        })
        .collect()
}

/// cTLS record seal+open through reused scratches (no transport).
fn bench_record_scratch(target_ms: u64, payload_len: usize) -> Measurement {
    let mut tx = Channel::from_secrets([1; 32], [2; 32], true, None);
    let mut rx = Channel::from_secrets([1; 32], [2; 32], false, None);
    // Lockstep rekeying costs would dominate tiny windows identically on
    // both ends; leave the default policy on — it is part of the path.
    let payload = vec![0x5Au8; payload_len];
    let mut rec = RecordScratch::new();
    let mut plain = RecordScratch::new();
    measure(target_ms, payload_len as u64, || {
        tx.seal_into(&payload, &mut rec).expect("seal");
        rx.open_into(rec.as_slice(), &mut plain).expect("open");
        black_box(plain.as_slice());
    })
}

/// End-to-end: cTLS seal in slot -> cio ring -> in-place consume ->
/// tunnel gateway. Zero payload copies in steady state.
fn bench_record_ring(target_ms: u64, payload_len: usize) -> (Measurement, u64, Meter) {
    let clock = Clock::new();
    let cost = CostModel::default();
    let meter = Meter::new();
    let cfg = RingConfig {
        mtu: 2048,
        mode: DataMode::SharedArea,
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

    let hooks = SimHooks {
        clock: clock.clone(),
        cost,
        meter: meter.clone(),
        telemetry: cio_sim::Telemetry::disabled(),
    };
    let mut guest = Channel::from_secrets([3; 32], [4; 32], true, Some(hooks));
    let gw_chan = Channel::from_secrets([3; 32], [4; 32], false, None);
    let (gw_side, mut peer_side) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 2048);
    let mut gw = TunnelGateway::new(gw_chan, gw_side);

    let payload = vec![0x42u8; payload_len];
    let record_len = payload_len + RECORD_OVERHEAD;
    let t0 = clock.now();
    let m = measure(target_ms, payload_len as u64, || {
        let grant = producer.reserve(record_len).expect("slot reservation");
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
        black_box(&frame);
    });
    let sim_cycles = clock.since(t0).get();
    (m, sim_cycles, meter)
}

/// The batched dataplane: `batch` records per run through reserve-batch /
/// seal-batch / commit-batch / consume-batch / open-batch (batch 1 is
/// the same code at a run of one). Returns the wall measurement, virtual
/// cycles, and the meter for lock/commit ratios.
fn bench_batch_ring(target_ms: u64, payload_len: usize, batch: usize) -> (Measurement, u64, Meter) {
    use cio_vring::cioring::MAX_BATCH;
    assert!((1..=MAX_BATCH).contains(&batch));
    let clock = Clock::new();
    let cost = CostModel::default();
    let meter = Meter::new();
    let cfg = RingConfig {
        slots: 32,
        mtu: 2048,
        mode: DataMode::SharedArea,
        area_size: 32 * 2048,
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

    let hooks = SimHooks {
        clock: clock.clone(),
        cost,
        meter: meter.clone(),
        telemetry: cio_sim::Telemetry::disabled(),
    };
    let mut guest = Channel::from_secrets([3; 32], [4; 32], true, Some(hooks.clone()));
    let mut host = Channel::from_secrets([3; 32], [4; 32], false, Some(hooks));

    let payload = vec![0x42u8; payload_len];
    let record_len = payload_len + RECORD_OVERHEAD;
    let mut outs: Vec<RecordScratch> = std::iter::repeat_with(RecordScratch::new)
        .take(batch)
        .collect();
    let t0 = clock.now();
    let m = measure(target_ms, (batch * payload_len) as u64, || {
        let grant = producer
            .reserve_batch(record_len, batch)
            .expect("batch reservation");
        let pts: Vec<&[u8]> = vec![&payload; batch];
        let mut lens = vec![0usize; batch];
        producer
            .with_batch_mut(&grant, |slots| {
                guest.seal_batch_into_slots(&pts, slots, &mut lens)
            })
            .expect("batch access")
            .expect("batch seal");
        producer.commit_batch(grant, &lens).expect("batch commit");
        producer.kick();
        let mut results = vec![Ok(()); batch];
        let consumed = consumer
            .consume_batch_in_place(batch, |slots| {
                let recs: Vec<&[u8]> = slots.iter().map(|s| &**s).collect();
                host.open_batch_in_slots(&recs, &mut outs, &mut results);
            })
            .expect("batch consume");
        assert_eq!(consumed, batch);
        assert!(results.iter().all(Result::is_ok), "batched open failed");
        black_box(outs[0].as_slice());
    });
    let sim_cycles = clock.since(t0).get();
    (m, sim_cycles, meter)
}

/// Wall-clock cost of the whole multi-queue world: world build + 8 flows
/// moving `MQ_PER_FLOW` bytes each. With `parallel == 0` the host is
/// serviced on the stepping thread (wall time does not scale down with
/// queue count — one thread simulates every queue); with `parallel > 0`
/// the host runs
/// on that many worker threads. Returns the measurement plus the virtual
/// cycles one run consumed.
fn bench_multiqueue_world(target_ms: u64, queues: usize, parallel: usize) -> (Measurement, u64) {
    const MQ_FLOWS: usize = 8;
    const MQ_PER_FLOW: u64 = 8 * 1024;
    let mut sim_cycles = 0u64;
    let m = measure(target_ms, MQ_FLOWS as u64 * MQ_PER_FLOW, || {
        let opts = WorldOptions {
            queues,
            parallel,
            ..bench_opts()
        };
        let (r, _rounds) =
            multi_stream_download(BoundaryKind::L2CioRing, opts, MQ_FLOWS, MQ_PER_FLOW, 4096)
                .expect("multiqueue workload");
        sim_cycles = r.elapsed.get();
        black_box(r.app_bytes);
    });
    (m, sim_cycles)
}

fn seal_open_json(rows: &[SealOpenRow]) -> String {
    json_array(rows.iter().map(|r| {
        JsonObj::new()
            .int("size", r.size as u64)
            .f64("two_pass_gbps", r.two_pass.gb_per_s() * 8.0)
            .f64("fused_gbps", r.fused.gb_per_s() * 8.0)
            .f64("two_pass_ns_per_op", r.two_pass.ns_per_iter())
            .f64("fused_ns_per_op", r.fused.ns_per_iter())
            .f64("ratio", r.ratio())
            .finish()
    }))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let target_ms = if quick { 5 } else { 200 };

    let kernel = cio_crypto::aead::kernel_tier();
    println!(
        "one-pass AEAD dataplane micro-bench ({} mode, AEAD kernel tier: {kernel}, \
         X25519 tier: {}, SHA-256 tier: {})",
        if quick { "quick" } else { "full" },
        cio_crypto::x25519::kernel_tier(),
        cio_crypto::sha256::kernel_tier()
    );
    println!();
    println!("seal+open round trip, two-pass reference vs fused one-pass:");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>7}",
        "size", "two-pass GB/s", "fused GB/s", "ratio"
    );
    let rows = bench_seal_open(target_ms);
    for r in &rows {
        println!(
            "{:>8}  {:>14.3}  {:>14.3}  {:>6.2}x",
            r.size,
            r.two_pass.gb_per_s(),
            r.fused.gb_per_s(),
            r.ratio()
        );
    }
    let key_row = rows
        .iter()
        .find(|r| r.size == KEY_SIZE)
        .expect("4 KiB row present");
    let key_ratio = key_row.ratio();

    let scratch = bench_record_scratch(target_ms, 1024);
    println!();
    println!(
        "cTLS record scratch path (1 KiB payloads): {:.0} records/s, {:.3} GB/s payload",
        scratch.per_sec(),
        scratch.gb_per_s()
    );

    let (ring, sim_cycles, meter) = bench_record_ring(target_ms, 1024);
    let snap = meter.snapshot();
    println!(
        "ctls -> ring -> gateway end-to-end, seal-in-slot (1 KiB payloads): \
         {:.0} records/s, {:.0} sim cycles/record",
        ring.per_sec(),
        sim_cycles as f64 / ring.total_iters as f64
    );
    println!(
        "  sim meter: {} aead ops, {} copies ({} bytes copied), {} bytes zero-copy, \
         {} ring records",
        snap.aead_ops, snap.copies, snap.bytes_copied, snap.bytes_zero_copy, snap.ring_records
    );
    assert_eq!(snap.copies, 0, "the seal-in-slot record ring staged copies");
    assert!(snap.ring_records > 0, "the record ring moved no records");

    let (mq1, mq1_cycles) = bench_multiqueue_world(target_ms, 1, 0);
    let (mq4, mq4_cycles) = bench_multiqueue_world(target_ms, 4, 0);
    let (mq4p, _) = bench_multiqueue_world(target_ms, 4, 4);
    let vt_speedup = mq1_cycles as f64 / mq4_cycles.max(1) as f64;
    println!();
    println!(
        "multi-queue world wall cost (smoke workload: 8 flows x 8 KiB, 4 KiB chunks): \
         serial stepping 1q {:.1} ms/run, serial stepping 4q {:.1} ms/run \
         (one thread simulates all four queues, so serial wall time does not \
         scale down with queue count), \
         4-worker-thread host {:.1} ms/run; virtual-time speedup {:.2}x \
         (E16 is the virtual headline, E20 the wall-clock one)",
        mq1.ns_per_iter() / 1e6,
        mq4.ns_per_iter() / 1e6,
        mq4p.ns_per_iter() / 1e6,
        vt_speedup
    );

    let (b1, b1_cycles, _) = bench_batch_ring(target_ms, 1024, 1);
    let (b8, b8_cycles, b8_meter) = bench_batch_ring(target_ms, 1024, BATCH);
    let b1_cpr = b1_cycles as f64 / b1.total_iters as f64;
    let b8_cpr = b8_cycles as f64 / (b8.total_iters * BATCH as u64) as f64;
    let b8_snap = b8_meter.snapshot();
    let locks_per_record = b8_snap.lock_acquisitions as f64 / b8_snap.ring_records.max(1) as f64;
    let records_per_commit = b8_snap.ring_records as f64 / b8_snap.ring_commits.max(1) as f64;
    println!();
    println!(
        "batched dataplane (1 KiB payloads): batch 1 {:.0} cyc/record, batch 8 \
         {:.0} cyc/record ({:.2}x); {:.2} locks/record, {:.2} records/commit",
        b1_cpr,
        b8_cpr,
        b1_cpr / b8_cpr,
        locks_per_record,
        records_per_commit
    );
    assert!(
        locks_per_record < 1.0,
        "batched runs took a lock per record"
    );

    let verdict_met = key_ratio >= 1.5;
    println!();
    println!(
        "4 KiB fused/two-pass ratio: {:.2}x ({} the 1.5x bar)",
        key_ratio,
        if verdict_met { "meets" } else { "BELOW" }
    );

    let doc = JsonObj::new()
        .str("bench", "dataplane")
        .str("mode", if quick { "quick" } else { "full" })
        .str("aead_kernel", kernel)
        .raw("seal_open", seal_open_json(&rows))
        .raw(
            "record_scratch",
            JsonObj::new()
                .int("payload", 1024)
                .f64("records_per_sec", scratch.per_sec())
                .f64("gb_per_s", scratch.gb_per_s())
                .finish(),
        )
        .raw(
            "record_ring",
            JsonObj::new()
                .int("payload", 1024)
                .f64("records_per_sec", ring.per_sec())
                .f64("ns_per_record", ring.ns_per_iter())
                .f64(
                    "sim_cycles_per_record",
                    sim_cycles as f64 / ring.total_iters as f64,
                )
                .int("aead_ops", snap.aead_ops)
                .int("copies", snap.copies)
                .int("bytes_copied", snap.bytes_copied)
                .int("bytes_zero_copy", snap.bytes_zero_copy)
                .int("ring_records", snap.ring_records)
                .finish(),
        )
        .raw(
            "multiqueue",
            JsonObj::new()
                .str("workload", "smoke_8flows_8KiB")
                .str(
                    "note",
                    "small smoke sweep; serial-stepping wall time does not \
                     scale down with queues: one thread simulates every queue. \
                     E16 (exp_multiqueue) is the virtual-time headline at \
                     32 flows x 128 KiB; E20 (exp_parallel) the wall-clock one",
                )
                .int("flows", 8)
                .int("per_flow_bytes", 8 * 1024)
                .f64("wall_ms_serial_stepping_1q", mq1.ns_per_iter() / 1e6)
                .f64("wall_ms_serial_stepping_4q", mq4.ns_per_iter() / 1e6)
                .f64("wall_ms_parallel_host_4q", mq4p.ns_per_iter() / 1e6)
                .int("sim_cycles_1q", mq1_cycles)
                .int("sim_cycles_4q", mq4_cycles)
                .f64("virtual_speedup_4q", vt_speedup)
                .finish(),
        )
        .raw(
            "batch",
            JsonObj::new()
                .int("payload", 1024)
                .int("batch", BATCH as u64)
                .f64("sim_cycles_per_record_batch1", b1_cpr)
                .f64("sim_cycles_per_record_batch8", b8_cpr)
                .f64("speedup", b1_cpr / b8_cpr)
                .f64("locks_per_record", locks_per_record)
                .f64("records_per_commit", records_per_commit)
                .finish(),
        )
        .f64("ratio_4k", key_ratio)
        .finish();
    std::fs::write("BENCH_dataplane.json", doc + "\n").expect("write BENCH_dataplane.json");
    println!("wrote BENCH_dataplane.json");
}
