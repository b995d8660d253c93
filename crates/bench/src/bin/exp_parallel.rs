//! E20 — thread-per-queue wall-clock scaling of the host dataplane.
//!
//! Every earlier queue experiment (E16, the bench_dataplane multiqueue
//! smoke) measures *virtual-time* scaling: one OS thread simulates all
//! queues and the lane scheduler advances the clock by the busiest lane.
//! E20 measures the real thing: `QUEUES` seal-in-slot record pipelines —
//! cTLS seal directly into a reserved cio-ring slot, host-side in-place
//! consume, decapsulation through the tunnel gateway onto its network
//! segment — all in **one shared lock-striped [`GuestMemory`]**, sharded
//! over 1/2/4 OS threads exactly like the `World::builder(..).parallel(n)`
//! host (thread `t` owns queues `t`, `t + n`, ...). Each queue's ring and
//! payload area live on their own memory stripes, so the per-record
//! critical section is one uncontended stripe lock.
//!
//! Reported per thread count: wall-clock records/s aggregate over all
//! queues, and the speedup over the single-thread sweep. The acceptance
//! bar (>= 2.5x at 4 threads, >= 1.5x in `--quick` CI runs) is asserted
//! only when the machine actually has >= 4 cores —
//! [`std::thread::available_parallelism`] is reported honestly in the
//! JSON artifact either way; on smaller hosts the assertion degrades to
//! "threading must not collapse throughput".
//!
//! A second section times the full simulated world (8 RSS-steered flows,
//! 4 queues) with host servicing on the stepping thread vs on 4 worker
//! threads — informational, since the world's guest side and scheduler
//! remain single-threaded. Usage: `exp_parallel [--quick]`.

use cio::world::speer::TunnelGateway;
use cio::world::{BoundaryKind, WorldOptions};
use cio_bench::micro::{json_array, JsonObj};
use cio_bench::{bench_opts, multi_stream_download, print_table};
use cio_ctls::{Channel, SimHooks, RECORD_OVERHEAD};
use cio_mem::{GuestAddr, GuestMemory, GuestView, HostView, PAGE_SIZE};
use cio_netstack::{MacAddr, NetDevice, PairDevice};
use cio_sim::{Clock, CostModel, Meter, Telemetry};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

const QUEUES: usize = 4;
const PAYLOAD: usize = 1024;
/// Pages reserved per queue: 4 stripes of 64 pages, ring on the first
/// stripe, payload area starting on the second — two queues never share
/// a stripe, so worker threads never contend on a memory lock.
const REGION_PAGES: usize = 256;
const AREA_OFFSET_PAGES: usize = 64;

/// One queue's end-to-end record pipeline (guest seal-in-slot -> ring ->
/// host in-place consume -> gateway -> network segment), self-contained
/// so it can move to its owning worker thread.
struct QueuePipeline {
    producer: Producer<GuestView>,
    consumer: Consumer<HostView>,
    guest: Channel,
    gw: TunnelGateway,
    segment: PairDevice,
    payload: Vec<u8>,
}

impl QueuePipeline {
    fn cycle(&mut self) {
        let grant = self
            .producer
            .reserve(PAYLOAD + RECORD_OVERHEAD)
            .expect("slot reservation");
        let n = self
            .producer
            .with_slot_mut(&grant, |slot| {
                self.guest.seal_into_slot(&self.payload, slot)
            })
            .expect("slot access")
            .expect("seal in slot");
        self.producer.commit(grant, n).expect("commit");
        let accepted = self
            .consumer
            .consume_in_place(|record| self.gw.ingress(record))
            .expect("consume")
            .expect("record available");
        assert!(accepted, "gateway must accept the record");
        let mut frame = Vec::new();
        assert!(self.segment.receive(&mut frame), "frame on segment");
        black_box(&frame);
    }
}

/// Builds `QUEUES` pipelines in one shared striped guest memory, each
/// with a private lane clock (the shared meter is atomic adds).
fn build_pipelines() -> Vec<QueuePipeline> {
    let meter = Meter::new();
    let cost = CostModel::default();
    let mem = GuestMemory::new(
        QUEUES * REGION_PAGES,
        Clock::new(),
        cost.clone(),
        meter.clone(),
    );
    (0..QUEUES)
        .map(|q| {
            let qclock = Clock::new();
            let qmem = mem.with_clock(qclock.clone());
            let ring_base = GuestAddr((q * REGION_PAGES * PAGE_SIZE) as u64);
            let area_base = GuestAddr(((q * REGION_PAGES + AREA_OFFSET_PAGES) * PAGE_SIZE) as u64);
            let cfg = RingConfig {
                mtu: 2048,
                mode: DataMode::SharedArea,
                ..RingConfig::default()
            };
            let ring = CioRing::new(cfg, ring_base, area_base).expect("ring config");
            mem.share_range(ring_base, ring.ring_bytes())
                .expect("share ring");
            mem.share_range(area_base, ring.area_bytes())
                .expect("share area");
            let producer = Producer::new(ring.clone(), qmem.guest()).expect("producer");
            let consumer = Consumer::new(ring, qmem.host()).expect("consumer");
            let hooks = SimHooks {
                clock: qclock,
                cost: cost.clone(),
                meter: meter.clone(),
                telemetry: Telemetry::disabled(),
            };
            let seed = (q as u8).wrapping_mul(17);
            let guest = Channel::from_secrets(
                [seed.wrapping_add(3); 32],
                [seed.wrapping_add(4); 32],
                true,
                Some(hooks),
            );
            let gw_chan = Channel::from_secrets(
                [seed.wrapping_add(3); 32],
                [seed.wrapping_add(4); 32],
                false,
                None,
            );
            let (gw_side, segment) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 2048);
            QueuePipeline {
                producer,
                consumer,
                guest,
                gw: TunnelGateway::new(gw_chan, gw_side),
                segment,
                payload: vec![0x42u8; PAYLOAD],
            }
        })
        .collect()
}

/// Pushes `records_per_queue` records through every queue with the
/// pipelines sharded over `threads` OS threads; returns aggregate
/// wall-clock records/s (warm-up excluded from the timed window).
fn run_sharded(threads: usize, records_per_queue: u64) -> f64 {
    let pipelines = build_pipelines();
    let mut shards: Vec<Vec<QueuePipeline>> = (0..threads).map(|_| Vec::new()).collect();
    for (q, p) in pipelines.into_iter().enumerate() {
        shards[q % threads].push(p);
    }
    let barrier = Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                s.spawn(move || {
                    for p in &mut shard {
                        for _ in 0..32 {
                            p.cycle(); // warm-up: buffers to high-water marks
                        }
                    }
                    barrier.wait();
                    for _ in 0..records_per_queue {
                        for p in &mut shard {
                            p.cycle();
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        for h in handles {
            h.join().expect("worker thread");
        }
        t.elapsed()
    });
    let total = records_per_queue * QUEUES as u64;
    total as f64 / elapsed.as_secs_f64()
}

/// Wall-clock milliseconds for the full simulated world workload with
/// `parallel` host worker threads (0 = serial stepping).
fn world_wall_ms(parallel: usize, per_flow: u64) -> f64 {
    let opts = WorldOptions {
        queues: QUEUES,
        parallel,
        ..bench_opts()
    };
    let t = Instant::now();
    let (r, _rounds) = multi_stream_download(BoundaryKind::L2CioRing, opts, 8, per_flow, 4096)
        .expect("E20 world workload");
    black_box(r.app_bytes);
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let records_per_queue: u64 = if quick { 4_000 } else { 75_000 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let thread_counts: [usize; 3] = [1, 2, 4];
    let mut recs = Vec::new();
    for &t in &thread_counts {
        recs.push(run_sharded(t, records_per_queue));
    }
    let base = recs[0];
    let rows: Vec<Vec<String>> = thread_counts
        .iter()
        .zip(&recs)
        .map(|(&t, &r)| {
            vec![
                t.to_string(),
                format!("{r:.0}"),
                format!("{:.2}x", r / base),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E20 — thread-per-queue wall-clock scaling \
             ({QUEUES} queues, 1 KiB records, {cores} cores available)"
        ),
        &["threads", "records/s", "speedup"],
        &rows,
    );
    let speedup4 = recs[2] / base;

    println!(
        "\nReading: the pipelines share one lock-striped guest memory; each \
         queue's ring and payload area sit on private stripes, so scaling is \
         bounded only by cores and the shared atomic meter. The virtual-time \
         lane scheduler (E16) predicted this headroom; E20 cashes it in."
    );

    let per_flow: u64 = if quick { 8 * 1024 } else { 32 * 1024 };
    let world_serial = world_wall_ms(0, per_flow);
    let world_parallel = world_wall_ms(QUEUES, per_flow);
    println!(
        "\nFull world (8 flows x {} KiB, 4 queues): host-on-stepping-thread \
         {world_serial:.1} ms, host-on-4-worker-threads {world_parallel:.1} ms \
         (informational: the guest side and scheduler stay single-threaded, \
         so Amdahl caps the world-level win)",
        per_flow / 1024
    );

    let bar = if quick { 1.5 } else { 2.5 };
    if cores >= 4 {
        println!("\n4-thread speedup: {speedup4:.2}x (target: >= {bar}x on >= 4 cores)");
        assert!(
            speedup4 >= bar,
            "thread-per-queue scaling regressed: {speedup4:.2}x < {bar}x on a {cores}-core host"
        );
    } else {
        println!(
            "\n4-thread speedup: {speedup4:.2}x — {cores} core(s) available, \
             the >= {bar}x bar needs >= 4; asserting no contention collapse instead"
        );
        assert!(
            speedup4 >= 0.4,
            "threading collapsed throughput on a {cores}-core host: {speedup4:.2}x"
        );
    }

    let doc = JsonObj::new()
        .str("bench", "parallel")
        .str("mode", if quick { "quick" } else { "full" })
        .int("cores", cores as u64)
        .int("queues", QUEUES as u64)
        .int("payload", PAYLOAD as u64)
        .int("records_per_queue", records_per_queue)
        .raw(
            "scaling",
            json_array(thread_counts.iter().zip(&recs).map(|(&t, &r)| {
                JsonObj::new()
                    .int("threads", t as u64)
                    .f64("records_per_sec", r)
                    .f64("speedup", r / base)
                    .finish()
            })),
        )
        .f64("speedup_4t", speedup4)
        .f64("bar", bar)
        .int("bar_asserted", u64::from(cores >= 4))
        .raw(
            "world",
            JsonObj::new()
                .int("flows", 8)
                .int("per_flow_bytes", per_flow)
                .f64("wall_ms_serial_stepping", world_serial)
                .f64("wall_ms_parallel_host", world_parallel)
                .finish(),
        )
        .finish();
    std::fs::write("BENCH_parallel.json", doc + "\n").expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}
