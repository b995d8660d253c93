//! E8 (v2) — polling vs. doorbells vs. event-idx suppression on the
//! modern dataplane (§3.2 "no notifications").
//!
//! The seed-era E8 measured a synthetic transport loop; this version
//! runs the real thing: the multiqueue cio-ring world (builder API,
//! batching, RSS-steered flows) under the steady-state echo workload,
//! sweeping the notification mode with everything else held fixed:
//!
//! - **polling**: no notifications at all — the host burns idle polls,
//!   the paper's default under load.
//! - **doorbell/always**: one exit per publish, the historical
//!   interrupt-driven arm.
//! - **doorbell/event-idx**: the consumer publishes its progress, the
//!   producer kicks only when the consumer provably went to sleep —
//!   doorbell semantics at near-polling cycle cost.
//!
//! The JSON is labelled `notifications_v2` so post-refresh numbers can
//! never be confused with seed-era E8 output (different workload,
//! different units). Writes `BENCH_notifications.json`. Usage:
//! `exp_notifications [--quick]`.

use cio::world::{BatchPolicy, BoundaryKind, NotifyMode, NotifyPolicy, World};
use cio_bench::micro::{json_array, JsonObj};
use cio_bench::{bench_opts, print_table, steady_echo_run, SteadyEcho};
use cio_sim::Cycles;

const QUEUES: usize = 4;

/// Echo workload shape (flows, rounds, payload bytes).
fn shape(quick: bool) -> (usize, u32, usize) {
    if quick {
        (16, 6, 256)
    } else {
        (16, 24, 256)
    }
}

/// The three notification arms under comparison.
const ARMS: [(&str, NotifyMode, NotifyPolicy); 3] = [
    ("polling", NotifyMode::Polling, NotifyPolicy::Always),
    (
        "doorbell/always",
        NotifyMode::Doorbell,
        NotifyPolicy::Always,
    ),
    (
        "doorbell/event-idx",
        NotifyMode::Doorbell,
        NotifyPolicy::EventIdx,
    ),
];

fn run_arm(
    notify: NotifyMode,
    policy: NotifyPolicy,
    batch: BatchPolicy,
    quick: bool,
) -> SteadyEcho {
    let (flows, rounds, size) = shape(quick);
    let opts = World::builder(BoundaryKind::L2CioRing)
        .options(bench_opts())
        .queues(QUEUES)
        .notify(notify)
        .notify_policy(policy)
        .batch(batch)
        .into_options();
    steady_echo_run(opts, flows, rounds, size, Cycles::ZERO).expect("E8 echo workload failed")
}

fn batch_name(b: BatchPolicy) -> &'static str {
    match b {
        BatchPolicy::Serial => "serial",
        _ => "fixed(8)",
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (flows, rounds, size) = shape(quick);
    let batches = [BatchPolicy::Serial, BatchPolicy::Fixed(8)];

    let mut runs: Vec<(&'static str, BatchPolicy, SteadyEcho)> = Vec::new();
    for &batch in &batches {
        for &(label, notify, policy) in &ARMS {
            runs.push((label, batch, run_arm(notify, policy, batch, quick)));
        }
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(label, batch, r)| {
            vec![
                (*label).into(),
                batch_name(*batch).into(),
                format!("{:.0}", r.cycles_per_record()),
                format!("{:.4}", r.doorbells_per_record()),
                r.meter.idle_polls.to_string(),
                r.meter.suppressed_kicks.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E8 (v2) — notification modes on {flows} flows x {rounds} rounds of \
             {size} B ({QUEUES} queues, steady state)"
        ),
        &[
            "mode",
            "batch",
            "cyc/record",
            "doorbells/rec",
            "idle polls",
            "suppressed",
        ],
        &rows,
    );

    let find = |label: &str, batch: BatchPolicy| -> &SteadyEcho {
        runs.iter()
            .find(|(l, b, _)| *l == label && batch_name(*b) == batch_name(batch))
            .map(|(_, _, r)| r)
            .expect("sweep covers the cell")
    };
    let poll = find("polling", BatchPolicy::Serial);
    let bell = find("doorbell/always", BatchPolicy::Serial);
    let eidx = find("doorbell/event-idx", BatchPolicy::Serial);

    println!(
        "\nReading: under load, polling still wins outright — notifications do \
         not contribute to performance when the consumer is awake anyway. But \
         event-idx suppression closes most of the gap ({:.0} vs {:.0} vs {:.0} \
         cycles/record for polling / event-idx / always at batch 1) while \
         keeping doorbell semantics, so an idle host may actually sleep instead \
         of burning cores — the adaptive controller in E23 builds on exactly \
         this.",
        poll.cycles_per_record(),
        eidx.cycles_per_record(),
        bell.cycles_per_record(),
    );

    // Sanity gates: polling must ring nothing, and suppression must beat
    // the always baseline on both exits and cycles at every batch policy.
    for &batch in &batches {
        let p = find("polling", batch);
        assert_eq!(
            p.meter.notifications_sent + p.meter.interrupts_received,
            0,
            "polling mode rang a doorbell"
        );
        let b = find("doorbell/always", batch);
        let e = find("doorbell/event-idx", batch);
        assert!(
            e.doorbells_per_record() < b.doorbells_per_record(),
            "event-idx not below always at {}",
            batch_name(batch)
        );
        assert!(
            e.cycles_per_record() < b.cycles_per_record(),
            "event-idx not cheaper than always at {}",
            batch_name(batch)
        );
        assert!(e.meter.suppressed_kicks > 0, "no kicks suppressed");
    }

    let doc = JsonObj::new()
        .str("bench", "notifications_v2")
        .str("mode", if quick { "quick" } else { "full" })
        .int("flows", flows as u64)
        .int("rounds", u64::from(rounds))
        .int("size", size as u64)
        .int("queues", QUEUES as u64)
        .raw(
            "runs",
            json_array(runs.iter().map(|(label, batch, r)| {
                JsonObj::new()
                    .str("notify", label)
                    .str("batch", batch_name(*batch))
                    .int("cycles", r.elapsed.get())
                    .int("records", r.meter.ring_records)
                    .f64("cycles_per_record", r.cycles_per_record())
                    .f64("doorbells_per_record", r.doorbells_per_record())
                    .int("idle_polls", r.meter.idle_polls)
                    .int("suppressed_kicks", r.meter.suppressed_kicks)
                    .finish()
            })),
        )
        .finish();
    std::fs::write("BENCH_notifications.json", doc + "\n").expect("write BENCH_notifications.json");
    println!("wrote BENCH_notifications.json");
}
