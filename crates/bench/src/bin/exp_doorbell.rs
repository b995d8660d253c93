//! E23 — notification economics: event-idx suppression and the adaptive
//! poll-vs-notify controller.
//!
//! Sweeps notify policy x batch policy over the steady-state multi-flow
//! echo workload (establishment and warm-up excluded from the window)
//! and reports exits/record and doorbells/record. Three claims:
//!
//! - **Suppression**: with `NotifyPolicy::EventIdx` the producer skips
//!   the kick whenever the consumer's published event index proves it is
//!   still awake — one doorbell covers many batches, so doorbells/record
//!   collapses at load (gate: < 0.1 with `Adaptive` + `Fixed(8)`, and
//!   strictly below the `Always` baseline at every batch policy). A hot
//!   adaptive queue does not re-arm its event index at all until it goes
//!   cold, so `Adaptive` + `Fixed(8)` must also read below `EventIdx` +
//!   `Fixed(8)`, which re-arms on every empty drain. The batch-8 gate
//!   holds at every phase of the setup: the world steps idle for 0, one
//!   delayed-ACK timeout (300 001 cycles) or 1 M cycles before the
//!   warm-up, and the reading may not depend on what the setup left
//!   pending (ROADMAP item 29's idle-gap axis).
//! - **Throughput**: the suppressed exits are real virtual time saved —
//!   `Adaptive` beats `Always` by >= 1.15x cycles/record at batch 1,
//!   where `Always` pays one exit per record.
//! - **Bounded idle spin**: at zero offered load the adaptive controller
//!   parks every queue after its idle budget drains and thereafter only
//!   wakes on the re-poll heartbeat (1 pass per `REPOLL_EVERY` rounds) —
//!   the idle duty cycle is a bounded budget, never an unbounded spin.
//!
//! Writes `BENCH_doorbell.json` for CI assertion. Usage:
//! `exp_doorbell [--quick]`.

use cio::world::{BatchPolicy, BoundaryKind, NotifyMode, NotifyPolicy, World, WorldOptions};
use cio_bench::micro::{json_array, JsonObj};
use cio_bench::{bench_opts, print_table, steady_echo_run, SteadyEcho};
use cio_host::backend::{IDLE_BUDGET_MAX, REPOLL_EVERY};
use cio_netstack::tcp::DELAYED_ACK;
use cio_sim::Cycles;

const QUEUES: usize = 2;

/// The setup phases the batch-8 gate is read at: virtual cycles the
/// world steps idle before the warm-up — none, just past one delayed-ACK
/// timeout, and 1 M.
const GAPS: [Cycles; 3] = [Cycles::ZERO, Cycles(DELAYED_ACK.0 + 1), Cycles(1_000_000)];

/// Echo workload shape (flows, rounds, payload bytes). Small payloads
/// keep the per-record work low, so the notification cost is a large,
/// visible fraction — the regime the suppression machinery targets.
fn shape(quick: bool) -> (usize, u32, usize) {
    if quick {
        (32, 6, 64)
    } else {
        (32, 24, 64)
    }
}

fn doorbell_opts(policy: NotifyPolicy, batch: BatchPolicy) -> WorldOptions {
    WorldOptions {
        queues: QUEUES,
        notify: NotifyMode::Doorbell,
        notify_policy: policy,
        batch,
        ..bench_opts()
    }
}

fn policy_name(p: NotifyPolicy) -> &'static str {
    match p {
        NotifyPolicy::Always => "always",
        NotifyPolicy::EventIdx => "event-idx",
        NotifyPolicy::Adaptive => "adaptive",
    }
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

    let policies = [
        NotifyPolicy::Always,
        NotifyPolicy::EventIdx,
        NotifyPolicy::Adaptive,
    ];
    let batches = [BatchPolicy::Serial, BatchPolicy::Fixed(8)];

    // High-load sweep: policy x batch, identical seed and workload.
    let mut runs: Vec<(NotifyPolicy, BatchPolicy, SteadyEcho)> = Vec::new();
    for &batch in &batches {
        for &policy in &policies {
            let r = steady_echo_run(doorbell_opts(policy, batch), flows, rounds, size, GAPS[0])
                .expect("E23 echo workload failed");
            runs.push((policy, batch, r));
        }
    }
    let find = |policy: NotifyPolicy, batch: BatchPolicy| -> &SteadyEcho {
        runs.iter()
            .find(|(p, b, _)| *p == policy && batch_name(*b) == batch_name(batch))
            .map(|(_, _, r)| r)
            .expect("sweep covers the cell")
    };
    let adapt_fixed = find(NotifyPolicy::Adaptive, BatchPolicy::Fixed(8));
    // The gated cell at every setup phase; the sweep ran the first.
    let mut phases = vec![(GAPS[0], adapt_fixed.doorbells_per_record())];
    for &gap in &GAPS[1..] {
        let opts = doorbell_opts(NotifyPolicy::Adaptive, BatchPolicy::Fixed(8));
        let r = steady_echo_run(opts, flows, rounds, size, gap).expect("E23 phase run failed");
        phases.push((gap, r.doorbells_per_record()));
    }

    // Zero-load probe: an idle world under the adaptive controller. The
    // gate counters are cumulative, so the *growth* between two horizons
    // isolates the steady-state duty cycle from the initial budget drain.
    let idle_steps = if quick { 512usize } else { 2048 };
    let idle_passes_at = |steps: usize| -> u64 {
        let mut w = World::new(
            BoundaryKind::L2CioRing,
            doorbell_opts(NotifyPolicy::Adaptive, BatchPolicy::Serial),
        )
        .expect("E23 idle world failed");
        w.run(steps).expect("E23 idle stepping failed");
        w.notify_idle_passes()
    };
    let idle_short = idle_passes_at(idle_steps);
    let idle_long = idle_passes_at(2 * idle_steps);
    // After the budget drains, only the heartbeat may wake a queue.
    let heartbeat = |steps: usize| (steps as u64 / u64::from(REPOLL_EVERY)) + 1;
    let idle_budget = QUEUES as u64 * (u64::from(IDLE_BUDGET_MAX) + heartbeat(idle_steps));
    let idle_growth_cap = QUEUES as u64 * heartbeat(idle_steps);
    let idle_bounded =
        idle_short <= idle_budget && idle_long.saturating_sub(idle_short) <= idle_growth_cap;

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(p, b, r)| {
            vec![
                policy_name(*p).into(),
                batch_name(*b).into(),
                format!("{:.0}", r.cycles_per_record()),
                format!("{:.4}", r.exits_per_record()),
                format!("{:.4}", r.doorbells_per_record()),
                r.meter.suppressed_kicks.to_string(),
                r.meter.spurious_wakeups.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E23 — notification economics on {flows} flows x {rounds} rounds of \
             {size} B ({QUEUES} queues, steady state)"
        ),
        &[
            "notify",
            "batch",
            "cyc/record",
            "exits/rec",
            "doorbells/rec",
            "suppressed",
            "spurious",
        ],
        &rows,
    );
    print_table(
        "E23 — adaptive + fixed(8) at each setup phase (idle gap before the warm-up)",
        &["idle gap (cycles)", "doorbells/rec", "gate < 0.1"],
        &phases
            .iter()
            .map(|&(gap, d)| {
                vec![
                    gap.get().to_string(),
                    format!("{d:.4}"),
                    if d < 0.1 { "holds" } else { "FAILS" }.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let base_serial = find(NotifyPolicy::Always, BatchPolicy::Serial);
    let base_fixed = find(NotifyPolicy::Always, BatchPolicy::Fixed(8));
    let adapt_serial = find(NotifyPolicy::Adaptive, BatchPolicy::Serial);
    let speedup_b1 = base_serial.cycles_per_record() / adapt_serial.cycles_per_record();
    let suppression_active = runs
        .iter()
        .filter(|(p, _, _)| *p != NotifyPolicy::Always)
        .all(|(_, _, r)| r.meter.suppressed_kicks > 0);

    println!(
        "\nReading: in `always` mode every publish pays the exit — {:.2} \
         doorbells/record at batch 1. Event-idx suppression publishes the \
         consumer's progress instead, so a doorbell is only rung when the \
         consumer provably went to sleep: {:.4} doorbells/record under \
         `adaptive` + fixed(8) (gate: < 0.1), worth {speedup_b1:.2}x \
         cycles/record at batch 1 (gate: >= 1.15x). At zero load the \
         controller parks each queue after its idle budget and wakes once \
         per {REPOLL_EVERY} rounds: {idle_short} idle passes over \
         {idle_steps} steps, +{} over the next {idle_steps}.",
        base_serial.doorbells_per_record(),
        adapt_fixed.doorbells_per_record(),
        idle_long - idle_short,
    );

    for &(gap, d) in &phases {
        assert!(
            d < 0.1,
            "adaptive+fixed(8) doorbells/record {d:.4} >= 0.1 after an idle gap of {} cycles",
            gap.get()
        );
    }
    let event_fixed = find(NotifyPolicy::EventIdx, BatchPolicy::Fixed(8));
    assert!(
        adapt_fixed.doorbells_per_record() < event_fixed.doorbells_per_record(),
        "adaptive+fixed(8) doorbells/record {:.4} not below event-idx+fixed(8) {:.4}: \
         a hot queue re-armed its event index",
        adapt_fixed.doorbells_per_record(),
        event_fixed.doorbells_per_record()
    );
    assert!(
        speedup_b1 >= 1.15,
        "adaptive batch-1 speedup {speedup_b1:.3}x < 1.15x over always"
    );
    assert!(
        suppression_active,
        "a non-Always run suppressed zero kicks — event-idx machinery inert"
    );
    for &batch in &batches {
        let base = find(NotifyPolicy::Always, batch);
        for policy in [NotifyPolicy::EventIdx, NotifyPolicy::Adaptive] {
            let r = find(policy, batch);
            assert!(
                r.doorbells_per_record() < base.doorbells_per_record(),
                "{}/{} doorbells/record {:.4} not below always baseline {:.4}",
                policy_name(policy),
                batch_name(batch),
                r.doorbells_per_record(),
                base.doorbells_per_record()
            );
        }
    }
    assert!(
        idle_bounded,
        "idle spin unbounded: {idle_short} passes over {idle_steps} steps \
         (budget {idle_budget}), +{} over the next horizon (cap {idle_growth_cap})",
        idle_long - idle_short
    );

    let doc = JsonObj::new()
        .str("bench", "doorbell")
        .str("mode", if quick { "quick" } else { "full" })
        .int("flows", flows as u64)
        .int("rounds", u64::from(rounds))
        .int("size", size as u64)
        .int("queues", QUEUES as u64)
        .raw(
            "runs",
            json_array(runs.iter().map(|(p, b, r)| {
                JsonObj::new()
                    .str("notify", policy_name(*p))
                    .str("batch", batch_name(*b))
                    .int("cycles", r.elapsed.get())
                    .int("records", r.meter.ring_records)
                    .f64("cycles_per_record", r.cycles_per_record())
                    .f64("exits_per_record", r.exits_per_record())
                    .f64("doorbells_per_record", r.doorbells_per_record())
                    .int("suppressed_kicks", r.meter.suppressed_kicks)
                    .int("spurious_wakeups", r.meter.spurious_wakeups)
                    .finish()
            })),
        )
        .raw(
            "doorbell",
            JsonObj::new()
                .int("suppression_active", u64::from(suppression_active))
                .f64(
                    "always_doorbells_per_record_b1",
                    base_serial.doorbells_per_record(),
                )
                .f64(
                    "always_doorbells_per_record_b8",
                    base_fixed.doorbells_per_record(),
                )
                .f64(
                    "adaptive_doorbells_per_record_b8",
                    adapt_fixed.doorbells_per_record(),
                )
                .raw(
                    "adaptive_doorbells_per_record_b8_by_idle_gap",
                    json_array(phases.iter().map(|&(gap, d)| {
                        JsonObj::new()
                            .int("idle_gap_cycles", gap.get())
                            .f64("doorbells_per_record", d)
                            .finish()
                    })),
                )
                .f64("speedup_b1", speedup_b1)
                .int("idle_steps", idle_steps as u64)
                .int("idle_passes", idle_short)
                .int("idle_passes_2x", idle_long)
                .int("idle_budget", idle_budget)
                .int("idle_bounded", u64::from(idle_bounded))
                .finish(),
        )
        .finish();
    std::fs::write("BENCH_doorbell.json", doc + "\n").expect("write BENCH_doorbell.json");
    println!("wrote BENCH_doorbell.json");
}
