//! E22 — observability overhead and determinism.
//!
//! Two claims about the event timeline, measured on the E17 telemetry
//! echo workload:
//!
//! - **Overhead**: arming the timeline may cost at most 3% virtual
//!   cycles per echoed record versus the disarmed control. (Recording
//!   never charges the lane clocks, so the honest expectation is a ratio
//!   of exactly 1.0 — the gate exists to catch anyone who later puts
//!   observation on the virtual-time books.)
//! - **Determinism**: the event log and the JSON snapshot are
//!   byte-identical across same-seed reruns *and* between the serial
//!   host and `.parallel(4)` — the timeline inherits the fork/absorb
//!   determinism contract of telemetry.
//!
//! Writes `BENCH_observe.json` for CI assertion. Usage:
//! `exp_observe [--quick]`.

use cio::world::{World, WorldOptions};
use cio_bench::micro::{json_array, JsonObj};
use cio_bench::{bench_opts, print_table, telemetry_echo_world_with};

/// Echo workload shape (flows, rounds, payload bytes).
fn shape(quick: bool) -> (usize, u32, usize) {
    if quick {
        (4, 8, 512)
    } else {
        (8, 24, 512)
    }
}

fn observe_opts(observe: bool, parallel: usize) -> WorldOptions {
    WorldOptions {
        queues: 4,
        telemetry: true,
        observe,
        parallel,
        ..bench_opts()
    }
}

/// Runs the echo workload and returns the finished world plus its total
/// virtual time in cycles.
fn run_echo(observe: bool, parallel: usize, quick: bool) -> (World, u64) {
    let (flows, rounds, size) = shape(quick);
    let w = telemetry_echo_world_with(observe_opts(observe, parallel), flows, rounds, size)
        .expect("E22 echo workload failed");
    let elapsed = w.clock().now().get();
    (w, elapsed)
}

/// The two exports the determinism claim compares.
fn exports(w: &World) -> (String, String) {
    (w.telemetry().event_log(), w.telemetry().json_snapshot())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (flows, rounds, size) = shape(quick);
    let records = u64::from(rounds) * flows as u64;

    // Overhead: disarmed control vs armed, identical seed and workload.
    let (_, disarmed_cycles) = run_echo(false, 0, quick);
    let (armed, armed_cycles) = run_echo(true, 0, quick);
    let overhead_ratio = armed_cycles as f64 / disarmed_cycles.max(1) as f64;
    let cycles_per_record = armed_cycles as f64 / records as f64;

    // Determinism: same-seed rerun, then the 4-thread host.
    let serial = exports(&armed);
    let (rerun, _) = run_echo(true, 0, quick);
    let rerun_ok = exports(&rerun) == serial;
    let (par, par_cycles) = run_echo(true, 4, quick);
    let parallel_ok = exports(&par) == serial;
    let exports_deterministic = rerun_ok && parallel_ok;

    let events_dropped = armed.telemetry().total_dropped();

    let rows: Vec<Vec<String>> = [
        ("disarmed", 0, disarmed_cycles),
        ("armed", 0, armed_cycles),
        ("armed", 4, par_cycles),
    ]
    .into_iter()
    .map(|(recorder, threads, cycles)| {
        vec![
            recorder.into(),
            threads.to_string(),
            cycles.to_string(),
            format!("{:.0}", cycles as f64 / records as f64),
        ]
    })
    .collect();
    print_table(
        &format!(
            "E22 — observability on {flows} flows x {rounds} rounds of {size} B \
             (virtual time, 4 queues)"
        ),
        &["recorder", "threads", "cycles", "cyc/record"],
        &rows,
    );

    println!(
        "\nReading: observation stays off the virtual-time books — the recorder \
         writes to preallocated rings, so the armed run costs {overhead_ratio:.3}x \
         the disarmed one (gate: <= 1.03x). The timeline is fork/absorbed in \
         queue order like the instruments, so the serial, rerun, and 4-thread \
         event logs and JSON snapshots are byte-identical."
    );

    assert!(
        overhead_ratio <= 1.03,
        "armed recorder cost {overhead_ratio:.4}x > 1.03x the disarmed control"
    );
    assert!(
        exports_deterministic,
        "exports diverged (rerun_ok={rerun_ok}, parallel_ok={parallel_ok})"
    );
    assert_eq!(
        events_dropped, 0,
        "flight ring overflowed on the echo workload"
    );

    let doc = JsonObj::new()
        .str("bench", "observe")
        .str("mode", if quick { "quick" } else { "full" })
        .int("flows", flows as u64)
        .int("rounds", u64::from(rounds))
        .int("size", size as u64)
        .raw(
            "runs",
            json_array([
                JsonObj::new()
                    .str("recorder", "disarmed")
                    .int("threads", 0)
                    .int("cycles", disarmed_cycles)
                    .finish(),
                JsonObj::new()
                    .str("recorder", "armed")
                    .int("threads", 0)
                    .int("cycles", armed_cycles)
                    .int("events_dropped", events_dropped)
                    .finish(),
                JsonObj::new()
                    .str("recorder", "armed")
                    .int("threads", 4)
                    .int("cycles", par_cycles)
                    .finish(),
            ]),
        )
        .raw(
            "observe",
            JsonObj::new()
                .f64("overhead_ratio", overhead_ratio)
                .f64("cycles_per_record", cycles_per_record)
                .int("exports_deterministic", u64::from(exports_deterministic))
                .int("events_dropped", events_dropped)
                .finish(),
        )
        .finish();
    std::fs::write("BENCH_observe.json", doc + "\n").expect("write BENCH_observe.json");
    println!("wrote BENCH_observe.json");
}
