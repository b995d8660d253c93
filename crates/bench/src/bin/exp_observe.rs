//! E22 — observability overhead, determinism, and forensic integrity.
//!
//! Three claims about the event timeline / audit chain / SLO watchdog
//! stack, measured on the E17 telemetry echo workload:
//!
//! - **Overhead**: arming the recorder and watchdog may cost at most 3%
//!   virtual cycles per echoed record versus the disarmed control. (The
//!   recorder never charges the lane clocks, so the honest expectation
//!   is a ratio of exactly 1.0 — the gate exists to catch anyone who
//!   later puts observation on the virtual-time books.)
//! - **Determinism**: the event log, the Chrome-trace export, and the
//!   audit log are byte-identical across same-seed reruns *and* between
//!   the serial host and `.parallel(4)` — observability inherits the
//!   fork/absorb determinism contract of telemetry.
//! - **Forensics**: the hash-chained audit stream verifies end to end on
//!   every armed world, every adversary-matrix verdict lands in the
//!   chain, and a single mutated record is pinpointed by link index.
//!
//! Writes `BENCH_observe.json` for CI assertion. Usage:
//! `exp_observe [--quick]`.

use cio::attacks::{attack_opts, audit_chain_tamper, run_matrix};
use cio::world::{BoundaryKind, World, WorldOptions};
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
    let serial_events = armed.telemetry().event_log();
    let serial_trace = armed.chrome_trace();
    let serial_audit = armed.telemetry().audit_log();
    let (rerun, _) = run_echo(true, 0, quick);
    let rerun_ok = rerun.telemetry().event_log() == serial_events
        && rerun.chrome_trace() == serial_trace
        && rerun.telemetry().audit_log() == serial_audit;
    let (par, par_cycles) = run_echo(true, 4, quick);
    let parallel_ok = par.telemetry().event_log() == serial_events
        && par.chrome_trace() == serial_trace
        && par.telemetry().audit_log() == serial_audit;
    let exports_deterministic = rerun_ok && parallel_ok;

    // Forensics: chains verify on both hosts, the adversary matrix seals
    // every verdict, and tampering is pinpointed.
    let chains_verify =
        armed.telemetry().verify_audit().is_ok() && par.telemetry().verify_audit().is_ok();
    let reports = run_matrix(&[BoundaryKind::L2CioRing], &attack_opts())
        .expect("E22 adversary matrix failed");
    let verdicts_sealed = reports.iter().all(|r| r.audit_ok);
    let tamper = audit_chain_tamper().expect("E22 tamper scenario failed");
    let audit_chain_ok =
        chains_verify && verdicts_sealed && tamper.clean_ok && tamper.flagged_exact;

    let slo_breaches = armed.meter().snapshot().slo_breaches;
    let events_dropped = armed.telemetry().total_dropped();

    let rows = vec![
        vec![
            "disarmed".into(),
            "0".into(),
            disarmed_cycles.to_string(),
            format!("{:.0}", disarmed_cycles as f64 / records as f64),
            "-".into(),
            "-".into(),
        ],
        vec![
            "armed".into(),
            "0".into(),
            armed_cycles.to_string(),
            format!("{cycles_per_record:.0}"),
            armed.telemetry().audit_records().len().to_string(),
            slo_breaches.to_string(),
        ],
        vec![
            "armed".into(),
            "4".into(),
            par_cycles.to_string(),
            format!("{:.0}", par_cycles as f64 / records as f64),
            par.telemetry().audit_records().len().to_string(),
            par.meter().snapshot().slo_breaches.to_string(),
        ],
    ];
    print_table(
        &format!(
            "E22 — observability on {flows} flows x {rounds} rounds of {size} B \
             (virtual time, 4 queues)"
        ),
        &[
            "recorder",
            "threads",
            "cycles",
            "cyc/record",
            "audit links",
            "slo breaches",
        ],
        &rows,
    );

    println!(
        "\nReading: observation stays off the virtual-time books — the recorder \
         writes to preallocated rings and the watchdog reads histograms the \
         dataplane already maintains, so the armed run costs {overhead_ratio:.3}x \
         the disarmed one (gate: <= 1.03x). The exports are fork/absorbed in \
         queue order like telemetry, so serial, rerun, and 4-thread logs are \
         byte-identical; the audit chain over {} security events verifies on \
         both hosts and a single mutated link is named by index ({}/{}).",
        armed.telemetry().audit_records().len(),
        tamper.tampered_link,
        tamper.chain_len,
    );

    assert!(
        overhead_ratio <= 1.03,
        "armed recorder cost {overhead_ratio:.4}x > 1.03x the disarmed control"
    );
    assert!(
        exports_deterministic,
        "exports diverged (rerun_ok={rerun_ok}, parallel_ok={parallel_ok})"
    );
    assert!(
        audit_chain_ok,
        "audit chain failed (verify={chains_verify}, sealed={verdicts_sealed}, tamper={tamper:?})"
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
                    .int(
                        "audit_links",
                        armed.telemetry().audit_records().len() as u64,
                    )
                    .int("slo_breaches", slo_breaches)
                    .int("events_dropped", events_dropped)
                    .finish(),
                JsonObj::new()
                    .str("recorder", "armed")
                    .int("threads", 4)
                    .int("cycles", par_cycles)
                    .int("audit_links", par.telemetry().audit_records().len() as u64)
                    .finish(),
            ]),
        )
        .raw(
            "observe",
            JsonObj::new()
                .f64("overhead_ratio", overhead_ratio)
                .f64("cycles_per_record", cycles_per_record)
                .int("exports_deterministic", u64::from(exports_deterministic))
                .int("audit_chain_ok", u64::from(audit_chain_ok))
                .int("verdicts_sealed", u64::from(verdicts_sealed))
                .int("tamper_chain_len", tamper.chain_len as u64)
                .int("tamper_flagged_link", tamper.tampered_link as u64)
                .int("slo_breaches", slo_breaches)
                .int("events_dropped", events_dropped)
                .finish(),
        )
        .finish();
    std::fs::write("BENCH_observe.json", doc + "\n").expect("write BENCH_observe.json");
    println!("wrote BENCH_observe.json");
}
