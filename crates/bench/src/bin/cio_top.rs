//! E17 — `cio-top`: cycle attribution across the dual-boundary dataplane.
//!
//! Runs the flow-steered echo workload on the cio-ring design with the
//! deterministic telemetry layer enabled, then prints where every virtual
//! cycle went: the per-stage/per-queue attribution table, per-queue RTT
//! histograms, per-stage residency, and ring batch-size distributions.
//! Everything derives from the shared virtual clock, so two runs with the
//! same arguments print byte-identical output.
//!
//! Usage: `cio_top [--quick] [--prom] [--json] [--trace <path>]`
//! `--prom` / `--json` additionally dump the raw exporter payloads;
//! `--trace <path>` writes the telemetry domain's merged Chrome-trace
//! JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev>).

use cio::world::WorldOptions;
use cio_bench::{bench_opts, fmt_cycles, print_table, telemetry_echo_world_with};
use cio_sim::{Histogram, Stage};

const QUEUES: usize = 4;

fn hist_row(label: String, h: &Histogram) -> Vec<String> {
    vec![
        label,
        h.count().to_string(),
        h.p50().to_string(),
        h.p95().to_string(),
        h.p99().to_string(),
        h.max().to_string(),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let want_prom = args.iter().any(|a| a == "--prom");
    let want_json = args.iter().any(|a| a == "--json");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    let (flows, rounds, size) = if quick { (8, 12, 512) } else { (16, 64, 1024) };

    let opts = WorldOptions {
        queues: QUEUES,
        telemetry: true,
        observe: true,
        ..bench_opts()
    };
    let w = telemetry_echo_world_with(opts, flows, rounds, size).expect("E17 workload failed");
    let tel = w.telemetry();
    let profile = tel.profile();

    println!(
        "## E17 — cio-top: cycle attribution ({QUEUES} queues, {flows} flows, \
         {rounds} x {size} B echo, virtual time)\n"
    );
    print!("{}", profile.render_table());
    println!(
        "\ncovered: {} cycles across {} queues, span overflows: {}",
        fmt_cycles(profile.covered()),
        profile.queues(),
        profile.overflows()
    );

    let rtt_rows: Vec<Vec<String>> = (0..QUEUES)
        .map(|q| hist_row(format!("q{q}"), &tel.rtt_histogram(q)))
        .collect();
    print_table(
        "per-queue echo RTT (cycles)",
        &["queue", "count", "p50", "p95", "p99", "max"],
        &rtt_rows,
    );

    let batch_rows: Vec<Vec<String>> = (0..QUEUES)
        .map(|q| hist_row(format!("q{q}"), &tel.batch_histogram(q)))
        .collect();
    print_table(
        "per-queue ring batch sizes (frames)",
        &["queue", "count", "p50", "p95", "p99", "max"],
        &batch_rows,
    );

    let res_rows: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|&s| (s, tel.residency_histogram(s)))
        .filter(|(_, h)| h.count() > 0)
        .map(|(s, h)| hist_row(s.name().to_string(), &h))
        .collect();
    print_table(
        "per-stage span residency (cycles)",
        &["stage", "spans", "p50", "p95", "p99", "max"],
        &res_rows,
    );

    // Acceptance: stage self-times partition the covered virtual time, so
    // the per-stage fractions must sum to 100% within 1%.
    let frac_sum: f64 = Stage::ALL.iter().map(|&s| profile.fraction(s)).sum();
    println!(
        "\nstage fraction sum: {:.4} (target: 1.0 +- 0.01)",
        frac_sum
    );
    assert!(
        (frac_sum - 1.0).abs() <= 0.01,
        "stage fractions do not partition covered time: {frac_sum:.4}"
    );
    let attributed = profile.total_cycles();
    let covered = profile.covered().get();
    assert!(
        attributed.abs_diff(covered) <= covered / 100 + 1,
        "attributed {attributed} vs covered {covered} diverge by >1%"
    );
    assert_eq!(profile.overflows(), 0, "span stack overflowed");

    println!(
        "\nReading: host.service + ring consume/produce is the host-side cost \
         of the dual boundary; tx.seal/rx.open + crypto is the cTLS tax the \
         guest pays for confidentiality; idle is rounds that moved nothing \
         waiting for the link's next delivery. All numbers fold deterministically out of the \
         virtual clock — rerunning this binary reproduces them exactly."
    );

    println!("\nflight events dropped: {}", w.telemetry().total_dropped());

    if let Some(path) = trace_path {
        let doc = w.chrome_trace();
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote Chrome trace to {path}");
    }
    if want_prom {
        println!("\n--- prometheus ---");
        print!("{}", tel.prometheus_text());
    }
    if want_json {
        println!("\n--- json ---");
        println!("{}", tel.json_snapshot());
    }
}
