//! `cio_benchmark`: one wall-clock + virtual-cycle benchmark for the cio
//! reproduction — six workloads, a per-layer ladder and a traced run.
//!
//! ```text
//! cio_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--spans-out FILE]      one workload, one pass
//! cio_benchmark run [--seed N] [--seconds S] [--out FILE]
//!                                     all six, untraced and traced, one process each
//! cio_benchmark ladder [--seconds S]  the per-layer rungs alone
//! cio_benchmark compare A B           verdict table for two result sets
//! cio_benchmark manifest              prints BENCHMARK.json
//! ```
//!
//! See README.md beside this package for the metric glossary.

mod compare;
mod json;
mod ladder;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{LayerInputs, Metric};
use spans::Site;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Pass, Plan, Workload};

/// Default `--seed`; the hold-out seed for checking claims is `0x5EED2`.
const DEFAULT_SEED: u64 = 0xC10B;
/// `run_seconds` in BENCHMARK.json, and the default `--seconds`.
const RUN_SECONDS: u64 = 10;
/// In a traced run the `--seconds` budget is split: an untraced pass for
/// the exact counters and the tracing-overhead base, the traced pass,
/// and the ladder.
const TRACED_PASS_SHARE: f64 = 0.4;
const LADDER_SHARE: f64 = 0.2;
/// Per-rung window of the standalone `ladder` sub-command, seconds.
const LADDER_RUNG_SECONDS: f64 = 0.5;
/// Where `run` collects its documents unless told otherwise.
const DEFAULT_RESULTS: &str = "cio_benchmark_results.jsonl";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `--seconds`, when given: the run budget of a workload, or the
    /// window of one rung for `ladder`.
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    spans_out: Option<String>,
    positional: Vec<String>,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => text.replace('_', "").parse(),
    };
    parsed.map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
        spans_out: None,
        positional: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--seconds" => {
                let text = value("--seconds")?;
                let seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {text:?}"))?;
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value("--out")?),
            "--spans-out" => args.spans_out = Some(value("--spans-out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout the benchmark runs from, read straight
/// from `.git` (no process spawned, nothing read outside the checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run-environment block of every document.
fn env_block(started: Instant) -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|c| c.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj()
        .with("nproc", nproc as u64)
        .with("available_parallelism", parallelism as u64)
        .with("rustc", rustc_version())
        .with("git_commit", git_commit())
        .with("cost_model_ghz", cio_sim::CostModel::default().ghz)
        .with("wall_s", started.elapsed().as_secs_f64())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("## {title}");
    for m in metrics {
        println!("{:<36} {:>20.6} {}", m.name, m.value, m.unit);
    }
}

/// Wall-clock detail of a pass beside the declared metrics: the tail (the
/// highest percentile that still has ten samples beyond it; A/A runs on a
/// shared box move it by 10-25%, so it carries no bound), the plain
/// all-slice estimators, and the per-slice series they come from.
fn wall_detail(pass: &Pass) -> Json {
    let mut sorted: Vec<f32> = pass.op_wall_ns.clone();
    sorted.sort_by(f32::total_cmp);
    let p = stats::highest_supported_percentile(sorted.len());
    let rates = pass.slice_rates();
    let series = |v: Vec<f64>| v.into_iter().map(Json::from).collect::<Vec<_>>();
    Json::obj()
        .with(
            "op_p99_ns",
            f64::from(stats::percentile_sorted(&sorted, p).unwrap_or(0.0)),
        )
        .with("tail_percentile", p)
        .with("samples", sorted.len() as u64)
        .with(
            "op_p50_ns_all_ops",
            f64::from(stats::percentile_sorted(&sorted, 0.5).unwrap_or(0.0)),
        )
        .with(
            "ops_per_s_median_slice",
            stats::ops_per_s_median_slice(&pass.slice_ops, &pass.slice_ns),
        )
        .with("slice_rate_spread", stats::iqr_share(&rates))
        .with("slice_rate", series(rates))
        .with("slice_p50_ns", series(pass.slice_p50_ns()))
}

fn span_summary(pass: &Pass) -> Json {
    let totals = pass.spans.totals();
    let mut sites = Json::obj();
    for site in Site::ALL {
        let (count, total, own) = totals[site as usize];
        if count > 0 {
            sites = sites.with(
                site.name(),
                Json::obj()
                    .with("count", count)
                    .with("total_ns", total)
                    .with("self_ns", own),
            );
        }
    }
    Json::obj()
        .with("sites", sites)
        .with("recorded", pass.spans.spans().len() as u64)
        .with("dropped", pass.spans.dropped)
}

/// Serial == parallel: the parallel host must reproduce the serial
/// schedule exactly. Checked on the first slice of the same plan.
fn check_parallel_twin(plan: &Plan, pass: &Pass, violations: &mut Vec<String>) {
    match workloads::net::serial_first_slice(plan) {
        Ok(serial) if serial == pass.first_slice => {}
        Ok((cycles, meter)) => violations.push(format!(
            "parallel host diverged from the serial schedule over the first slice: \
             cycles {} vs {cycles}, meter {:?} vs {meter:?}",
            pass.first_slice.0, pass.first_slice.1
        )),
        Err(e) => violations.push(format!("serial reference failed: {e}")),
    }
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("write {path}: {e}"))
}

/// One workload, one invocation: the untraced pass (`--trace 0`), or the
/// untraced + traced passes and the ladder (`--trace 1`).
fn drive(args: &Args, workload: Workload) -> Result<bool, String> {
    let started = Instant::now();
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut violations = Vec::new();
    let (metrics, pass, traced) = if args.trace {
        let plan = Plan::new(workload, args.seed, seconds * TRACED_PASS_SHARE);
        let untraced = workloads::run(&plan, false)?;
        let traced = workloads::run(&plan.traced(), true)?;
        let rung_ns = seconds * LADDER_SHARE * 1e9 / ladder::RUNGS.len() as f64;
        let rungs = ladder::run_all(rung_ns as u64);
        let metrics = metrics::per_layer(&LayerInputs {
            workload,
            untraced: &untraced,
            traced: &traced,
            rungs: &rungs,
        });
        violations.extend(traced.violations.iter().cloned());
        if traced.failed > 0 {
            violations.push(format!("{} ops failed in the traced pass", traced.failed));
        }
        if traced.spans.dropped > 0 {
            violations.push(format!("span log dropped {} spans", traced.spans.dropped));
        }
        (metrics, untraced, Some(traced))
    } else {
        let plan = Plan::new(workload, args.seed, seconds);
        let pass = workloads::run(&plan, false)?;
        let rss = peak_rss_mib();
        if workload == Workload::NetBulk16kPar {
            check_parallel_twin(&plan, &pass, &mut violations);
        }
        (metrics::end_to_end(&pass, rss), pass, None)
    };
    violations.extend(pass.violations.iter().cloned());
    let correct = pass.failed == 0 && violations.is_empty();

    println!(
        "# {} ({}; seed {:#x}; {} ops; {})",
        workload.name(),
        workload.op_unit(),
        args.seed,
        pass.ops,
        if args.trace {
            "traced run"
        } else {
            "untraced run"
        }
    );
    print_metrics(
        if args.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &metrics,
    );
    let failed_share = pass.failed as f64 / pass.ops.max(1) as f64;
    println!("{:<36} {:>20.6} share", "failed_ops_share", failed_share);
    let tail = wall_detail(&pass);
    println!(
        "{:<36} {:>20.6} ns (p{} of {} samples)",
        "wall.op_p99_ns",
        tail.get("op_p99_ns").and_then(Json::as_f64).unwrap_or(0.0),
        tail.get("tail_percentile")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            * 100.0,
        pass.op_wall_ns.len()
    );
    for v in &violations {
        println!("VIOLATION: {v}");
    }

    let mut doc = Json::obj()
        .with("schema", "cio_benchmark/1")
        .with("workload", workload.name())
        .with("why", workload.why())
        .with("op", workload.op_unit())
        .with("seed", args.seed)
        .with("seconds", seconds)
        .with("trace", u64::from(args.trace))
        .with("ops", pass.ops)
        .with("failed", pass.failed)
        .with("failed_ops_share", failed_share)
        .with("correct", correct)
        .with(
            "violations",
            violations
                .iter()
                .map(|v| Json::from(v.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics::to_json(&metrics))
        .with("wall", tail)
        .with(
            "setup_s_samples",
            pass.setup_s
                .iter()
                .map(|&s| Json::from(s))
                .collect::<Vec<_>>(),
        );
    if let Some(traced) = &traced {
        doc = doc
            .with("traced_ops", traced.ops)
            .with("spans", span_summary(traced));
        if let Some(path) = &args.spans_out {
            std::fs::write(path, traced.spans.to_json())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    doc = doc.with("env", env_block(started));
    if let Some(path) = &args.out {
        append_line(path, &doc.render())?;
    }

    // The result line the driver reads: last on stdout.
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", pass.ops.max(1))
        .with("failed", pass.failed)
        .with("metrics", metrics::to_json(&metrics));
    println!("{}", result.render());
    Ok(correct)
}

/// Every workload, untraced then traced, each in its own process so that
/// `peak_rss_mib` is per workload; then the cross-workload check.
fn run_all(args: &Args) -> Result<bool, String> {
    let out = args.out.clone().unwrap_or_else(|| DEFAULT_RESULTS.into());
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let first_line = std::fs::read_to_string(&out).map_or(0, |t| t.lines().count());
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--out", &out])
                .status()
                .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
            ok &= status.success();
            println!();
        }
    }

    // Serial == parallel over the whole run: same virtual time, same
    // tail, same counters (the documents were appended in order).
    let text = std::fs::read_to_string(&out).map_err(|e| format!("read {out}: {e}"))?;
    let docs: Vec<Json> = text
        .lines()
        .skip(first_line)
        .filter_map(|l| Json::parse(l).ok())
        .collect();
    let metric = |w: Workload, trace: f64, name: &str| {
        docs.iter()
            .find(|d| {
                d.get("workload").and_then(Json::as_str) == Some(w.name())
                    && d.get("trace").and_then(Json::as_f64) == Some(trace)
            })
            .and_then(|d| d.get("metrics")?.get(name)?.get("value")?.as_f64())
    };
    let mut twins = vec![
        (0.0, "cycles_per_op".to_string()),
        (0.0, "op_p99_cycles".into()),
    ];
    twins.extend(
        metrics::per_layer_declared()
            .into_iter()
            .filter(|m| m.unit == "count" || m.unit == "B" || m.unit == "share")
            .filter(|m| !m.name.starts_with("stage.") && !m.name.ends_with("unattributed_share"))
            .map(|m| (1.0, m.name)),
    );
    for (trace, name) in twins {
        let serial = metric(Workload::NetBulk16k, trace, &name);
        let parallel = metric(Workload::NetBulk16kPar, trace, &name);
        if serial != parallel {
            println!(
                "VIOLATION: net_bulk_16k_par {name} = {parallel:?}, net_bulk_16k = {serial:?}"
            );
            ok = false;
        }
    }
    println!(
        "{} documents appended to {out}; serial == parallel {}",
        docs.len(),
        if ok {
            "holds"
        } else {
            "FAILED (or a run failed)"
        }
    );
    Ok(ok)
}

fn run_ladder(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(LADDER_RUNG_SECONDS);
    let ghz = cio_sim::CostModel::default().ghz;
    println!(
        "{:<26} {:>14} {:>14} {:>12}",
        "rung", "ns/unit", "cycles/unit", "model_ratio"
    );
    let mut doc = Json::obj();
    for r in ladder::run_all((seconds * 1e9) as u64) {
        let ratio = r.cycles.map(|c| r.ns / (c / ghz));
        println!(
            "{:<26} {:>14.3} {:>14} {:>12}",
            r.name,
            r.ns,
            r.cycles.map_or("-".into(), |c| format!("{c:.2}")),
            ratio.map_or("-".into(), |x| format!("{x:.4}")),
        );
        doc = doc.with(
            r.name,
            Json::obj()
                .with("ns", r.ns)
                .with("cycles", r.cycles.map_or(Json::Null, Json::from))
                .with("model_ratio", ratio.map_or(Json::Null, Json::from)),
        );
    }
    println!("{}", Json::obj().with("ladder", doc).render());
    Ok(true)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: cio_benchmark compare A.jsonl B.jsonl".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| compare::RunSet::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(!compare::report(&load(a)?, &load(b)?))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let command = args.positional.first().map(String::as_str);
    match command {
        Some("compare") => return run_compare(args),
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS).render_pretty());
            return Ok(true);
        }
        Some("run" | "ladder") | None => {}
        Some(other) => return Err(format!("unknown sub-command {other:?}")),
    }
    // Everything from here on takes timings.
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a build with debug assertions: use `cargo run --release`".into(),
        );
    }
    match (command, &args.workload) {
        (Some("ladder"), _) => run_ladder(args),
        (Some(_), _) => run_all(args),
        (None, Some(name)) => {
            let workload = Workload::from_name(name).ok_or_else(|| {
                let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })?;
            drive(args, workload)
        }
        (None, None) => Err(
            "nothing to do: pass --workload NAME, or one of run | ladder | compare | manifest"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cio_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "kv_ingest",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv_ingest"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert_eq!(args(&["--seed", "0x5EED2"]).unwrap().seed, 0x5EED2);
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        assert_eq!(args(&[]).unwrap().seconds, None);
        assert_eq!(args(&["compare", "a", "b"]).unwrap().positional.len(), 3);
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// A 1/200-scale pass of all six workloads, untraced and traced:
    /// every op verifies, every declared metric is emitted by name, and
    /// the virtual-time numbers repeat exactly.
    #[test]
    fn small_scale_pass_of_every_workload_completes_and_verifies() {
        let rungs = ladder::run_all(10_000);
        let declared: Vec<String> = metrics::per_layer_declared()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for workload in Workload::ALL {
            let plan = Plan::new(workload, DEFAULT_SEED, RUN_SECONDS as f64 / 200.0);
            let untraced = workloads::run(&plan, false).expect("untraced pass");
            let traced = workloads::run(&plan.traced(), true).expect("traced pass");
            for pass in [&untraced, &traced] {
                assert!(pass.ops > 0, "{}", workload.name());
                assert_eq!(pass.failed, 0, "{}", workload.name());
                assert_eq!(pass.violations, Vec::<String>::new(), "{}", workload.name());
                assert_eq!(pass.slice_ns.len() as u64, plan.slices);
            }
            assert_eq!(traced.spans.dropped, 0, "{}", workload.name());
            assert!(!traced.spans.spans().is_empty());
            // Telemetry and spans must not perturb the simulation.
            assert_eq!(untraced.cycles, traced.cycles, "{}", workload.name());
            assert_eq!(untraced.meter, traced.meter, "{}", workload.name());

            let e2e = metrics::end_to_end(&untraced, peak_rss_mib());
            assert_eq!(e2e.len(), metrics::END_TO_END.len());
            for m in &e2e {
                assert!(
                    m.value > 0.0,
                    "{} {} is {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
            let layers = metrics::per_layer(&LayerInputs {
                workload,
                untraced: &untraced,
                traced: &traced,
                rungs: &rungs,
            });
            let emitted = metrics::to_json(&layers);
            for name in &declared {
                let value = emitted.get(name).and_then(|m| m.get("value"));
                assert!(
                    value.and_then(Json::as_f64).is_some(),
                    "{}: {name} missing from the emitted JSON",
                    workload.name()
                );
            }
            assert_eq!(layers.len(), declared.len());
            let share: f64 = layers
                .iter()
                .filter(|m| m.name.starts_with("stage."))
                .map(|m| m.value)
                .sum();
            assert!(
                (share - 1.0).abs() < 0.02,
                "{} stages sum to {share}",
                workload.name()
            );

            // Same seed, same plan: bit-identical virtual time.
            let again = workloads::run(&plan, false).expect("repeat pass");
            assert_eq!(again.cycles, untraced.cycles, "{}", workload.name());
            assert_eq!(again.op_p99_cycles, untraced.op_p99_cycles);
            assert_eq!(again.meter, untraced.meter, "{}", workload.name());
        }
        // Serial == parallel on the same plan.
        let plan = Plan::new(Workload::NetBulk16kPar, DEFAULT_SEED, 0.05);
        let par = workloads::run(&plan, false).unwrap();
        assert_eq!(
            workloads::net::serial_first_slice(&plan).unwrap(),
            par.first_slice
        );
    }
}
