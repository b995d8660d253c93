//! §3.2's conclusions as regions of cost space (EXPERIMENTS E5–E9, E12,
//! E13, E15): every row of [`cio_bench::regions::ROWS`] over the full grid
//! of its cost axes.
//!
//! Per conclusion: the default-model cells (once per scenario), the
//! verdict there, the share of grid points where the reading holds, and
//! where the verdict flips along each axis with the other axes at default.
//! Every reading is recorded as holding at the default model, so the
//! binary exits non-zero if one does not. Takes no arguments; the output
//! is deterministic.

use cio_bench::regions::{fmt_value, grid_point, Axis, Values, ROWS};
use cio_bench::{bench_opts, fmt_cycles};
use cio_sim::Cycles;

/// Every combination of levels of `axes`, the last axis fastest.
fn grid(axes: &[Axis]) -> Vec<Vec<usize>> {
    let mut points = vec![vec![]];
    for a in axes {
        let levels = 0..a.levels.len();
        points = points
            .iter()
            .flat_map(|p| levels.clone().map(move |l| [p.as_slice(), &[l]].concat()))
            .collect();
    }
    points
}

fn verdict(holds: bool) -> &'static str {
    ["FAILS", "holds"][usize::from(holds)]
}

fn main() {
    println!("# §3.2's conclusions as regions of cost space");
    println!(
        "(notify_host moves with vm_exit_roundtrip, page_share with page_unshare; \
         tee_kind 0 is a confidential VM, 1 an enclave)"
    );
    let mut shown: Option<Values> = None;
    let mut failed = Vec::new();
    for row in ROWS {
        println!("\n## {} — {}\n", row.id, row.reading);
        let values = (row.scenario)(&bench_opts());
        let at_default = (row.holds)(&values);
        if shown.as_ref() == Some(&values) {
            println!("default model: as above");
        } else {
            println!("default model:");
            let w = values.0.iter().map(|c| c.0.len()).max().unwrap_or(0);
            for (name, x) in &values.0 {
                println!("  {name:<w$}  {}", fmt_value(*x));
            }
            shown = Some(values);
        }
        println!("verdict at default: {}", verdict(at_default));
        if !at_default {
            failed.push(row.id);
        }

        let holds = |l: &[usize]| (row.holds)(&(row.scenario)(&grid_point(row.axes, l)));
        let points: Vec<_> = grid(row.axes).into_iter().map(|l| (holds(&l), l)).collect();
        let held = points.iter().filter(|p| p.0).count();
        let pct = 100.0 * held as f64 / points.len() as f64;
        let share = format!("{held}/{} ({pct:.0}%)", points.len());
        let names: Vec<_> = row.axes.iter().map(|a| a.name).collect();
        println!("grid {}: holds at {share} points", names.join(" x "));
        println!("flip boundary, other axes at default:");
        let defaults: Vec<usize> = row.axes.iter().map(Axis::default_level).collect();
        for (i, axis) in row.axes.iter().enumerate() {
            let on_line = |l: &[usize]| (0..l.len()).all(|j| j == i || l[j] == defaults[j]);
            let line: Vec<_> = points.iter().filter(|p| on_line(&p.1)).collect();
            let label = |k: usize| fmt_cycles(Cycles(axis.levels[line[k].1[i]]));
            let (mut marks, mut flips) = (Vec::new(), Vec::new());
            for (k, &(holds, _)) in line.iter().enumerate() {
                marks.push(format!("{} {}", label(k), verdict(*holds)));
                if k > 0 && line[k - 1].0 != *holds {
                    flips.push(format!("flips {}→{}", label(k - 1), label(k)));
                }
            }
            if flips.is_empty() {
                flips.push("no flip".to_string());
            }
            let (marks, flips) = (marks.join(", "), flips.join(", "));
            println!("  {:<22} {marks}: {flips}", axis.name);
        }
    }

    if !failed.is_empty() {
        eprintln!("readings that no longer hold at the default model: {failed:?}");
        std::process::exit(1);
    }
}
