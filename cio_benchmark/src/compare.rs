//! `cio_benchmark compare A B`: applies the end-to-end bounds to two sets
//! of runs and names each metric x workload `improved`, `unchanged`,
//! `regressed` or `unresolved`, one row per workload.
//!
//! A and B are JSON-lines files as written by `--out` (one document per
//! run; any number of runs, seeds and workloads). Only untraced runs
//! carry end-to-end metrics; traced documents are ignored here.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no worse than
    /// the bound" cannot be told from noise.
    Unresolved,
    /// One side has no runs of this workload.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One run's value of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub seed: u64,
    pub value: f64,
}

/// Wall-clock metrics: medians against the bound, with the spread rule.
fn judge_noisy(d: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let worse = d.better.worse_by(median(a), median(b));
    let every_b_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| d.better.worse_by(x, y) < 0.0));
    let verdict = if every_b_better {
        Verdict::Improved
    } else if worse > d.bound {
        Verdict::Regressed
    } else if iqr_share(a).max(iqr_share(b)) > d.bound {
        Verdict::Unresolved
    } else if worse < -d.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// Virtual-time metrics repeat exactly for one seed: runs of one side
/// that disagree with each other are themselves a finding, and the two
/// sides compare seed by seed.
fn judge_exact(d: &EndToEnd, a: &[Sample], b: &[Sample]) -> (Verdict, f64) {
    let consistent = |side: &[Sample]| {
        side.iter()
            .all(|s| side.iter().all(|o| o.seed != s.seed || o.value == s.value))
    };
    if !consistent(a) || !consistent(b) {
        return (Verdict::Unresolved, f64::NAN);
    }
    let mut worst = 0.0f64;
    let mut best = 0.0f64;
    let mut shared = 0;
    for s in a {
        if let Some(o) = b.iter().find(|o| o.seed == s.seed) {
            let w = d.better.worse_by(s.value, o.value);
            worst = worst.max(w);
            best = best.min(w);
            shared += 1;
        }
    }
    if shared == 0 {
        // No seed in common: fall back to medians, without a spread rule
        // (there is no run-to-run noise to speak of).
        let va: Vec<f64> = a.iter().map(|s| s.value).collect();
        let vb: Vec<f64> = b.iter().map(|s| s.value).collect();
        worst = d.better.worse_by(median(&va), median(&vb));
        best = worst;
    }
    let verdict = if worst > d.bound {
        Verdict::Regressed
    } else if best < -d.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, if worst > 0.0 { worst } else { best })
}

pub fn judge(d: &EndToEnd, a: &[Sample], b: &[Sample]) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, f64::NAN);
    }
    if d.deterministic {
        judge_exact(d, a, b)
    } else {
        let va: Vec<f64> = a.iter().map(|s| s.value).collect();
        let vb: Vec<f64> = b.iter().map(|s| s.value).collect();
        judge_noisy(d, &va, &vb)
    }
}

/// A parsed result set: per workload and metric, the samples; plus ops
/// failed per workload.
pub struct RunSet {
    docs: Vec<Json>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut docs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            docs.push(Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(RunSet { docs })
    }

    fn untraced(&self, workload: Workload) -> impl Iterator<Item = &Json> {
        self.docs.iter().filter(move |d| {
            d.get("workload").and_then(Json::as_str) == Some(workload.name())
                && d.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
    }

    pub fn samples(&self, workload: Workload, metric: &str) -> Vec<Sample> {
        self.untraced(workload)
            .filter_map(|d| {
                let value = d.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
                let seed = d.get("seed")?.as_f64()? as u64;
                Some(Sample { seed, value })
            })
            .collect()
    }

    /// Failed ops over attempted ops, summed over the workload's runs.
    pub fn failed_share(&self, workload: Workload) -> f64 {
        let (mut failed, mut ops) = (0.0, 0.0);
        for d in self.untraced(workload) {
            failed += d.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            ops += d.get("ops").and_then(Json::as_f64).unwrap_or(0.0);
        }
        if ops == 0.0 {
            0.0
        } else {
            failed / ops
        }
    }
}

/// Prints the verdict table; returns whether anything regressed.
pub fn report(a: &RunSet, b: &RunSet) -> bool {
    let mut regressed = false;
    print!("{:<18}", "workload");
    for d in &END_TO_END {
        print!(" {:<22}", d.name);
    }
    println!(" {:<22}", "failed_ops_share");
    for w in Workload::ALL {
        print!("{:<18}", w.name());
        for d in &END_TO_END {
            let (verdict, worse) = judge(d, &a.samples(w, d.name), &b.samples(w, d.name));
            regressed |= verdict == Verdict::Regressed;
            let cell = if worse.is_finite() {
                // Signed so that "+" always reads "worse".
                format!("{} ({:+.2}%)", verdict.name(), worse * 100.0)
            } else {
                verdict.name().to_string()
            };
            print!(" {cell:<22}");
        }
        // Any increase in failures is a regression: no bound applies.
        let (fa, fb) = (a.failed_share(w), b.failed_share(w));
        let verdict = if fb > fa {
            regressed = true;
            Verdict::Regressed
        } else if fb < fa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        println!(" {} ({fa:.6} -> {fb:.6})", verdict.name());
    }
    println!(
        "\nbounds: {}; deterministic metrics compare seed by seed; \
         'unresolved' = spread (IQR/median) wider than the bound",
        END_TO_END
            .iter()
            .map(|d| format!("{} {}%", d.name, d.bound * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    const NOISY: EndToEnd = EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.05,
        deterministic: false,
    };
    const EXACT: EndToEnd = EndToEnd {
        name: "cycles_per_op",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.001,
        deterministic: true,
    };

    fn runs(values: &[f64]) -> Vec<Sample> {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| Sample {
                seed: i as u64,
                value,
            })
            .collect()
    }

    #[test]
    fn noisy_metrics_follow_the_bound_and_the_spread_rule() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(judge(&NOISY, &base, &base).0, Verdict::Unchanged);
        let slower = runs(&[108.0, 109.0, 107.0, 108.5, 107.5]);
        assert_eq!(judge(&NOISY, &base, &slower).0, Verdict::Regressed);
        // Every run better than every parent run: improved, however small.
        let faster = runs(&[98.0, 98.5, 98.2, 98.7, 98.9]);
        assert_eq!(judge(&NOISY, &base, &faster).0, Verdict::Improved);
        // Spread wider than the bound and overlapping: cannot tell.
        let wide = runs(&[90.0, 110.0, 100.0, 95.0, 105.0]);
        assert_eq!(judge(&NOISY, &base, &wide).0, Verdict::Unresolved);
        assert_eq!(judge(&NOISY, &base, &[]).0, Verdict::Missing);
    }

    #[test]
    fn deterministic_metrics_compare_seed_by_seed() {
        let a = runs(&[17_440.59, 17_440.59 + 3.0]);
        assert_eq!(judge(&EXACT, &a, &a.clone()).0, Verdict::Unchanged);
        // One seed got 1% worse: regressed even though the other is equal.
        let mut b = a.clone();
        b[1].value *= 1.01;
        assert_eq!(judge(&EXACT, &a, &b).0, Verdict::Regressed);
        b[1].value = a[1].value * 0.9;
        assert_eq!(judge(&EXACT, &a, &b).0, Verdict::Improved);
        // Two runs of one seed that disagree: the claim "deterministic"
        // itself failed.
        let mut twice = a.clone();
        twice.push(Sample {
            seed: 0,
            value: 1.0,
        });
        assert_eq!(judge(&EXACT, &twice, &a).0, Verdict::Unresolved);
    }

    #[test]
    fn run_sets_parse_and_filter() {
        let text = concat!(
            "{\"workload\": \"kv_ingest\", \"seed\": 7, \"trace\": 0, \"ops\": 100, \"failed\": 1, ",
            "\"metrics\": {\"op_p50_ns\": {\"value\": 3300.5, \"unit\": \"ns\"}}}\n",
            "\n",
            "{\"workload\": \"kv_ingest\", \"seed\": 7, \"trace\": 1, \"ops\": 100, \"failed\": 0, ",
            "\"metrics\": {\"op_p50_ns\": {\"value\": 1.0, \"unit\": \"ns\"}}}\n",
        );
        let set = RunSet::parse(text).unwrap();
        assert_eq!(
            set.samples(Workload::KvIngest, "op_p50_ns"),
            vec![Sample {
                seed: 7,
                value: 3300.5
            }]
        );
        assert!(set.samples(Workload::KvLookup, "op_p50_ns").is_empty());
        assert_eq!(set.failed_share(Workload::KvIngest), 0.01);
        assert!(RunSet::parse("{not json").is_err());
    }
}
