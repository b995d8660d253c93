//! The declared metrics: names, units, directions and bounds, and how
//! each value is computed from a pass. `BENCHMARK.json` is generated from
//! these tables (`cio_benchmark manifest`), so the file and the code
//! cannot drift.

use crate::json::Json;
use crate::ladder::Rung;
use crate::spans::Site;
use crate::stats::{median, second_best};
use crate::workloads::{Pass, Workload};
use cio_sim::{CostModel, Stage};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` `new` is worse (negative when better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// An end-to-end metric's declaration.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Virtual-time metrics repeat exactly for one seed, so `compare`
    /// holds them to equality instead of the bound.
    pub deterministic: bool,
}

/// What a user of the system would see, per workload, tracing off.
///
/// `failed_ops_share` is reported beside these (and as `failed` /
/// `attempted` in the result line) but is not declared here: it is 0 on
/// every workload, and any increase fails the run outright.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        deterministic: false,
    },
    EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.15,
        deterministic: false,
    },
    EndToEnd {
        name: "cycles_per_op",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.025,
        deterministic: true,
    },
    EndToEnd {
        name: "op_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.02,
        deterministic: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        deterministic: false,
    },
];

/// Sim-metered ladder rungs: each gets a `<rung>.model_ratio`.
pub const MODEL_RATIO_RUNGS: [&str; 11] = [
    "ctls.record_64",
    "ctls.record_1k",
    "ctls.handshake",
    "vring.ring_64",
    "vring.ring_1k",
    "vring.pipeline_b1",
    "vring.pipeline_b8",
    "block.crypt_write_run",
    "block.crypt_read_run",
    "block.ring_write_run",
    "block.ring_read_run",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Throughput and median latency are read from the second-least
/// disturbed of the pass's slices (see [`second_best`]).
fn ops_per_s(pass: &Pass) -> f64 {
    second_best(&pass.slice_rates(), true)
}

fn op_p50_ns(pass: &Pass) -> f64 {
    second_best(&pass.slice_p50_ns(), false)
}

/// Mean wall ns per op. Per-op counters are means, so the ladder
/// reconciles against a mean, not the median (which on `kv_ingest` sits
/// on the memtable-append path and never sees a flush).
fn op_mean_ns(pass: &Pass) -> f64 {
    ratio(1e9, ops_per_s(pass))
}

/// Wall ns a modelled cycle count stands for at the cost model's clock.
fn model_ns(cycles: f64) -> f64 {
    cycles / CostModel::default().ghz
}

/// The end-to-end values of an untraced pass, in [`END_TO_END`] order.
pub fn end_to_end(pass: &Pass, peak_rss_mib: f64) -> Vec<Metric> {
    let values = [
        ops_per_s(pass),
        op_p50_ns(pass),
        ratio(pass.cycles as f64, pass.ops as f64),
        pass.op_p99_cycles as f64,
        median(&pass.setup_s),
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name.to_string(),
            unit: d.unit,
            better: d.better,
            value,
        })
        .collect()
}

/// Inputs of the per-layer report: the untraced pass (exact counters),
/// the traced pass (spans, stage shares) and the ladder.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub untraced: &'a Pass,
    pub traced: &'a Pass,
    pub rungs: &'a [Rung],
}

struct Builder(Vec<Metric>);

impl Builder {
    fn push(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }
    fn lower(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, Better::Lower, value);
    }
    fn higher(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, Better::Higher, value);
    }
}

/// Linear cost model through the 64 B and 1 KiB rungs of one layer,
/// evaluated at `size` bytes.
fn at_size(ns_64: f64, ns_1k: f64, size: f64) -> f64 {
    let per_byte = (ns_1k - ns_64) / (1024.0 - 64.0);
    (ns_64 + per_byte * (size - 64.0)).max(0.0)
}

/// Every per-layer metric, for every workload (a metric that does not
/// apply to the workload reads 0). The layer a metric belongs to is its
/// name's prefix; README.md says which end-to-end metric each should
/// move, and on which workload.
pub fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let (u, t) = (inp.untraced, inp.traced);
    let m = &u.meter;
    let x = &u.extra;
    let n = u.ops as f64;
    let per_op = |count: u64| ratio(count as f64, n);
    let rung = |name: &str| {
        inp.rungs
            .iter()
            .find(|r| r.name == name)
            .copied()
            .unwrap_or(Rung {
                name: "",
                ns: 0.0,
                cycles: None,
            })
    };
    let span_totals = t.spans.totals();
    // Mean ns per call of a wrapped site in the traced pass.
    let per_call = |site: Site| {
        let (count, total, _) = span_totals[site as usize];
        ratio(total as f64, count as f64)
    };
    let is_net = matches!(
        inp.workload,
        Workload::NetRr64 | Workload::NetBulk16k | Workload::NetBulk16kPar
    );
    let is_kv = matches!(inp.workload, Workload::KvIngest | Workload::KvLookup);
    let is_session = inp.workload == Workload::SessionChurn;
    let mean_ns = op_mean_ns(u);
    let unattributed = |applies: bool, explained_ns: f64| {
        if applies && mean_ns > 0.0 {
            1.0 - explained_ns / mean_ns
        } else {
            0.0
        }
    };

    let mut b = Builder(Vec::with_capacity(96));

    // cio-crypto
    b.lower("crypto.aead_ops_per_op", "count", per_op(m.aead_ops));
    b.lower("crypto.aead_bytes_per_op", "B", per_op(m.aead_bytes));
    // cio-vring
    b.lower("vring.records_per_op", "count", per_op(m.ring_records));
    b.higher(
        "vring.records_per_commit",
        "count",
        ratio(m.ring_records as f64, m.ring_commits as f64),
    );
    b.lower(
        "vring.doorbells_per_record",
        "count",
        ratio(
            (m.notifications_sent + m.interrupts_received) as f64,
            m.ring_records as f64,
        ),
    );
    b.higher(
        "vring.suppressed_kick_share",
        "share",
        ratio(
            m.suppressed_kicks as f64,
            (m.suppressed_kicks + m.notifications_sent) as f64,
        ),
    );
    b.lower(
        "vring.spurious_wakeups_per_op",
        "count",
        per_op(m.spurious_wakeups),
    );
    b.lower("vring.validations_per_op", "count", per_op(m.validations));
    b.lower(
        "vring.violations_detected",
        "count",
        m.violations_detected as f64,
    );
    // cio-mem
    b.lower("mem.copies_per_op", "count", per_op(m.copies));
    b.lower("mem.bytes_copied_per_op", "B", per_op(m.bytes_copied));
    b.lower("mem.locks_per_op", "count", per_op(m.lock_acquisitions));
    b.lower("mem.pages_revoked_per_op", "count", per_op(m.pages_revoked));
    // cio-tee
    b.lower(
        "tee.host_transitions_per_op",
        "count",
        per_op(m.host_transitions),
    );
    b.lower(
        "tee.compartment_switches_per_op",
        "count",
        per_op(m.compartment_switches),
    );
    // cio-host
    b.lower("host.idle_polls_per_op", "count", per_op(m.idle_polls));
    b.lower(
        "host.interrupts_per_op",
        "count",
        per_op(m.interrupts_received),
    );

    // cio::world
    b.lower("world.steps_per_op", "count", per_op(x.steps));
    b.lower(
        "world.backpressure_per_op",
        "count",
        per_op(m.backpressure_wouldblock + m.backpressure_again),
    );
    b.lower("world.send_ns", "ns", per_call(Site::WorldSend));
    b.lower("world.step_ns", "ns", per_call(Site::WorldStep));
    b.lower("world.recv_ns", "ns", per_call(Site::WorldRecv));
    let world_explained = {
        let record = ratio(m.aead_bytes as f64, m.aead_ops as f64);
        let frame = ratio(
            (m.bytes_copied + m.bytes_zero_copy) as f64,
            m.ring_records as f64,
        )
        .clamp(64.0, 2048.0);
        per_op(m.aead_ops) * at_size(rung("ctls.record_64").ns, rung("ctls.record_1k").ns, record)
            + per_op(m.ring_records)
                * (at_size(rung("vring.ring_64").ns, rung("vring.ring_1k").ns, frame)
                    + rung("netstack.tcp_seg").ns)
    };
    b.lower(
        "world.unattributed_share",
        "share",
        unattributed(is_net, world_explained),
    );

    // cio::session
    b.higher(
        "session.handshakes_per_batch",
        "count",
        ratio(x.handshakes as f64, x.handshake_batches as f64),
    );
    b.lower(
        "session.probes_per_lookup",
        "count",
        ratio(x.probes as f64, x.lookups as f64),
    );
    let window_s = u.slice_ns.iter().sum::<u64>() as f64 / 1e9;
    b.higher(
        "session.handshakes_per_s",
        "1/s",
        ratio(x.handshakes as f64, window_s),
    );
    b.higher(
        "session.records_per_tick",
        "count",
        if is_session {
            ratio(n, x.ticks as f64)
        } else {
            0.0
        },
    );
    b.higher("session.max_epoch", "count", x.max_epoch as f64);
    b.lower("session.tick_ns", "ns", per_call(Site::SessionTick));
    let session_explained = {
        let record = ratio(m.aead_bytes as f64, m.aead_ops as f64);
        let (r64, r1k) = (rung("ctls.record_64").ns, rung("ctls.record_1k").ns);
        // A record crosses the pipeline twice (request, echo); the
        // pipeline rung is taken at 1 KiB and corrected to the workload's
        // mean record size with the record-layer slope.
        let crossing =
            (rung("vring.pipeline_b1").ns - 2.0 * (r1k - at_size(r64, r1k, record))).max(0.0);
        let handshakes = per_op(x.handshakes);
        2.0 * crossing
            + handshakes * rung("ctls.handshake").ns
            + (1.0 + 2.0 * handshakes) * rung("session.table_op").ns
    };
    b.lower(
        "session.unattributed_share",
        "share",
        unattributed(is_session, session_explained),
    );

    // cio-block
    let blocks = m.blk_records as f64;
    b.lower("block.blocks_per_op", "count", per_op(m.blk_records));
    b.higher(
        "block.blocks_per_commit",
        "count",
        ratio(blocks, m.blk_commits as f64),
    );
    b.lower(
        "block.copies_per_block",
        "count",
        ratio(m.blk_copies as f64, blocks),
    );
    b.lower(
        "block.doorbells_per_block",
        "count",
        ratio(m.blk_doorbells as f64, blocks),
    );
    b.lower(
        "block.locks_per_block",
        "count",
        if is_kv {
            ratio(m.lock_acquisitions as f64, blocks)
        } else {
            0.0
        },
    );

    // cio::kv
    let written_blocks = m.blk_records.saturating_sub(x.read_blocks);
    b.higher("kv.hit_ratio", "share", ratio(x.hits as f64, x.gets as f64));
    b.lower(
        "kv.flushes_per_kop",
        "count",
        ratio(x.flushes as f64 * 1000.0, n),
    );
    b.lower("kv.log_wraps", "count", x.wraps as f64);
    b.lower(
        "kv.write_amp",
        "ratio",
        ratio(written_blocks as f64 * 4096.0, x.put_bytes as f64),
    );
    b.lower("kv.put_ns", "ns", per_call(Site::KvPut));
    b.lower("kv.get_ns", "ns", per_call(Site::KvGet));
    b.lower("kv.service_ns", "ns", per_call(Site::KvService));
    b.lower("kv.flush_ns", "ns", per_call(Site::KvFlush));
    let kv_explained = {
        // Four record-layer operations per KV op (request and response,
        // each sealed and opened); the rest of the AEAD work is blocks.
        let envelope_ops = 4.0 * n;
        let block_aead_bytes = (m.aead_ops as f64 - envelope_ops).max(0.0) * 4096.0;
        let envelope = ratio(
            (m.aead_bytes as f64 - block_aead_bytes).max(0.0),
            envelope_ops,
        );
        4.0 * at_size(
            rung("ctls.record_64").ns,
            rung("ctls.record_1k").ns,
            envelope,
        ) + per_op(written_blocks) * rung("block.ring_write_run").ns
            + per_op(x.read_blocks) * rung("block.ring_read_run").ns
    };
    b.lower(
        "kv.unattributed_share",
        "share",
        unattributed(is_kv, kv_explained),
    );

    // The ladder, and the model-vs-measured ratio of each metered rung.
    for r in inp.rungs {
        b.lower(&format!("{}_ns", r.name), "ns", r.ns);
    }
    for name in MODEL_RATIO_RUNGS {
        let r = rung(name);
        b.lower(
            &format!("{name}.model_ratio"),
            "ratio",
            ratio(r.ns, model_ns(r.cycles.unwrap_or(0.0))),
        );
    }

    // cio-sim
    b.lower(
        "sim.model_ratio",
        "ratio",
        ratio(mean_ns, model_ns(ratio(u.cycles as f64, n))),
    );
    b.lower(
        "sim.trace_overhead",
        "ratio",
        ratio(op_p50_ns(t), op_p50_ns(u)),
    );
    for (i, stage) in Stage::ALL.iter().enumerate() {
        b.lower(
            &format!("stage.{}", stage.name()),
            "share",
            t.stage_shares.get(i).copied().unwrap_or(0.0),
        );
    }
    b.0
}

/// Renders metrics as the `{"name": {"value": .., "unit": ..}}` object
/// of the result line.
pub fn to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj().with("value", m.value).with("unit", m.unit),
                )
            })
            .collect(),
    )
}

/// The per-layer declarations (names, units, directions): the report of
/// an empty run.
pub fn per_layer_declared() -> Vec<Metric> {
    let empty = Pass::empty();
    let rungs: Vec<Rung> = crate::ladder::RUNGS
        .iter()
        .map(|&name| Rung {
            name,
            ns: 0.0,
            cycles: None,
        })
        .collect();
    per_layer(&LayerInputs {
        workload: Workload::NetRr64,
        untraced: &empty,
        traced: &empty,
        rungs: &rungs,
    })
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> Json {
    let workloads: Vec<Json> = Workload::ALL
        .iter()
        .filter(|w| w.gated())
        .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|d| {
            Json::obj()
                .with("name", d.name)
                .with("unit", d.unit)
                .with("better", d.better.name())
                .with("bound", d.bound)
        })
        .collect();
    let per_layer: Vec<Json> = per_layer_declared()
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name.as_str())
                .with("unit", m.unit)
                .with("better", m.better.name())
        })
        .collect();
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "cio_benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("cio_benchmark")])
        .with("run_seconds", run_seconds)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let layer = per_layer_declared();
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(layer.iter().map(|m| m.name.as_str()));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(well_formed(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is declared twice");
        assert!(layer.len() <= 128 && END_TO_END.len() <= 16);
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|d| unit_ok(d.unit)));
        assert!(layer.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
        // Every ladder rung and every stage is reported.
        for rung in crate::ladder::RUNGS {
            assert!(names.contains(&format!("{rung}_ns").as_str()), "{rung}");
        }
        for stage in Stage::ALL {
            let name = format!("stage.{}", stage.name());
            assert!(names.contains(&name.as_str()), "{name}");
        }
    }

    #[test]
    fn checked_in_manifest_matches_the_code() {
        let text = include_str!("../../BENCHMARK.json");
        let on_disk = Json::parse(text).expect("BENCHMARK.json parses");
        let seconds = on_disk
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds") as u64;
        assert_eq!(
            on_disk,
            manifest(seconds),
            "BENCHMARK.json is stale: regenerate it with `cio_benchmark manifest`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 120.0) < 0.0);
        assert_eq!(Better::Lower.worse_by(0.0, 5.0), 0.0);
    }

    #[test]
    fn size_model_interpolates_and_extrapolates() {
        assert_eq!(at_size(100.0, 1060.0, 64.0), 100.0);
        assert_eq!(at_size(100.0, 1060.0, 1024.0), 1060.0);
        assert_eq!(at_size(100.0, 1060.0, 2048.0), 2084.0);
        assert_eq!(at_size(100.0, 90.0, 1e9), 0.0);
    }
}
