//! Telemetry determinism and export round-trip audit (E17).
//!
//! The telemetry layer rides the virtual clock, so its output is part of
//! the simulation's determinism contract: two worlds built with the same
//! options must export byte-identical JSON snapshots, and enabling
//! telemetry must not move the clock or the meters by a single cycle.
//! The snapshot is additionally re-parsed by a small JSON reader and
//! checked for structure: one cell per queue and stage, totals that sum
//! their cells, ordered percentiles.

use std::collections::HashMap;

use cio::world::{World, WorldOptions};
use cio_bench::{bench_opts, telemetry_echo_world_with};
use cio_sim::Stage;

const QUEUES: usize = 4;
const FLOWS: usize = 8;
const ROUNDS: u32 = 8;
const SIZE: usize = 512;

/// The E17 echo workload (`cio_bench::telemetry_echo_world_with`) over
/// `QUEUES` queues, with the telemetry domain armed or not.
fn echo_world(telemetry: bool) -> World {
    let opts = WorldOptions {
        queues: QUEUES,
        telemetry,
        ..bench_opts()
    };
    telemetry_echo_world_with(opts, FLOWS, ROUNDS, SIZE).expect("telemetry echo workload")
}

fn run_world() -> World {
    echo_world(true)
}

#[test]
fn exports_are_byte_identical_across_same_seed_runs() {
    let a = run_world();
    let b = run_world();
    assert_eq!(a.clock().now(), b.clock().now(), "virtual clocks diverged");
    assert_eq!(
        a.telemetry().json_snapshot(),
        b.telemetry().json_snapshot(),
        "JSON snapshots diverged between identical runs"
    );
    assert_eq!(
        a.telemetry().profile().covered(),
        b.telemetry().profile().covered()
    );
}

/// Telemetry under threads: with the host split over worker threads, the
/// queues record into per-queue forks on their own lane clocks, and the
/// coordinator absorbs the forks in ascending queue order after each
/// round. The exports must therefore be byte-identical to the serial
/// run's — and to every repeated parallel run, however the OS happens to
/// schedule the workers.
#[test]
fn exports_are_byte_identical_under_worker_threads() {
    let run = |parallel: usize| {
        let opts = WorldOptions {
            queues: QUEUES,
            parallel,
            telemetry: true,
            ..bench_opts()
        };
        telemetry_echo_world_with(opts, FLOWS, ROUNDS, SIZE).expect("parallel telemetry workload")
    };
    let serial = run(0);
    for threads in [1usize, 2, 4] {
        let par = run(threads);
        assert_eq!(
            serial.clock().now(),
            par.clock().now(),
            "{threads} threads: virtual clock diverged"
        );
        assert_eq!(
            serial.telemetry().json_snapshot(),
            par.telemetry().json_snapshot(),
            "{threads} threads: JSON snapshot diverged from serial"
        );
    }
    // Scheduling noise across repeated parallel runs must not show.
    let (a, b) = (run(4), run(4));
    assert_eq!(
        a.telemetry().json_snapshot(),
        b.telemetry().json_snapshot(),
        "repeated 4-thread runs diverged"
    );
}

#[test]
fn telemetry_off_does_not_perturb_the_simulation() {
    let on = run_world();
    let off = echo_world(false);
    assert_eq!(
        on.clock().now(),
        off.clock().now(),
        "telemetry must never advance the virtual clock"
    );
    let (m_on, m_off) = (on.meter().snapshot(), off.meter().snapshot());
    assert_eq!(m_on.aead_ops, m_off.aead_ops);
    assert_eq!(m_on.aead_bytes, m_off.aead_bytes);
    assert!(!off.telemetry().enabled());
    assert_eq!(off.telemetry().json_snapshot(), "{\"enabled\":false}");
}

#[test]
fn histogram_totals_cross_check_workload_and_profile() {
    let w = run_world();
    let tel = w.telemetry();

    // Every application round trip landed in exactly one queue's RTT
    // histogram: the per-queue totals must sum to the global round count.
    let rtt_total: u64 = (0..QUEUES).map(|q| tel.rtt_histogram(q).count()).sum();
    assert_eq!(rtt_total, (FLOWS as u64) * u64::from(ROUNDS));

    // Self-cycles partition the covered time (within rounding slack from
    // lane-clock rewinds), the span stack never overflowed, and the cTLS
    // seal/open path booked its AEAD work to the crypto stage.
    let p = tel.profile();
    assert!(p.covered().get() > 0);
    assert_eq!(p.overflows(), 0);
    let covered = p.covered().get();
    assert!(
        p.total_cycles().abs_diff(covered) <= covered / 100 + 1,
        "attributed {} vs covered {covered}",
        p.total_cycles()
    );
    assert!(p.stage_cycles(Stage::Crypto) > 0, "no crypto attribution");
    assert!(
        p.stage_cycles(Stage::RingProduce) > 0 && p.stage_cycles(Stage::RingConsume) > 0,
        "ring stages must be exercised by the cio-ring dataplane"
    );
    // Batches were recorded on every queue the RSS hash steered flows to.
    let batch_total: u64 = (0..QUEUES).map(|q| tel.batch_histogram(q).count()).sum();
    assert!(batch_total > 0, "no servicing batches recorded");
}

/// A parsed JSON value: as much of the grammar as the snapshot uses
/// (objects, arrays, strings without escapes, unsigned integers and
/// fixed-point fractions, booleans).
#[derive(Debug)]
enum Json {
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("{key}: not an object: {self:?}")
        };
        let (_, v) =
            (fields.iter().find(|(k, _)| k == key)).unwrap_or_else(|| panic!("missing key {key}"));
        v
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn int(&self) -> u64 {
        match self {
            Json::Num(n) => n.parse().unwrap_or_else(|_| panic!("not an integer: {n}")),
            _ => panic!("not a number: {self:?}"),
        }
    }

    /// Every integer leaf under a dotted path (array elements by index).
    fn int_leaves(&self, path: String, out: &mut HashMap<String, u64>) {
        match self {
            Json::Num(n) if !n.contains('.') => {
                out.insert(path, n.parse().expect("integer"));
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.int_leaves(format!("{path}.{i}"), out);
                }
            }
            Json::Obj(fields) => {
                for (k, v) in fields {
                    v.int_leaves(format!("{path}.{k}"), out);
                }
            }
            _ => {}
        }
    }
}

/// Parses `text` as one JSON document, panicking on any syntax error or
/// trailing bytes.
fn parse_json(text: &str) -> Json {
    struct Reader<'a> {
        s: &'a [u8],
        i: usize,
    }
    impl Reader<'_> {
        fn peek(&mut self) -> u8 {
            while self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
            self.s[self.i]
        }
        fn eat(&mut self, c: u8) {
            assert_eq!(
                self.peek(),
                c,
                "expected {:?} at byte {}",
                c as char,
                self.i
            );
            self.i += 1;
        }
        /// Items separated by commas up to `close`.
        fn list<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut out = Vec::new();
            if self.peek() != close {
                out.push(item(self));
                while self.peek() == b',' {
                    self.eat(b',');
                    out.push(item(self));
                }
            }
            self.eat(close);
            out
        }
        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
        }
        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    Json::Obj(self.list(b'}', |r| {
                        let key = r.string();
                        r.eat(b':');
                        (key, r.value())
                    }))
                }
                b'[' => {
                    self.eat(b'[');
                    Json::Arr(self.list(b']', Self::value))
                }
                b'"' => Json::Str(self.string()),
                b't' | b'f' => {
                    let word: &[u8] = if self.s[self.i] == b't' {
                        b"true"
                    } else {
                        b"false"
                    };
                    assert!(
                        self.s[self.i..].starts_with(word),
                        "bad literal at {}",
                        self.i
                    );
                    self.i += word.len();
                    Json::Bool(word == b"true")
                }
                _ => {
                    let start = self.i;
                    while self.s[self.i].is_ascii_digit() || self.s[self.i] == b'.' {
                        self.i += 1;
                    }
                    let n = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    let (int, frac) = n.split_once('.').unwrap_or((n, "0"));
                    assert!(
                        !int.is_empty() && int.bytes().all(|b| b.is_ascii_digit()),
                        "bad number {n:?} at byte {start}"
                    );
                    assert!(frac.bytes().all(|b| b.is_ascii_digit()), "bad number {n:?}");
                    Json::Num(n.to_string())
                }
            }
        }
    }
    let mut r = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let doc = r.value();
    assert!(
        text[r.i..].trim().is_empty(),
        "trailing bytes after the document"
    );
    doc
}

#[test]
fn json_snapshot_round_trips_through_a_parser() {
    let w = run_world();
    // The echo is lockstep (p50 = p99 on every queue), so give queue 0's
    // RTT histogram a heavy tail: its three percentiles then differ and
    // the ordering check below can tell them apart.
    for (n, rtt) in [(940, 1), (40, 1_000), (20, 1_000_000)] {
        for _ in 0..n {
            w.telemetry().record_rtt(0, cio_sim::Cycles(rtt));
        }
    }
    let doc = parse_json(&w.telemetry().json_snapshot());
    assert!(matches!(doc.get("enabled"), Json::Bool(true)));
    assert_eq!(doc.get("queues").int(), QUEUES as u64);

    // The attribution table exports one cycles and one spans cell per
    // queue x stage, in fixed stage order, and each row's total is the
    // sum of its cells.
    let stages = doc.get("stages").arr();
    assert_eq!(stages.len(), Stage::ALL.len());
    for (row, stage) in stages.iter().zip(Stage::ALL) {
        assert!(matches!(row.get("stage"), Json::Str(s) if s == stage.name()));
        let cycles: Vec<u64> = row.get("cycles").arr().iter().map(Json::int).collect();
        assert_eq!(cycles.len(), QUEUES, "{stage}: cycles cells");
        assert_eq!(row.get("spans").arr().len(), QUEUES, "{stage}: spans cells");
        assert_eq!(
            row.get("total_cycles").int(),
            cycles.iter().sum::<u64>(),
            "{stage}: total is not the sum of its queues"
        );
    }

    let tail = doc.get("rtt").arr()[0].get("hist");
    let [p50, p95, p99] = ["p50", "p95", "p99"].map(|k| tail.get(k).int());
    assert!(p50 < p95 && p95 < p99, "queue 0's tail: {tail:?}");

    // Histogram discipline: one per queue (RTT, batch) or stage
    // (residency), percentiles ordered and bounded by the maximum.
    for (section, rows) in [
        ("rtt", QUEUES),
        ("residency", Stage::COUNT),
        ("batch", QUEUES),
    ] {
        let entries = doc.get(section).arr();
        assert_eq!(entries.len(), rows, "{section} rows");
        for entry in entries {
            let h = entry.get("hist");
            let [p50, p95, p99, max] = ["p50", "p95", "p99", "max"].map(|k| h.get(k).int());
            assert!(
                p50 <= p95 && p95 <= p99 && p99 <= max,
                "{section}: percentiles out of order in {entry:?}"
            );
        }
    }
}

#[test]
fn counters_are_monotone_across_exports() {
    let w = run_world();
    // Every integer in the snapshot is a count, a sum or a maximum except
    // the percentiles (a burst of small samples lowers them) and the
    // session occupancy gauges (live sessions legitimately fall on
    // close) — exempt. Ratios and fractions are not integers.
    let counters = |text: &str| -> HashMap<String, u64> {
        let mut leaves = HashMap::new();
        parse_json(text).int_leaves(String::new(), &mut leaves);
        leaves.retain(|path, _| {
            !["p50", "p95", "p99", "live", "peak", "slots"]
                .iter()
                .any(|k| path.ends_with(&format!(".{k}")) || path.contains(&format!(".{k}.")))
        });
        leaves
    };
    let before = counters(&w.telemetry().json_snapshot());
    assert!(before.contains_key(".stages.0.cycles.0") && before.contains_key(".rtt.0.hist.count"));
    // More activity between two scrapes of the same domain: every counter
    // may only grow.
    for q in 0..QUEUES {
        w.telemetry().record_rtt(q, cio_sim::Cycles(1 << q));
        w.telemetry().record_batch(q, 3);
    }
    w.telemetry().attribute(0, Stage::Idle, cio_sim::Cycles(17));
    for (path, after) in counters(&w.telemetry().json_snapshot()) {
        let prev = before.get(&path).copied().unwrap_or(0);
        assert!(after >= prev, "{path} went backwards: {prev} -> {after}");
    }
}
