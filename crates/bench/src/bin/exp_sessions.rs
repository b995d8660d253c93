//! E21 — massive-session control plane: 10k+ churning SecureStreams
//! behind the RSS-sharded, generation-checked flow table.
//!
//! The [`SessionPlane`] harness runs a closed-loop population of full
//! cTLS sessions (batched X25519 handshakes on open, seal-in-slot echo
//! round trips while live, per-session key rotation every
//! `REKEY_RECORDS` records, probabilistic close + slot reclamation) at
//! 100 → 1 000 → 10 000 concurrent sessions. Reported per population:
//!
//! - **Lookup O(1)**: the flow table must satisfy `probes == lookups`
//!   (direct-mapped, single probe) at every population, and the virtual
//!   cycles spent per echoed record may grow at most 10% from 100 to
//!   10 000 sessions — lookups that scaled with population would show
//!   up here immediately.
//! - **p99 SLO**: the worst shard's p99 echo RTT (from the E17 telemetry
//!   histograms) must stay under the session SLO.
//! - **Reclamation**: flow-table slot capacity stays bounded by peak
//!   concurrency while `created` keeps growing — churn turns slots over
//!   instead of leaking them.
//!
//! Writes `BENCH_sessions.json` for CI assertion. Usage:
//! `exp_sessions [--quick]`.

use cio::session::{Arrival, LoadGenConfig, SessionPlane, SessionPlaneConfig};
use cio_bench::micro::{json_array, JsonObj};
use cio_bench::{fmt_cycles, print_table};
use cio_sim::Cycles;

/// Per-session key-rotation interval, in records.
const REKEY_RECORDS: u64 = 8;
/// Per-session, per-tick close probability: at 10k sessions this is
/// ~1 000 closes (and 1 000 batched handshakes) per tick — churn as
/// metered steady state.
const CHURN: f64 = 0.1;
/// The session SLO: worst-shard p99 echo RTT, virtual cycles. Measured
/// headroom is ~4x (p99 lands near 6k cycles); the bar catches a
/// dataplane regression without flaking on record-size tail draws.
const SLO_P99_CYCLES: u64 = 25_000;

struct Row {
    population: usize,
    ticks: u64,
    created: u64,
    reclaimed: u64,
    peak_live: u64,
    capacity: u64,
    lookups: u64,
    probes: u64,
    cycles_per_record: f64,
    p99: u64,
    max_epoch: u64,
    handshakes: u64,
    handshake_batches: u64,
}

fn run_population(population: usize, ticks: u64) -> Row {
    let cfg = SessionPlaneConfig {
        shards: 4,
        load: LoadGenConfig {
            seed: 0xE21,
            arrival: Arrival::Closed { population },
            churn: CHURN,
            size_min: 64,
            size_max: 1_280,
            size_alpha: 1.2,
        },
        rekey_interval: Some(REKEY_RECORDS),
        handshake_batch: 16,
    };
    let mut plane = SessionPlane::new(cfg).expect("session plane");
    plane.run(ticks).expect("E21 workload failed");
    let r = plane.report();

    // Worst shard wins: the SLO is not an average.
    let p99 = (0..4)
        .map(|s| plane.telemetry().rtt_histogram(s).p99())
        .max()
        .unwrap_or(0);

    assert_eq!(
        r.probes, r.lookups,
        "flow table probed more than once per lookup at {population} sessions"
    );
    assert!(
        r.capacity <= r.peak_live,
        "slot capacity {} exceeds peak concurrency {} at {population} sessions",
        r.capacity,
        r.peak_live
    );
    assert!(
        r.created > r.capacity,
        "churn never exercised reclamation at {population} sessions"
    );
    assert!(
        r.max_epoch >= 1,
        "no session ever rotated its keys at {population} sessions"
    );
    assert_eq!(r.live + r.reclaimed, r.created, "session accounting leaked");

    Row {
        population,
        ticks: r.ticks,
        created: r.created,
        reclaimed: r.reclaimed,
        peak_live: r.peak_live,
        capacity: r.capacity,
        lookups: r.lookups,
        probes: r.probes,
        cycles_per_record: r.elapsed.get() as f64 / r.records_echoed.max(1) as f64,
        p99,
        max_epoch: r.max_epoch,
        handshakes: r.handshakes,
        handshake_batches: r.handshake_batches,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ticks: u64 = if quick { 12 } else { 24 };
    let populations: &[usize] = &[100, 1_000, 10_000];

    let rows: Vec<Row> = populations
        .iter()
        .map(|&p| run_population(p, ticks))
        .collect();
    // `run_population` asserted reclamation at every population; the claim
    // is about 10k sessions, so one of them must be that large.
    let top = rows.iter().map(|r| r.population).max();
    assert!(top >= Some(10_000), "the 10k-session population never ran");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.population.to_string(),
                r.created.to_string(),
                r.capacity.to_string(),
                r.peak_live.to_string(),
                format!("{:.0}", r.cycles_per_record),
                fmt_cycles(Cycles(r.p99)),
                r.max_epoch.to_string(),
                format!(
                    "{:.1}",
                    r.handshakes as f64 / r.handshake_batches.max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E21 — session churn at scale ({ticks} ticks, {CHURN} churn/tick, \
             rekey every {REKEY_RECORDS} records, virtual time)"
        ),
        &[
            "sessions",
            "created",
            "slots",
            "peak",
            "cyc/record",
            "p99 RTT",
            "max epoch",
            "hs/batch",
        ],
        &table,
    );

    // The O(1) claim across two orders of magnitude of population.
    let base = rows[0].cycles_per_record;
    let worst_ratio = rows
        .iter()
        .map(|r| r.cycles_per_record / base)
        .fold(0.0f64, f64::max);
    let lookup_o1 = rows.iter().all(|r| r.probes == r.lookups) && worst_ratio <= 1.10;
    let worst_p99 = rows.iter().map(|r| r.p99).max().unwrap_or(0);

    println!(
        "\nReading: the handle is the lookup — shard from the low bits, slot \
         from the high bits, generation check, done. Slots are reclaimed LIFO \
         on close, so the table's footprint follows peak concurrency while \
         `created` runs away from it; handshakes amortize one server \
         keygen across each batch of ClientHellos; every session rotates \
         keys mid-life without a visible seam in the echo stream."
    );
    println!(
        "\ncycles/record at 10k vs 100 sessions: {worst_ratio:.3}x \
         (target: <= 1.10x); worst-shard p99 RTT {} (SLO: {})",
        fmt_cycles(Cycles(worst_p99)),
        fmt_cycles(Cycles(SLO_P99_CYCLES)),
    );
    assert!(
        worst_ratio <= 1.10,
        "per-record cost scaled with population: {worst_ratio:.3}x > 1.10x"
    );
    assert!(
        worst_p99 <= SLO_P99_CYCLES,
        "p99 RTT {worst_p99} blew the {SLO_P99_CYCLES}-cycle SLO"
    );

    let doc = JsonObj::new()
        .str("bench", "sessions")
        .str("mode", if quick { "quick" } else { "full" })
        .int("ticks", ticks)
        .f64("churn", CHURN)
        .int("rekey_records", REKEY_RECORDS)
        .int("slo_p99_cycles", SLO_P99_CYCLES)
        .raw(
            "populations",
            json_array(rows.iter().map(|r| {
                JsonObj::new()
                    .int("population", r.population as u64)
                    .int("ticks", r.ticks)
                    .int("created", r.created)
                    .int("reclaimed", r.reclaimed)
                    .int("peak_live", r.peak_live)
                    .int("capacity", r.capacity)
                    .int("lookups", r.lookups)
                    .int("probes", r.probes)
                    .f64("cycles_per_record", r.cycles_per_record)
                    .int("p99_rtt_cycles", r.p99)
                    .int("max_epoch", r.max_epoch)
                    .int("handshakes", r.handshakes)
                    .int("handshake_batches", r.handshake_batches)
                    .finish()
            })),
        )
        .raw(
            "sessions",
            JsonObj::new()
                .int("lookup_o1", u64::from(lookup_o1))
                .f64("cycles_per_record_ratio", worst_ratio)
                .int("p99_rtt_cycles", worst_p99)
                .int(
                    "slots_bounded_by_peak",
                    u64::from(rows.iter().all(|r| r.capacity <= r.peak_live)),
                )
                .finish(),
        )
        .finish();
    std::fs::write("BENCH_sessions.json", doc + "\n").expect("write BENCH_sessions.json");
    println!("wrote BENCH_sessions.json");
}
