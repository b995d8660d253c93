//! `session_churn`: the session control plane under closed-loop churn
//! (batched X25519 handshakes, rekey epochs, generational table).

use super::gen::session_seed;
use super::{fatal, repeated_setup, ring_violations, stage_shares, Extra, Pass, Plan};
use crate::spans::Site;
use cio::session::{Arrival, LoadGenConfig, SessionPlane, SessionPlaneConfig};
use std::time::Instant;

/// Live sessions held by the closed loop.
pub const POPULATION: usize = 1_000;
const SHARDS: usize = 4;
const WARMUP_TICKS: u64 = 2;

/// The pinned reference profile of the session workload (the E21
/// configuration): 4 shards, 10% of sessions close per tick, keys rotate
/// every 8 records, 16 ClientHellos per server response batch,
/// bounded-Pareto record sizes of 64-1 280 B.
pub fn reference_config(seed: u64) -> SessionPlaneConfig {
    SessionPlaneConfig {
        shards: SHARDS,
        load: LoadGenConfig {
            seed: session_seed(seed),
            arrival: Arrival::Closed {
                population: POPULATION,
            },
            churn: 0.1,
            size_min: 64,
            size_max: 1_280,
            size_alpha: 1.2,
        },
        rekey_interval: Some(8),
        handshake_batch: 16,
    }
}

fn build(seed: u64) -> Result<SessionPlane, String> {
    let mut plane =
        SessionPlane::new(reference_config(seed)).map_err(|e| fatal("session plane build", e))?;
    plane
        .run(WARMUP_TICKS)
        .map_err(|e| fatal("warm-up ticks", e))?;
    Ok(plane)
}

pub fn run(plan: &Plan, traced: bool) -> Result<Pass, String> {
    // The plane's telemetry is built in and always armed; the traced
    // pass adds the benchmark-side spans and reads its profile.
    let (mut plane, setup_s) = repeated_setup(|| build(plan.seed))?;

    let ticks_per_slice = plan.units_per_slice();
    let mut spans = plan.span_log(traced);
    let mut op_wall_ns = Vec::with_capacity(plan.units as usize);
    let mut slice_ns = Vec::with_capacity(plan.slices as usize);
    let mut slice_ops = Vec::with_capacity(plan.slices as usize);
    let mut first_slice = None;

    let clock = plane.clock().clone();
    let meter = plane.meter().clone();
    let (m0, c0, r0) = (meter.snapshot(), clock.now(), plane.report());
    let mut tick = 0u32;
    for slice in 0..plan.slices {
        let t_slice = Instant::now();
        let mut t_prev = t_slice;
        let mut echoed_prev = plane.report().records_echoed;
        let slice_start = echoed_prev;
        for _ in 0..ticks_per_slice {
            let o = spans.enter_op(tick);
            let s = spans.enter(Site::SessionTick);
            let r = plane.run(1);
            spans.exit(s);
            spans.exit(o);
            r.map_err(|e| fatal("tick", e))?;
            let (t, echoed) = (Instant::now(), plane.report().records_echoed);
            let records = (echoed - echoed_prev).max(1);
            op_wall_ns.push((t - t_prev).as_nanos() as f32 / records as f32);
            (t_prev, echoed_prev) = (t, echoed);
            tick += 1;
        }
        slice_ns.push((t_prev - t_slice).as_nanos() as u64);
        slice_ops.push(echoed_prev - slice_start);
        if slice == 0 {
            first_slice = Some((clock.since(c0).get(), meter.snapshot().delta(&m0)));
        }
    }
    let cycles = clock.since(c0).get();
    let meter_delta = meter.snapshot().delta(&m0);
    let report = plane.report();

    let mut violations = Vec::new();
    if report.live + report.reclaimed != report.created {
        violations.push(format!(
            "session accounting leaked: live {} + reclaimed {} != created {}",
            report.live, report.reclaimed, report.created
        ));
    }
    if report.probes != report.lookups {
        violations.push(format!(
            "flow table probed {} times for {} lookups",
            report.probes, report.lookups
        ));
    }
    violations.extend(ring_violations(&meter_delta));

    // Worst shard wins: a tail is not an average.
    let p99 = (0..SHARDS)
        .map(|s| plane.telemetry().rtt_histogram(s).p99())
        .max()
        .unwrap_or(0);
    let echoed = report.records_echoed - r0.records_echoed;
    // A record that fails closed quarantines its session and is metered;
    // it was attempted and did not echo.
    let failed = meter_delta.session_failures;
    Ok(Pass {
        ops: echoed + failed,
        failed,
        setup_s,
        slice_ops,
        slice_ns,
        op_wall_ns,
        cycles,
        op_p99_cycles: p99,
        meter: meter_delta,
        extra: Extra {
            handshakes: report.handshakes - r0.handshakes,
            handshake_batches: report.handshake_batches - r0.handshake_batches,
            lookups: report.lookups - r0.lookups,
            probes: report.probes - r0.probes,
            ticks: report.ticks - r0.ticks,
            max_epoch: report.max_epoch,
            ..Extra::default()
        },
        first_slice: first_slice.expect("a plan has at least one slice"),
        stage_shares: stage_shares(plane.telemetry(), traced),
        spans,
        violations,
    })
}
