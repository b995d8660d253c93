//! The experiment harness: workload generators, sweep drivers, and table
//! printing shared by the `fig*`/`exp_*`/`tab_*` binaries.
//!
//! Each binary regenerates one artifact from EXPERIMENTS.md. Results are
//! *virtual-time* measurements: deterministic for a given seed and cost
//! model, so every table in EXPERIMENTS.md can be reproduced bit-for-bit
//! with `cargo run -p cio-bench --bin <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cio::world::{
    BoundaryKind, SessionId, SessionScratch, World, WorldOptions, ECHO_PORT, RPC_PORT,
};
use cio::CioError;
use cio_host::fabric::LinkParams;
use cio_sim::{Cycles, MeterSnapshot};

/// Re-export for binaries.
pub use cio::world::ALL_BOUNDARIES;

pub mod micro;
pub mod regions;
pub mod transport;

/// Options tuned for throughput experiments (short link, no loss).
pub fn bench_opts() -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(3_000), // ~1 µs: same-rack
            loss: 0.0,
        },
        ..WorldOptions::default()
    }
}

/// One measured workload outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Design measured.
    pub boundary: BoundaryKind,
    /// Application payload bytes moved (both directions).
    pub app_bytes: u64,
    /// Virtual time consumed.
    pub elapsed: Cycles,
    /// Derived Gbit/s at the cost model's frequency.
    pub gbps: f64,
    /// Meter delta over the workload.
    pub meter: MeterSnapshot,
    /// Observability: host-visible events during the workload.
    pub obs_events: u64,
    /// Observability: total host-visible metadata bits.
    pub obs_bits: u64,
    /// Observability: distinct host-visible event kinds.
    pub obs_kinds: usize,
}

/// Downloads `total_bytes` from the RPC peer in `chunk`-sized responses,
/// measuring steady-state throughput (connection setup excluded).
///
/// # Errors
///
/// World construction or timeout failures.
pub fn stream_download(
    kind: BoundaryKind,
    opts: WorldOptions,
    total_bytes: u64,
    chunk: u32,
) -> Result<RunResult, CioError> {
    let ghz = opts.cost.ghz;
    let mut w = World::new(kind, opts)?;
    let c = w.connect(RPC_PORT)?;
    w.establish(c, 20_000)?;

    // Warm-up round trip.
    w.send(c, &64u32.to_le_bytes())?;
    w.recv_exact(c, 68, 20_000)?;

    let m0 = w.meter().snapshot();
    w.recorder().clear();
    let t0 = w.clock().now();
    let mut moved = 0u64;
    while moved < total_bytes {
        let want = chunk.min((total_bytes - moved) as u32);
        w.send(c, &want.to_le_bytes())?;
        let resp = w.recv_exact(c, want as usize + 4, 200_000)?;
        moved += resp.len() as u64 - 4;
    }
    let elapsed = w.clock().since(t0);
    let obs = w.recorder().summary();
    Ok(RunResult {
        boundary: kind,
        app_bytes: moved,
        elapsed,
        gbps: cio_sim::gbps(moved, elapsed, ghz),
        meter: w.meter().snapshot().delta(&m0),
        obs_events: obs.events,
        obs_bits: obs.bits,
        obs_kinds: obs.kinds,
    })
}

/// Downloads `per_flow_bytes` from the RPC peer on each of `flows`
/// concurrent connections in `chunk`-sized responses, measuring aggregate
/// steady-state throughput (setup excluded).
///
/// Every flow keeps one request outstanding, so with a multi-queue world
/// the RSS-steered flows exercise all queues concurrently — this is the
/// workload behind the E16 queue-scaling sweep. Transient backpressure
/// from [`World::send`] is retried on later rounds, never treated as
/// failure. Also returns how many [`World::step`] rounds the measured
/// window took: the loop is closed, so a request waits whole rounds.
///
/// # Errors
///
/// World construction or timeout failures.
pub fn multi_stream_download(
    kind: BoundaryKind,
    opts: WorldOptions,
    flows: usize,
    per_flow_bytes: u64,
    chunk: u32,
) -> Result<(RunResult, u64), CioError> {
    let ghz = opts.cost.ghz;
    let mut w = World::new(kind, opts)?;
    let conns: Vec<_> = (0..flows)
        .map(|_| w.connect(RPC_PORT))
        .collect::<Result<_, _>>()?;
    for &c in &conns {
        w.establish(c, 50_000)?;
    }

    // Warm-up round trip on every flow.
    for &c in &conns {
        w.send(c, &64u32.to_le_bytes())?;
    }
    for &c in &conns {
        w.recv_exact(c, 68, 50_000)?;
    }

    let m0 = w.meter().snapshot();
    w.recorder().clear();
    let t0 = w.clock().now();
    let mut remaining = vec![per_flow_bytes; flows];
    // Outstanding response bytes per flow (0 = ready for a new request).
    let mut inflight = vec![0u64; flows];
    let mut acc = vec![0u64; flows];
    let mut moved = 0u64;
    let total = per_flow_bytes * flows as u64;
    let mut idle_steps = 0u32;
    let mut rounds = 0u64;
    // One reusable receive scratch across all flows: the polling loop
    // stays allocation-free via the `recv_into` hot path.
    let mut rx = SessionScratch::new();
    while moved < total {
        for (i, &c) in conns.iter().enumerate() {
            if remaining[i] > 0 && inflight[i] == 0 {
                let want = chunk.min(remaining[i] as u32);
                match w.send(c, &want.to_le_bytes()) {
                    Ok(_) => inflight[i] = u64::from(want) + 4,
                    Err(e) if e.is_transient() => {} // retry next round
                    Err(e) => return Err(e),
                }
            }
        }
        w.step()?;
        rounds += 1;
        let mut progressed = false;
        for (i, &c) in conns.iter().enumerate() {
            if inflight[i] == 0 {
                continue;
            }
            let got = w.recv_into(c, &mut rx)?;
            if got == 0 {
                continue;
            }
            progressed = true;
            acc[i] += got as u64;
            if acc[i] >= inflight[i] {
                let payload = inflight[i] - 4;
                remaining[i] -= payload;
                moved += payload;
                acc[i] -= inflight[i];
                inflight[i] = 0;
            }
        }
        idle_steps = if progressed { 0 } else { idle_steps + 1 };
        if idle_steps > 200_000 {
            return Err(CioError::Timeout("multi_stream_download stalled"));
        }
    }
    let elapsed = w.clock().since(t0);
    let obs = w.recorder().summary();
    let run = RunResult {
        boundary: kind,
        app_bytes: moved,
        elapsed,
        gbps: cio_sim::gbps(moved, elapsed, ghz),
        meter: w.meter().snapshot().delta(&m0),
        obs_events: obs.events,
        obs_bits: obs.bits,
        obs_kinds: obs.kinds,
    };
    Ok((run, rounds))
}

/// Measures small-message echo round-trip latency: mean cycles per round
/// trip over `rounds` ping-pongs of `size` bytes.
///
/// # Errors
///
/// World construction or timeout failures.
pub fn echo_latency(
    kind: BoundaryKind,
    opts: WorldOptions,
    size: usize,
    rounds: u32,
) -> Result<(Cycles, RunResult), CioError> {
    let ghz = opts.cost.ghz;
    let mut w = World::new(kind, opts)?;
    let c = w.connect(ECHO_PORT)?;
    w.establish(c, 20_000)?;
    let payload = vec![0xA5u8; size];
    // Warm-up.
    w.send(c, &payload)?;
    w.recv_exact(c, size, 20_000)?;

    let m0 = w.meter().snapshot();
    w.recorder().clear();
    let t0 = w.clock().now();
    for _ in 0..rounds {
        w.send(c, &payload)?;
        w.recv_exact(c, size, 50_000)?;
    }
    let elapsed = w.clock().since(t0);
    let per_rt = Cycles(elapsed.get() / u64::from(rounds.max(1)));
    let obs = w.recorder().summary();
    let bytes = 2 * size as u64 * u64::from(rounds);
    Ok((
        per_rt,
        RunResult {
            boundary: kind,
            app_bytes: bytes,
            elapsed,
            gbps: cio_sim::gbps(bytes, elapsed, ghz),
            meter: w.meter().snapshot().delta(&m0),
            obs_events: obs.events,
            obs_bits: obs.bits,
            obs_kinds: obs.kinds,
        },
    ))
}

/// Runs a multi-flow echo workload with the telemetry layer optionally
/// enabled and returns the finished [`World`] so callers can inspect the
/// attribution profile, histograms, and exporters.
///
/// Each flow keeps one `size`-byte ping outstanding and records the
/// application-observed round-trip into the per-queue RTT histogram of the
/// flow's RSS lane. This is the workload behind `cio-top` (E17) and the
/// telemetry determinism suite; running it with `telemetry: false` gives
/// the control for "observability does not perturb the simulation".
///
/// # Errors
///
/// World construction or timeout failures.
pub fn telemetry_echo_world(
    queues: usize,
    flows: usize,
    rounds: u32,
    size: usize,
    telemetry: bool,
) -> Result<World, CioError> {
    let opts = WorldOptions {
        queues,
        telemetry,
        ..bench_opts()
    };
    telemetry_echo_world_with(opts, flows, rounds, size)
}

/// [`telemetry_echo_world`] with full [`WorldOptions`] control — used by
/// the telemetry-under-threads determinism suite to run the identical
/// workload with `parallel` worker threads.
///
/// # Errors
///
/// World construction or timeout failures.
pub fn telemetry_echo_world_with(
    opts: WorldOptions,
    flows: usize,
    rounds: u32,
    size: usize,
) -> Result<World, CioError> {
    let mut w = World::new(BoundaryKind::L2CioRing, opts)?;
    let conns: Vec<_> = (0..flows)
        .map(|_| w.connect(ECHO_PORT))
        .collect::<Result<_, _>>()?;
    for &c in &conns {
        w.establish(c, 50_000)?;
    }
    let payload = vec![0x5Au8; size];
    echo_rounds(&mut w, &conns, &payload, rounds)?;
    Ok(w)
}

/// Drives `rounds` echo ping-pongs per flow against an already-warm
/// world. Shared inner loop of [`telemetry_echo_world_with`] and
/// [`steady_echo_run`].
fn echo_rounds(
    w: &mut World,
    conns: &[SessionId],
    payload: &[u8],
    rounds: u32,
) -> Result<(), CioError> {
    let flows = conns.len();
    let size = payload.len();
    let mut left = vec![rounds; flows];
    // Echo bytes still owed per flow (0 = ready for a new ping).
    let mut pending = vec![0usize; flows];
    let mut sent_at = vec![Cycles(0); flows];
    let mut done = 0usize;
    let mut idle_steps = 0u32;
    // One reusable receive scratch across all flows (`recv_into` hot
    // path): the RTT loop allocates nothing per round.
    let mut rx = SessionScratch::new();
    while done < flows {
        for (i, &c) in conns.iter().enumerate() {
            if left[i] > 0 && pending[i] == 0 {
                match w.send(c, payload) {
                    Ok(_) => {
                        pending[i] = size;
                        sent_at[i] = w.clock().now();
                    }
                    Err(e) if e.is_transient() => {} // retry next round
                    Err(e) => return Err(e),
                }
            }
        }
        w.step()?;
        let mut progressed = false;
        for (i, &c) in conns.iter().enumerate() {
            if pending[i] == 0 {
                continue;
            }
            let got = w.recv_into(c, &mut rx)?;
            if got == 0 {
                continue;
            }
            progressed = true;
            pending[i] = pending[i].saturating_sub(got);
            if pending[i] == 0 {
                let q = w.conn_lane(c).unwrap_or(0);
                w.telemetry().record_rtt(q, w.clock().since(sent_at[i]));
                left[i] -= 1;
                if left[i] == 0 {
                    done += 1;
                }
            }
        }
        idle_steps = if progressed { 0 } else { idle_steps + 1 };
        if idle_steps > 200_000 {
            return Err(CioError::Timeout("echo workload stalled"));
        }
    }
    Ok(())
}

/// Outcome of [`steady_echo_run`]: the finished world plus virtual time
/// and meter delta measured over the steady-state phase only.
pub struct SteadyEcho {
    /// The finished world (inspect telemetry, event log, idle passes).
    pub world: World,
    /// Virtual time of the measured steady-state phase.
    pub elapsed: Cycles,
    /// Meter delta over the measured phase.
    pub meter: MeterSnapshot,
}

impl SteadyEcho {
    /// Guest exits per ring record over the measured phase: explicit
    /// guest->host notifications divided by records moved (both rings,
    /// both directions).
    pub fn exits_per_record(&self) -> f64 {
        let recs = self.meter.ring_records.max(1) as f64;
        self.meter.notifications_sent as f64 / recs
    }

    /// Doorbells per ring record over the measured phase: guest exits
    /// plus host->guest interrupts, divided by records moved — the E23
    /// headline ratio, matching the `cio_doorbells_per_record` gauge.
    pub fn doorbells_per_record(&self) -> f64 {
        let recs = self.meter.ring_records.max(1) as f64;
        (self.meter.notifications_sent + self.meter.interrupts_received) as f64 / recs
    }

    /// Cycles of virtual time per ring record over the measured phase.
    pub fn cycles_per_record(&self) -> f64 {
        self.elapsed.get() as f64 / self.meter.ring_records.max(1) as f64
    }
}

/// The E8/E23 notification-economics driver: runs the multi-flow echo
/// workload but measures *steady state only* — the meter snapshot and
/// virtual-time window open after connection establishment and one
/// warm-up round trip per flow, so handshake exits don't dilute the
/// exits/record and doorbells/record ratios under test.
///
/// # Errors
///
/// World construction or timeout failures.
pub fn steady_echo_run(
    opts: WorldOptions,
    flows: usize,
    rounds: u32,
    size: usize,
) -> Result<SteadyEcho, CioError> {
    let mut w = World::new(BoundaryKind::L2CioRing, opts)?;
    let conns: Vec<_> = (0..flows)
        .map(|_| w.connect(ECHO_PORT))
        .collect::<Result<_, _>>()?;
    for &c in &conns {
        w.establish(c, 50_000)?;
    }
    let payload = vec![0x5Au8; size];
    // Warm-up: one echo per flow primes every ring and RSS lane.
    echo_rounds(&mut w, &conns, &payload, 1)?;
    let m0 = w.meter().snapshot();
    let t0 = w.clock().now();
    echo_rounds(&mut w, &conns, &payload, rounds)?;
    let elapsed = w.clock().since(t0);
    let meter = w.meter().snapshot().delta(&m0);
    Ok(SteadyEcho {
        world: w,
        elapsed,
        meter,
    })
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:w$} | ", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats cycles with thousands separators.
pub fn fmt_cycles(c: Cycles) -> String {
    let mut s = c.get().to_string();
    let mut out = String::new();
    let chars: Vec<char> = s.drain(..).collect();
    for (i, ch) in chars.iter().enumerate() {
        if i > 0 && (chars.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(*ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_download_moves_requested_bytes() {
        let r =
            stream_download(BoundaryKind::L2CioRing, bench_opts(), 64 * 1024, 16 * 1024).unwrap();
        assert_eq!(r.app_bytes, 64 * 1024);
        assert!(r.elapsed.get() > 0);
        assert!(r.gbps > 0.0);
    }

    #[test]
    fn multi_stream_download_scales_with_queues() {
        let run = |queues: usize| {
            let opts = WorldOptions {
                queues,
                ..bench_opts()
            };
            let run = multi_stream_download(BoundaryKind::L2CioRing, opts, 8, 16 * 1024, 4 * 1024);
            run.unwrap().0
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.app_bytes, 8 * 16 * 1024);
        assert_eq!(four.app_bytes, one.app_bytes);
        // Four queues must beat one; the full >=2.5x bar is enforced by
        // exp_multiqueue over the larger 32-flow workload.
        assert!(
            four.elapsed < one.elapsed,
            "4 queues not faster: {:?} vs {:?}",
            four.elapsed,
            one.elapsed
        );
    }

    #[test]
    fn echo_latency_positive_and_stable() {
        let (lat, r) = echo_latency(BoundaryKind::DualBoundary, bench_opts(), 256, 5).unwrap();
        assert!(lat.get() > 0);
        assert_eq!(r.app_bytes, 2 * 256 * 5);
        // Determinism: same seed, same result.
        let (lat2, _) = echo_latency(BoundaryKind::DualBoundary, bench_opts(), 256, 5).unwrap();
        assert_eq!(lat, lat2);
    }

    #[test]
    fn fmt_cycles_groups_digits() {
        assert_eq!(fmt_cycles(Cycles(1_234_567)), "1_234_567");
        assert_eq!(fmt_cycles(Cycles(42)), "42");
    }
}
