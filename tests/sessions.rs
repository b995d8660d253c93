//! The massive-session control plane, end to end: generational handles
//! stay typed errors after close and slot reuse, the flow table reclaims
//! slots under churn (capacity tracks peak concurrency, not total
//! sessions created), and a seeded churn workload — heavy-tailed record
//! sizes, probabilistic closes, closed-loop backfill — reproduces the
//! exact same universe across reruns, across the serial and
//! thread-per-queue hosts, and across dataplane batch/copy policies.

use cio::session::{Arrival, LoadGen, LoadGenConfig};
use cio::world::{BoundaryKind, SessionId, SessionScratch, World, WorldOptions, ECHO_PORT};
use cio::CioError;
use cio_host::fabric::LinkParams;
use cio_mem::CopyPolicy;
use cio_sim::{Cycles, MeterSnapshot};
use cio_vring::cioring::BatchPolicy;

fn opts(queues: usize, parallel: usize) -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        seed: 0xE21_5E55,
        queues,
        parallel,
        telemetry: true,
        observe: true,
        ..WorldOptions::default()
    }
}

/// Everything observable about one churn run. Two runs that claim to be
/// the same workload must agree on every field, byte for byte.
#[derive(PartialEq, Debug)]
struct Trace {
    clock: u64,
    meter: MeterSnapshot,
    per_queue: Vec<MeterSnapshot>,
    /// FNV-1a over every echoed record in completion order: pins the
    /// open/close order and the record bytes without storing megabytes.
    flows_digest: u64,
    created: u64,
    reclaimed: u64,
    peak_live: u64,
    capacity: usize,
    event_log: String,
    telemetry_json: String,
}

fn fnv1a(acc: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *acc ^= u64::from(b);
        *acc = acc.wrapping_mul(0x100_0000_01b3);
    }
}

/// Drives a closed-loop churn workload: top the population up, handshake
/// the newcomers as a batch, echo one heavy-tailed record per live
/// session (draining with shared world steps so concurrency amortizes),
/// then roll the per-session close dice. Runs until `lifecycles`
/// sessions have been opened, then drains everything and snapshots.
fn churn_trace(
    queues: usize,
    parallel: usize,
    batch: BatchPolicy,
    copy: CopyPolicy,
    lifecycles: u64,
    population: usize,
) -> Trace {
    let mut w = World::builder(BoundaryKind::L2CioRing)
        .options(opts(queues, parallel))
        .batch(batch)
        .copy_policy(copy)
        .build()
        .unwrap();
    let mut gen = LoadGen::new(LoadGenConfig {
        seed: 0x5E55_10AD,
        arrival: Arrival::Closed { population },
        churn: 0.5,
        size_min: 32,
        size_max: 900,
        size_alpha: 1.2,
    });

    let mut live: Vec<SessionId> = Vec::new();
    let mut scratch = SessionScratch::new();
    let mut opened = 0u64;
    let mut seq = 0u8;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    while opened < lifecycles {
        // Arrivals: backfill to the target population, handshaking the
        // whole batch together so the peer's amortized responder sees a
        // real connection burst.
        let n = gen.arrivals(live.len());
        for _ in 0..n {
            live.push(w.connect(ECHO_PORT).unwrap());
            opened += 1;
        }
        for &c in &live[live.len() - n..] {
            w.establish(c, 200_000).unwrap();
        }

        // One record per live session, sizes drawn from the bounded
        // Pareto; all sends go out before any drain so every queue has
        // in-flight traffic at once.
        let mut want: Vec<(SessionId, Vec<u8>)> = Vec::with_capacity(live.len());
        for &c in &live {
            let len = gen.record_size();
            seq = seq.wrapping_add(1);
            let msg = vec![seq; len];
            w.send(c, &msg).unwrap();
            want.push((c, msg));
        }
        let mut got: Vec<Vec<u8>> = want
            .iter()
            .map(|(_, m)| Vec::with_capacity(m.len()))
            .collect();
        for _ in 0..200_000 {
            let mut done = true;
            for (k, (c, msg)) in want.iter().enumerate() {
                if got[k].len() < msg.len() {
                    w.recv_into(*c, &mut scratch).unwrap();
                    got[k].extend_from_slice(scratch.as_slice());
                }
                done &= got[k].len() >= msg.len();
            }
            if done {
                break;
            }
            w.step().unwrap();
        }
        for (k, (_, msg)) in want.iter().enumerate() {
            assert_eq!(&got[k], msg, "echo diverged under churn");
            fnv1a(&mut digest, &got[k]);
        }

        // Per-session close dice, in deterministic session order.
        let mut keep = Vec::with_capacity(live.len());
        for &c in &live {
            if gen.should_close() {
                w.close(c).unwrap();
            } else {
                keep.push(c);
            }
        }
        live = keep;
    }

    for &c in &live {
        w.close(c).unwrap();
    }
    for _ in 0..5_000 {
        if w.draining_sockets() == 0 {
            break;
        }
        w.step().unwrap();
    }
    assert_eq!(w.draining_sockets(), 0, "sockets failed to drain");

    let stats = w.session_stats();
    assert_eq!(stats.live, 0);
    assert_eq!(stats.created, stats.reclaimed, "every session reclaimed");
    assert!(stats.created >= lifecycles, "lifecycle floor not reached");
    assert_eq!(stats.probes, stats.lookups, "direct-mapped table probed >1");
    // The reclamation headline: slots track peak concurrency, not the
    // (much larger) number of sessions ever created.
    assert!(
        stats.capacity as u64 <= stats.peak_live,
        "capacity {} exceeds peak concurrency {}",
        stats.capacity,
        stats.peak_live
    );
    assert!(
        stats.created > 4 * stats.peak_live,
        "churn too weak to prove reclamation: created {} peak {}",
        stats.created,
        stats.peak_live
    );

    let event_log = w.telemetry().event_log();
    let telemetry_json = w.telemetry().json_snapshot();
    let per_queue = w.queue_meters();
    Trace {
        clock: w.clock().now().get(),
        meter: w.meter().snapshot(),
        per_queue,
        flows_digest: digest,
        created: stats.created,
        reclaimed: stats.reclaimed,
        peak_live: stats.peak_live,
        capacity: stats.capacity,
        event_log,
        telemetry_json,
    }
}

/// A closed handle is a typed error forever — including after its slot
/// has been reclaimed by a new session — and never aliases the new
/// occupant.
#[test]
fn stale_handles_are_typed_errors_never_aliases() {
    let mut w = World::builder(BoundaryKind::L2CioRing)
        .options(opts(1, 0))
        .build()
        .unwrap();

    let a = w.connect(ECHO_PORT).unwrap();
    w.establish(a, 20_000).unwrap();
    w.send(a, b"first session").unwrap();
    assert_eq!(w.recv_exact(a, 13, 20_000).unwrap(), b"first session");
    w.close(a).unwrap();

    // Closed: every entry point returns the typed session error.
    assert!(matches!(w.send(a, b"x"), Err(CioError::Session(_))));
    let mut scratch = SessionScratch::new();
    assert!(matches!(
        w.recv_into(a, &mut scratch),
        Err(CioError::Session(_))
    ));
    assert!(matches!(w.recv_exact(a, 1, 10), Err(CioError::Session(_))));
    assert!(matches!(w.close(a), Err(CioError::Session(_))));
    assert!(matches!(w.establish(a, 10), Err(CioError::Session(_))));
    assert_eq!(w.conn_lane(a), None);
    assert_eq!(w.session_epoch(a), None);

    // Reuse: the next session takes the reclaimed slot but a fresh
    // generation; the stale handle still fails and never reaches it.
    let b = w.connect(ECHO_PORT).unwrap();
    assert_eq!(b.index(), a.index(), "free slot should be reused");
    assert_ne!(b.generation(), a.generation(), "generation must advance");
    w.establish(b, 20_000).unwrap();
    assert!(matches!(w.send(a, b"ghost"), Err(CioError::Session(_))));
    w.send(b, b"second session").unwrap();
    assert_eq!(w.recv_exact(b, 14, 20_000).unwrap(), b"second session");

    let stats = w.session_stats();
    assert_eq!(stats.created, 2);
    assert_eq!(stats.reclaimed, 1);
    assert_eq!(stats.live, 1);
    assert_eq!(stats.capacity, 1, "one slot serves both lifecycles");
}

/// A forged handle (never issued) is Unknown, not a panic or a live
/// session.
#[test]
fn forged_handles_are_rejected() {
    let mut w = World::builder(BoundaryKind::L2CioRing)
        .options(opts(1, 0))
        .build()
        .unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 20_000).unwrap();

    let forged_index = SessionId::from_raw_parts(c.index() + 1_000, c.generation());
    assert!(matches!(
        w.send(forged_index, b"x"),
        Err(CioError::Session(_))
    ));
    let from_future = SessionId::from_raw_parts(c.index(), c.generation() + 7);
    assert!(matches!(
        w.send(from_future, b"x"),
        Err(CioError::Session(_))
    ));
    // The real session is untouched by either probe.
    w.send(c, b"still here").unwrap();
    assert_eq!(w.recv_exact(c, 10, 20_000).unwrap(), b"still here");
}

/// The headline determinism property: 5k+ session lifecycles of seeded
/// churn produce byte-identical universes — clock, meters (global and
/// per-queue), echoed bytes, session-table accounting, and both
/// telemetry exports — across two fully independent runs on two
/// different host schedules (serial vs the `.parallel(4)`
/// thread-per-queue host). Equality across independent runs proves
/// same-seed reproducibility and schedule-independence at once.
#[test]
fn churn_determinism_5k_lifecycles_serial_and_parallel() {
    let serial = churn_trace(4, 0, BatchPolicy::Serial, CopyPolicy::InPlace, 5_000, 48);
    let par = churn_trace(4, 4, BatchPolicy::Serial, CopyPolicy::InPlace, 5_000, 48);
    assert_eq!(
        serial, par,
        "parallel host diverged from the serial churn schedule"
    );
}

/// Churn determinism holds across the dataplane policy matrix: each
/// batch x copy combination reproduces itself exactly, serial host vs
/// thread-per-queue host.
#[test]
fn churn_determinism_sweeps_batch_and_copy_policies() {
    for batch in [BatchPolicy::Serial, BatchPolicy::Fixed(8)] {
        for copy in [CopyPolicy::InPlace, CopyPolicy::CopyEarly] {
            let serial = churn_trace(2, 0, batch, copy, 400, 16);
            let par = churn_trace(2, 2, batch, copy, 400, 16);
            assert_eq!(
                serial, par,
                "policy ({batch:?}, {copy:?}) diverged across hosts"
            );
        }
    }
}
