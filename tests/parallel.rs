//! The serial deterministic simulation is the correctness oracle for the
//! thread-per-queue parallel host: for every policy combination, a world
//! run with `parallel(n)` must reproduce the serial host's schedule
//! exactly, at every queue count from one up — per-flow byte streams
//! record for record, the virtual clock, the global and per-queue cycle
//! meters, and the telemetry exports byte for byte. These tests sweep
//! batch policies x copy policies x queue counts x worker-thread counts
//! and diff full traces.

use cio::world::{BoundaryKind, World, WorldOptions, ECHO_PORT};
use cio_host::fabric::LinkParams;
use cio_mem::CopyPolicy;
use cio_sim::{Cycles, MeterSnapshot};
use cio_vring::cioring::{BatchPolicy, NotifyMode, NotifyPolicy};

const FLOWS: usize = 6;

fn opts(queues: usize, parallel: usize, loss: f64) -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_500),
            loss,
        },
        seed: 0xC10_2026,
        queues,
        parallel,
        telemetry: true,
        ..WorldOptions::default()
    }
}

/// Everything observable about one run: if any of this differs between
/// the serial and parallel hosts, the parallel path is not a refactor
/// but a different simulation.
#[derive(PartialEq, Debug)]
struct Trace {
    clock: u64,
    meter: MeterSnapshot,
    flows: Vec<Vec<u8>>,
    per_queue: Vec<MeterSnapshot>,
    obs_bits: u64,
    prometheus: String,
    telemetry_json: String,
}

fn run(queues: usize, parallel: usize, batch: BatchPolicy, copy: CopyPolicy, loss: f64) -> Trace {
    run_with(
        queues,
        parallel,
        batch,
        copy,
        loss,
        NotifyMode::Polling,
        NotifyPolicy::Always,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_with(
    queues: usize,
    parallel: usize,
    batch: BatchPolicy,
    copy: CopyPolicy,
    loss: f64,
    notify: NotifyMode,
    policy: NotifyPolicy,
) -> Trace {
    let mut w = World::builder(BoundaryKind::L2CioRing)
        .options(opts(queues, parallel, loss))
        .batch(batch)
        .copy_policy(copy)
        .notify(notify)
        .notify_policy(policy)
        .build()
        .unwrap();
    assert_eq!(w.parallel_threads(), parallel);
    let conns: Vec<_> = (0..FLOWS).map(|_| w.connect(ECHO_PORT).unwrap()).collect();
    for &c in &conns {
        w.establish(c, 60_000).unwrap();
    }
    let mut flows = vec![Vec::new(); FLOWS];
    for round in 0..2usize {
        for (i, &c) in conns.iter().enumerate() {
            let msg = vec![(13 * i + round) as u8; 300 + 67 * i + 5 * round];
            w.send(c, &msg).unwrap();
            let got = w.recv_exact(c, msg.len(), 400_000).unwrap();
            assert_eq!(got, msg, "flow {i} round {round} echo corrupted");
            flows[i].extend_from_slice(&got);
        }
    }
    let prometheus = w.telemetry().prometheus_text();
    let telemetry_json = w.telemetry().json_snapshot();
    Trace {
        clock: w.clock().now().get(),
        meter: w.meter().snapshot(),
        flows,
        per_queue: w.queue_meters(),
        obs_bits: w.recorder().summary().bits,
        prometheus,
        telemetry_json,
    }
}

/// Worker-thread counts worth testing at a queue count: 1 thread (all
/// queues on one worker — exercises sharding), plus one thread per
/// queue (maximum spread).
fn thread_counts(queues: usize) -> Vec<usize> {
    if queues == 1 {
        vec![1]
    } else {
        vec![1, queues]
    }
}

#[test]
fn parallel_matches_serial_across_queue_counts() {
    for queues in [1usize, 2, 4] {
        let serial = run(queues, 0, BatchPolicy::Serial, CopyPolicy::InPlace, 0.0);
        assert!(serial.per_queue.len() == queues);
        for threads in thread_counts(queues) {
            let par = run(
                queues,
                threads,
                BatchPolicy::Serial,
                CopyPolicy::InPlace,
                0.0,
            );
            assert_eq!(
                serial, par,
                "{queues} queues / {threads} threads diverged from serial"
            );
        }
    }
}

#[test]
fn single_queue_parallel_matches_the_serial_dataplane() {
    // One queue is one lane, and one lane is the shared clock: the
    // one-queue world runs the same round as every other, so the whole
    // trace — clock, meters, per-queue meters, flows, observability bits
    // and both telemetry exports — must agree, under every notify
    // policy (the admission decision is the same object on both hosts).
    let serial = run(1, 0, BatchPolicy::Serial, CopyPolicy::InPlace, 0.0);
    let par = run(1, 1, BatchPolicy::Serial, CopyPolicy::InPlace, 0.0);
    assert_eq!(serial.per_queue.len(), 1);
    assert_eq!(serial, par, "1 queue / 1 thread diverged from serial");
    for policy in [NotifyPolicy::EventIdx, NotifyPolicy::Adaptive] {
        let [serial, par] = [0usize, 1].map(|threads| {
            run_with(
                1,
                threads,
                BatchPolicy::Fixed(8),
                CopyPolicy::InPlace,
                0.0,
                NotifyMode::Doorbell,
                policy,
            )
        });
        assert_eq!(serial, par, "policy={policy:?}: 1 queue diverged");
    }
}

#[test]
fn parallel_matches_serial_across_policies() {
    let policies: [(BatchPolicy, &str); 3] = [
        (BatchPolicy::Serial, "serial"),
        (BatchPolicy::Fixed(8), "fixed8"),
        (
            BatchPolicy::Adaptive {
                max: 8,
                latency_cap: Cycles(4_000),
            },
            "adaptive",
        ),
    ];
    for (batch, bname) in policies {
        for copy in [CopyPolicy::InPlace, CopyPolicy::CopyEarly] {
            let serial = run(4, 0, batch, copy, 0.0);
            for threads in [2usize, 4] {
                let par = run(4, threads, batch, copy, 0.0);
                assert_eq!(
                    serial, par,
                    "batch={bname} copy={copy:?} threads={threads} diverged from serial"
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_under_loss() {
    // Loss draws come from the fabric PRNG in transmit order; the
    // coordinator's queue-ordered outbox flush must reproduce the serial
    // draw sequence even though frames were produced on racing threads.
    let serial = run(4, 0, BatchPolicy::Fixed(8), CopyPolicy::InPlace, 0.02);
    for threads in [2usize, 4] {
        let par = run(4, threads, BatchPolicy::Fixed(8), CopyPolicy::InPlace, 0.02);
        assert_eq!(serial, par, "lossy run diverged at {threads} threads");
    }
}

#[test]
fn parallel_matches_serial_under_every_notify_policy() {
    // The admission decision (door-take + notify gate) is one object:
    // the serial backend runs it, and the parallel host's coordinator is
    // handed the same one at the split. Every decision it takes is a
    // function of ring state that both hosts reproduce exactly — so the
    // full trace, doorbell meters included, must match.
    for policy in [
        NotifyPolicy::Always,
        NotifyPolicy::EventIdx,
        NotifyPolicy::Adaptive,
    ] {
        let serial = run_with(
            4,
            0,
            BatchPolicy::Fixed(8),
            CopyPolicy::InPlace,
            0.0,
            NotifyMode::Doorbell,
            policy,
        );
        for threads in [2usize, 4] {
            let par = run_with(
                4,
                threads,
                BatchPolicy::Fixed(8),
                CopyPolicy::InPlace,
                0.0,
                NotifyMode::Doorbell,
                policy,
            );
            assert_eq!(
                serial, par,
                "policy={policy:?} threads={threads} diverged from serial"
            );
        }
    }
}

/// What a notify policy is *allowed* to change: when the host wakes up,
/// hence idle polls, doorbell counts, and the clock. What it must never
/// change: which records are delivered, in which order, with which
/// bytes, and the data-path work done to deliver them.
fn delivery(t: &Trace) -> (Vec<Vec<u8>>, u64, u64, u64, u64, u64, u64) {
    (
        t.flows.clone(),
        t.meter.ring_records,
        t.meter.copies,
        t.meter.bytes_copied,
        t.meter.aead_ops,
        t.meter.aead_bytes,
        t.meter.violations_detected,
    )
}

#[test]
fn notify_policy_never_changes_delivered_records() {
    // ISSUE property: EventIdx / Adaptive deliver the same records in
    // the same order as Always, across batch 1..16 x copy policies x
    // 1/2/4 worker threads. Suppression may only reschedule wakeups.
    for batch in [
        BatchPolicy::Fixed(1),
        BatchPolicy::Fixed(8),
        BatchPolicy::Fixed(16),
    ] {
        for copy in [CopyPolicy::InPlace, CopyPolicy::CopyEarly] {
            for threads in [1usize, 2, 4] {
                let reference = run_with(
                    4,
                    threads,
                    batch,
                    copy,
                    0.0,
                    NotifyMode::Doorbell,
                    NotifyPolicy::Always,
                );
                assert_eq!(reference.meter.violations_detected, 0);
                for policy in [NotifyPolicy::EventIdx, NotifyPolicy::Adaptive] {
                    let suppressed =
                        run_with(4, threads, batch, copy, 0.0, NotifyMode::Doorbell, policy);
                    assert_eq!(
                        delivery(&reference),
                        delivery(&suppressed),
                        "batch={batch:?} copy={copy:?} threads={threads} \
                         policy={policy:?} changed the delivered records"
                    );
                    assert!(
                        suppressed.meter.suppressed_kicks > 0,
                        "batch={batch:?} threads={threads} policy={policy:?} \
                         suppressed nothing — the policy was not engaged"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_runs_are_reproducible() {
    // Thread scheduling varies between runs; the trace must not.
    let a = run(4, 4, BatchPolicy::Fixed(8), CopyPolicy::InPlace, 0.01);
    let b = run(4, 4, BatchPolicy::Fixed(8), CopyPolicy::InPlace, 0.01);
    assert_eq!(a, b, "two identical parallel runs diverged");
}
