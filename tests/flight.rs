//! Event-timeline determinism and audit-chain integrity (E22).
//!
//! The timeline half of the telemetry domain rides the virtual clock
//! like the instruments, so its exports join the determinism contract:
//! same-seed worlds must produce byte-identical event logs, Chrome-trace
//! JSON, and audit logs — and the thread-per-queue host, which records
//! into per-queue forks on the workers' lane clocks and absorbs them in
//! ascending queue order, must reproduce the serial logs exactly. The hash-chained audit stream must
//! verify end to end and pinpoint any mutated link.

use cio::world::WorldOptions;
use cio_bench::{bench_opts, telemetry_echo_world_with};
use cio_sim::{verify_audit_chain, AuditViolation, EventKind};

const QUEUES: usize = 4;
const FLOWS: usize = 8;
const ROUNDS: u32 = 8;
const SIZE: usize = 512;

fn run_world(parallel: usize) -> cio::world::World {
    let opts = WorldOptions {
        queues: QUEUES,
        parallel,
        telemetry: true,
        observe: true,
        ..bench_opts()
    };
    telemetry_echo_world_with(opts, FLOWS, ROUNDS, SIZE).expect("observe echo workload")
}

/// First differing line between two logs, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a
        .lines()
        .zip(b.lines())
        .chain(std::iter::once(("", "")))
        .enumerate()
    {
        if la != lb {
            return format!("line {i}: {la:?} vs {lb:?}");
        }
    }
    format!("lengths {} vs {}", a.lines().count(), b.lines().count())
}

#[test]
fn event_streams_are_byte_identical_across_same_seed_runs() {
    let a = run_world(0);
    let b = run_world(0);
    assert_eq!(a.clock().now(), b.clock().now(), "virtual clocks diverged");
    assert_eq!(
        a.telemetry().event_log(),
        b.telemetry().event_log(),
        "event logs diverged between identical runs"
    );
    assert_eq!(
        a.chrome_trace(),
        b.chrome_trace(),
        "Chrome-trace exports diverged between identical runs"
    );
    assert_eq!(
        a.telemetry().audit_log(),
        b.telemetry().audit_log(),
        "audit logs diverged between identical runs"
    );
    assert!(
        !a.telemetry().event_log().is_empty(),
        "recorder captured nothing"
    );
}

#[test]
fn event_streams_are_byte_identical_under_worker_threads() {
    let serial = run_world(0);
    for threads in [1usize, 2, 4] {
        let par = run_world(threads);
        assert_eq!(
            serial.clock().now(),
            par.clock().now(),
            "{threads} threads: virtual clock diverged"
        );
        assert_eq!(
            serial.telemetry().event_log(),
            par.telemetry().event_log(),
            "{threads} threads: event log diverged from serial; first diff: {}",
            first_diff(
                &serial.telemetry().event_log(),
                &par.telemetry().event_log()
            ),
        );
        assert_eq!(
            serial.chrome_trace(),
            par.chrome_trace(),
            "{threads} threads: Chrome trace diverged from serial"
        );
        assert_eq!(
            serial.telemetry().audit_log(),
            par.telemetry().audit_log(),
            "{threads} threads: audit log diverged from serial"
        );
        par.telemetry()
            .verify_audit()
            .expect("parallel audit chain");
    }
}

#[test]
fn audit_chain_round_trips_and_detects_tampering() {
    let w = run_world(0);
    let head = w.telemetry().audit_head();
    let records = w.telemetry().audit_records();
    verify_audit_chain(&records, &head).expect("clean chain must verify");

    if !records.is_empty() {
        // Mutate one payload word: the verifier names exactly that link.
        let link = records.len() / 2;
        let mut forged = records.clone();
        forged[link].b ^= 0x80;
        assert_eq!(
            verify_audit_chain(&forged, &head),
            Err(AuditViolation::BadDigest { link: link as u64 }),
        );
        // Truncate: the verifier reports the missing tail.
        let mut short = records.clone();
        short.pop();
        assert!(matches!(
            verify_audit_chain(&short, &head),
            Err(AuditViolation::Truncated { .. })
        ));
    }
}

#[test]
fn recorder_captures_the_dataplane_story() {
    let w = run_world(0);
    let log = w.telemetry().event_log();
    for kind in [
        EventKind::SessionOpen,
        EventKind::HandshakeOk,
        EventKind::SealOk,
        EventKind::OpenOk,
        EventKind::BatchCommit,
        EventKind::Doorbell,
    ] {
        assert!(
            log.contains(kind.name()),
            "expected at least one {} event in:\n{}",
            kind.name(),
            &log[..log.len().min(2_000)]
        );
    }
    assert_eq!(
        w.telemetry().total_dropped(),
        0,
        "echo workload overflowed the ring"
    );
}
