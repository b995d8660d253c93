//! Reproducibility: identical seeds and cost models must give bit-equal
//! virtual-time results — the property that makes EXPERIMENTS.md's tables
//! regenerable.

use cio::world::{BoundaryKind, World, WorldOptions, ALL_BOUNDARIES, ECHO_PORT};
use cio_host::fabric::LinkParams;
use cio_sim::Cycles;

fn opts(seed: u64) -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        seed,
        ..WorldOptions::default()
    }
}

fn run_once(kind: BoundaryKind, seed: u64) -> (u64, cio_sim::MeterSnapshot, u64) {
    let mut w = World::new(kind, opts(seed)).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 8_000).unwrap();
    for i in 0..4u32 {
        let msg = vec![i as u8; 300 + i as usize];
        w.send(c, &msg).unwrap();
        let got = w.recv_exact(c, msg.len(), 8_000).unwrap();
        assert_eq!(got, msg);
    }
    (
        w.clock().now().get(),
        w.meter().snapshot(),
        w.recorder().summary().bits,
    )
}

#[test]
fn identical_seeds_identical_universes() {
    for kind in ALL_BOUNDARIES {
        let a = run_once(kind, 7);
        let b = run_once(kind, 7);
        assert_eq!(a.0, b.0, "{kind}: clock diverged");
        assert_eq!(a.1, b.1, "{kind}: meter diverged");
        assert_eq!(a.2, b.2, "{kind}: observability diverged");
    }
}

#[test]
fn different_seeds_still_deliver() {
    // Different entropy changes keys and ISNs, never correctness.
    for seed in [1u64, 99, 0xDEADBEEF] {
        let (clock, meter, _) = run_once(BoundaryKind::DualBoundary, seed);
        assert!(clock > 0);
        assert!(meter.aead_bytes > 0);
    }
}

/// Runs a multi-connection echo workload at `queues` queues and returns
/// the global trace plus every per-queue meter snapshot.
fn run_multiqueue(
    queues: usize,
    seed: u64,
) -> (
    u64,
    cio_sim::MeterSnapshot,
    u64,
    Vec<cio_sim::MeterSnapshot>,
) {
    let mut w = World::builder(BoundaryKind::L2CioRing)
        .options(opts(seed))
        .queues(queues)
        .build()
        .unwrap();
    let conns: Vec<_> = (0..6).map(|_| w.connect(ECHO_PORT).unwrap()).collect();
    for &c in &conns {
        w.establish(c, 20_000).unwrap();
    }
    for (i, &c) in conns.iter().enumerate() {
        let msg = vec![i as u8; 700 + 41 * i];
        w.send(c, &msg).unwrap();
        let got = w.recv_exact(c, msg.len(), 20_000).unwrap();
        assert_eq!(got, msg, "queue-steered echo corrupted");
    }
    let per_queue = w.queue_meters();
    (
        w.clock().now().get(),
        w.meter().snapshot(),
        w.recorder().summary().bits,
        per_queue,
    )
}

#[test]
fn multiqueue_runs_are_deterministic_per_queue() {
    for queues in [1usize, 2, 4] {
        let a = run_multiqueue(queues, 11);
        let b = run_multiqueue(queues, 11);
        assert_eq!(a.0, b.0, "{queues} queues: clock diverged");
        assert_eq!(a.1, b.1, "{queues} queues: meter diverged");
        assert_eq!(a.2, b.2, "{queues} queues: observability diverged");
        assert_eq!(a.3.len(), queues, "backend queue count");
        for (q, (ma, mb)) in a.3.iter().zip(&b.3).enumerate() {
            assert_eq!(ma, mb, "{queues} queues: queue {q} meter diverged");
        }
    }
    // With 4 queues, the steering hash must actually spread this workload.
    let spread = run_multiqueue(4, 11).3;
    let busy = spread.iter().filter(|m| m.bytes_copied > 0).count();
    assert!(busy > 1, "all flows landed on one queue: {spread:?}");
}

#[test]
fn lossy_runs_are_reproducible_too() {
    let lossy = |seed| {
        let o = WorldOptions {
            link: LinkParams {
                latency: Cycles(1_000),
                loss: 0.05,
            },
            seed,
            ..WorldOptions::default()
        };
        let mut w = World::new(BoundaryKind::L2CioRing, o).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 60_000).unwrap();
        w.send(c, &[9u8; 5_000]).unwrap();
        let got = w.recv_exact(c, 5_000, 300_000).unwrap();
        assert_eq!(got.len(), 5_000);
        w.clock().now().get()
    };
    assert_eq!(lossy(42), lossy(42));
}
