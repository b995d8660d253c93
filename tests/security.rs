//! Cross-crate security invariants: the claims §3 makes, executed.

use cio::attacks::{run_scenario, Outcome};
use cio::world::{BoundaryKind, World, WorldOptions, ECHO_PORT};
use cio_host::adversary::{AttackKind, ALL_ATTACKS};
use cio_host::fabric::LinkParams;
use cio_sim::{Cycles, EventKind};

fn opts() -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        ..WorldOptions::default()
    }
}

/// The paper's headline security claim, as one assertion: across the whole
/// attack suite, the safe-by-construction designs never act on hostile
/// data unknowingly, while the unhardened baseline does.
#[test]
fn safety_by_construction_holds_across_the_suite() {
    let mut unhardened_undetected = 0;
    for attack in ALL_ATTACKS {
        let safe = run_scenario(BoundaryKind::DualBoundary, attack).unwrap();
        assert_ne!(
            safe.outcome,
            Outcome::Undetected,
            "dual boundary fell to {attack}"
        );
        let base = run_scenario(BoundaryKind::L2VirtioUnhardened, attack).unwrap();
        if base.outcome == Outcome::Undetected {
            unhardened_undetected += 1;
        }
    }
    assert!(unhardened_undetected >= 4, "got {unhardened_undetected}");
}

/// §3.1: compromising the I/O stack must yield only observability. We
/// model a fully compromised stack/host pair by corrupting every record
/// that crosses the rx ring — the application must never accept a
/// falsified byte.
#[test]
fn compromised_io_path_cannot_forge_application_data() {
    let mut w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 8_000).unwrap();
    w.send(c, b"genuine request").unwrap();
    let reply = w.recv_exact(c, 15, 8_000).unwrap();
    assert_eq!(reply, b"genuine request");

    // Now the compromised path mangles everything in the rx payload area.
    let mem = w.guest_memory().clone();
    let (_, rx_ring) = w.anatomy().cio_queues[0].clone();
    w.send(c, b"second request").unwrap();
    for _ in 0..400 {
        // Corrupt continuously while the reply is in flight.
        for slot in 0..rx_ring.config().slots {
            let payload = rx_ring.payload_addr(slot);
            let _ = mem.host().write(payload.add(40), &[0xFF; 8]);
        }
        let _ = w.step();
        let got = w.recv(c).unwrap();
        // Nothing forged may surface: either silence or the exact bytes
        // (if a reply squeaked through between corruption passes).
        assert!(
            got.is_empty() || got == b"second request",
            "forged bytes reached the app: {got:?}"
        );
    }
}

/// cTLS end-to-end: a host that replays TCP payload data cannot replay
/// application messages (the §3.2 "attempts to break TCP guarantees").
#[test]
fn record_replay_never_surfaces_twice() {
    use cio_ctls::{Channel, CtlsError, RecordScratch};
    let mut tx = Channel::from_secrets([1; 32], [2; 32], true, None);
    let mut rx = Channel::from_secrets([1; 32], [2; 32], false, None);
    let mut rec = RecordScratch::new();
    tx.seal_into(b"transfer $100", &mut rec).unwrap();
    let mut plain = RecordScratch::new();
    rx.open_into(rec.as_slice(), &mut plain).unwrap();
    assert_eq!(plain.as_slice(), b"transfer $100");
    assert_eq!(
        rx.open_into(rec.as_slice(), &mut plain),
        Err(CtlsError::BadSequence)
    );
}

/// The ternary trust model is the TCB rule Figure 5 counts by: behind a
/// compartment crossing the I/O stack is semi-trusted and outside the
/// application's TCB; with no crossing the application trusts it. The
/// measured ordering follows.
#[test]
fn trust_matrix_matches_tcb_accounting() {
    use cio_study::tcb::{
        count_loc, default_crates_dir, measure, Crossing, COMMON, COMPARTMENT, STACK, TCB_SPECS,
    };

    let dir = default_crates_dir();
    let sum = |paths: &[&str]| -> u64 { paths.iter().map(|p| count_loc(&dir.join(p))).sum() };
    let spec = |d: &str| TCB_SPECS.iter().find(|s| s.design == d).unwrap();
    let (dual, cio) = (spec("dual-boundary"), spec("cio-ring"));
    assert_eq!(
        (dual.crossing, cio.crossing),
        (Crossing::Compartment, Crossing::None)
    );
    let (dual, cio) = (measure(&dir, dual), measure(&dir, cio));
    let stack = sum(STACK);
    assert!(stack > 0);
    assert_eq!(dual.semi_trusted_loc, stack + dual.transport_loc);
    assert_eq!(dual.app_trusted_loc, sum(COMMON) + sum(COMPARTMENT));
    assert_eq!(cio.app_trusted_loc, sum(COMMON) + stack + cio.transport_loc);
    assert_eq!(cio.semi_trusted_loc, 0);

    let reports = cio_study::tcb::measure_all(&dir);
    let loc = |d: &str| {
        reports
            .iter()
            .find(|r| r.design == d)
            .unwrap()
            .app_trusted_loc
    };
    // The dual design's application trusts what the L5 design's does plus
    // the compartment mechanism — and none of the I/O stack.
    assert!(loc("l5-host") < loc("dual-boundary"));
    assert!(loc("dual-boundary") < loc("cio-ring"));
}

/// Page protection is the bedrock: no host path may ever read or write
/// private guest memory, including mid-workload.
#[test]
fn host_never_touches_private_memory() {
    let w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    let mem = w.guest_memory().clone();
    // Find a private page (the tail of guest memory is never shared).
    let private = cio_mem::GuestAddr((4000 * cio_mem::PAGE_SIZE) as u64);
    let mut buf = [0u8; 64];
    assert_eq!(
        mem.host().read(private, &mut buf),
        Err(cio_mem::MemError::Protected)
    );
    assert_eq!(
        mem.host().write(private, &[0u8; 64]),
        Err(cio_mem::MemError::Protected)
    );
}

/// Attestation gates the channel: a peer with the wrong measurement can
/// complete TCP but never completes cTLS.
#[test]
fn wrong_measurement_peer_is_rejected() {
    use cio_ctls::{ClientHandshake, ServerHandshake, ServerIdentity};
    use cio_tee::attest::Measurement;
    let (hello, client) = ClientHandshake::start([3u8; 64], None);
    let evil = ServerIdentity {
        platform_key: [0x42; 32],                         // right platform...
        measurement: Measurement::of(b"backdoored-peer"), // ...wrong code
    };
    let (sh, _srv) = ServerHandshake::respond(&hello, &evil, [4u8; 64], None).unwrap();
    let r = client.finish(&sh, &[0x42; 32], &Measurement::of(b"cio-secure-peer-v1"));
    assert!(r.is_err());
}

/// The seal-in-slot dataplane changes where bytes live, not what the
/// adversary can do: every ring-targeted attack (index jumps, slot
/// forgery with hostile offset/length pairs, notification storms) ends
/// with the same outcome whether records are positioned in place or
/// through the staged copy path, and the in-slot consume keeps the
/// double-fetch window closed.
#[test]
fn attack_outcomes_unchanged_under_in_slot_dataplane() {
    use cio::attacks::{attack_opts, payload_toctou_in_slot, run_scenario_on};
    use cio_mem::CopyPolicy;

    let run = |b, a, copy_policy| {
        let opts = WorldOptions {
            copy_policy,
            ..attack_opts()
        };
        run_scenario_on(b, a, opts).unwrap()
    };

    for b in [
        BoundaryKind::L2CioRing,
        BoundaryKind::DualBoundary,
        BoundaryKind::Tunneled,
    ] {
        for a in [
            AttackKind::IndexJump,
            AttackKind::SlotForgery,
            AttackKind::NotificationStorm,
        ] {
            let in_place = run(b, a, CopyPolicy::InPlace);
            let staged = run(b, a, CopyPolicy::CopyEarly);
            assert_eq!(
                in_place.outcome, staged.outcome,
                "{b} vs {a}: in-place and staged outcomes diverged"
            );
            assert_eq!(
                in_place.workload_survived, staged.workload_survived,
                "{b} vs {a}: survival diverged"
            );
            assert_ne!(in_place.outcome, Outcome::Undetected, "{b} vs {a}");
        }
    }
    // Host flips the slot after the in-place consume: single fetch under
    // the memory lock leaves nothing to re-fetch.
    assert_eq!(payload_toctou_in_slot().unwrap(), Outcome::Prevented);
}

/// The batched dataplane amortizes boundary crossings, not validation:
/// every attack in the E10 suite ends with the same outcome whether the
/// world runs the per-record path or multi-record commit/consume with
/// shared-keystream AEAD batching, and a host that corrupts one slot of
/// a committed run poisons exactly that record — the rest of the batch
/// opens byte-correct and in order.
#[test]
fn attack_outcomes_unchanged_under_batched_dataplane() {
    use cio::attacks::{attack_opts, batch_partial_poison, run_scenario_on};
    use cio::world::BatchPolicy;

    let run = |b, a, batch| {
        let opts = WorldOptions {
            batch,
            ..attack_opts()
        };
        run_scenario_on(b, a, opts).unwrap()
    };

    for b in [
        BoundaryKind::L2CioRing,
        BoundaryKind::DualBoundary,
        BoundaryKind::Tunneled,
    ] {
        for a in ALL_ATTACKS {
            let serial = run(b, a, BatchPolicy::Serial);
            let batched = run(b, a, BatchPolicy::Fixed(8));
            assert_eq!(
                serial.outcome, batched.outcome,
                "{b} vs {a}: serial and batched outcomes diverged"
            );
            assert_eq!(
                serial.workload_survived, batched.workload_survived,
                "{b} vs {a}: survival diverged"
            );
            assert_ne!(batched.outcome, Outcome::Undetected, "{b} vs {a}");
        }
    }
    // One hostile slot mid-batch fails closed alone; no poisoning or
    // reordering of its neighbours.
    assert_eq!(batch_partial_poison().unwrap(), Outcome::Detected);
}

/// The thread-per-queue parallel host moves servicing onto live OS
/// threads, but the attack surface is the shared ring state, and every
/// defense is a per-queue state machine behind the striped memory locks:
/// each attack in the E10 suite must classify exactly as it does against
/// the serial multiqueue host, with the same workload survival.
#[test]
fn attack_outcomes_unchanged_under_parallel_host() {
    use cio::attacks::{attack_opts, run_scenario_on};

    let run = |b, a, parallel| {
        let opts = WorldOptions {
            queues: 4,
            parallel,
            ..attack_opts()
        };
        run_scenario_on(b, a, opts).unwrap()
    };

    for b in [BoundaryKind::L2CioRing, BoundaryKind::DualBoundary] {
        for a in ALL_ATTACKS {
            let serial = run(b, a, 0);
            let parallel = run(b, a, 4);
            assert_eq!(
                serial.outcome, parallel.outcome,
                "{b} vs {a}: serial and parallel-host outcomes diverged"
            );
            assert_eq!(
                serial.workload_survived, parallel.workload_survived,
                "{b} vs {a}: survival diverged"
            );
            assert_ne!(parallel.outcome, Outcome::Undetected, "{b} vs {a}");
        }
    }
}

/// The scenario no serial matrix can express: a hostile OS thread
/// mutates the last queue's RX ring (index forgery + slot scribbles)
/// *while* worker threads service the queues and the guest commits
/// batched records. Racing the validation must be no better than
/// sequencing with it: the violations are detected, nothing lands
/// undetected, and flows steered away from the attacked queue live on.
#[test]
fn hostile_mutation_races_live_worker_threads() {
    use cio::attacks::parallel_hostile_mutation;

    let (report, sweeps) = parallel_hostile_mutation(4).unwrap();
    assert!(sweeps > 0, "the attacker thread never ran");
    assert_ne!(
        report.outcome,
        Outcome::Undetected,
        "a racing mutator slipped past validation: {report:?}"
    );
    assert!(
        report.workload_survived,
        "the blast radius escaped the attacked queue: {report:?}"
    );
}

/// E10 regression pins: the matrix outcomes the docs quote. Each
/// scenario that built a world also left its verdict as the newest event
/// on queue 0 of that world's timeline, filed under the scenario's index
/// in `ALL_ATTACKS` with the outcome's code.
#[test]
fn attack_matrix_pinned_outcomes() {
    let cases = [
        (
            BoundaryKind::L2VirtioUnhardened,
            AttackKind::CompletionIdOob,
            Outcome::Undetected,
        ),
        (
            BoundaryKind::L2VirtioHardened,
            AttackKind::CompletionIdOob,
            Outcome::Detected,
        ),
        (
            BoundaryKind::L2VirtioHardened,
            AttackKind::ConfigDoubleFetch,
            Outcome::Prevented,
        ),
        (
            BoundaryKind::DualBoundary,
            AttackKind::ConfigDoubleFetch,
            Outcome::NoSurface,
        ),
        (
            BoundaryKind::DualBoundary,
            AttackKind::IndexJump,
            Outcome::Detected,
        ),
        (
            BoundaryKind::DualBoundary,
            AttackKind::SlotForgery,
            Outcome::Prevented,
        ),
    ];
    for (b, a, expected) in cases {
        let r = run_scenario(b, a).unwrap();
        assert_eq!(r.outcome, expected, "{b} vs {a}");
        assert_eq!(
            r.timeline.observing(),
            expected != Outcome::NoSurface,
            "{b} vs {a}: a world is built exactly where there is a surface"
        );
        let newest = r.timeline.events(0).last().map(|e| (e.kind, e.a, e.b));
        let index = ALL_ATTACKS.iter().position(|&x| x == a).unwrap() as u64;
        let verdict = (EventKind::AttackVerdict, index, expected.code());
        assert_eq!(
            newest,
            r.timeline.observing().then_some(verdict),
            "{b} vs {a}: verdict is not the newest event on queue 0"
        );
    }
}

/// The storage plane inherits the dataplane's threat model: the batched
/// block ring must detect response aliasing, mid-batch poison, and
/// whole-snapshot rollback — fail closed with the right verdict, blast
/// radius contained to the attacked blocks.
#[test]
fn batched_block_ring_survives_the_storage_adversary() {
    let reports = cio::attacks::run_blk_suite().unwrap();
    assert_eq!(reports.len(), 3);
    let expected = [
        AttackKind::SlotForgery,
        AttackKind::PayloadDoubleFetch,
        AttackKind::SpuriousCompletion,
    ];
    for (r, want) in reports.iter().zip(expected) {
        assert_eq!(r.attack, want);
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.fail_closed, "hostile bytes reached the caller: {r:?}");
        assert!(r.intact_elsewhere, "blast radius escaped: {r:?}");
    }
}
