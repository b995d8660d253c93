//! Cross-crate security invariants: the claims §3 makes, executed.

use cio::attacks::{run_scenario, Outcome};
use cio::world::{BoundaryKind, World, WorldOptions, ECHO_PORT};
use cio_host::adversary::{AttackKind, ALL_ATTACKS};
use cio_host::fabric::LinkParams;
use cio_sim::Cycles;
use cio_tee::trust::{Party, TrustMatrix};

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
    use cio_ctls::{Channel, CtlsError};
    let mut tx = Channel::from_secrets([1; 32], [2; 32], true, None);
    let mut rx = Channel::from_secrets([1; 32], [2; 32], false, None);
    let r1 = tx.seal(b"transfer $100").unwrap();
    assert_eq!(rx.open(&r1).unwrap(), b"transfer $100");
    assert_eq!(rx.open(&r1), Err(CtlsError::BadSequence));
}

/// The trust matrix drives TCB claims: verify the matrix agrees with the
/// measured TCB ordering from cio-study.
#[test]
fn trust_matrix_matches_tcb_accounting() {
    let ternary = TrustMatrix::ternary();
    let single = TrustMatrix::single_boundary();
    assert!(!ternary.tcb_of(Party::App).contains(&Party::IoStack));
    assert!(single.tcb_of(Party::App).contains(&Party::IoStack));

    let reports = cio_study::tcb::measure_all(&cio_study::tcb::default_crates_dir());
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

/// E10 regression pins: the matrix outcomes the docs quote.
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
    }
}

/// The storage plane inherits the dataplane's threat model: the batched
/// block ring must detect response aliasing, mid-batch poison, and
/// whole-snapshot rollback — fail closed with the right verdict, blast
/// radius contained to the attacked blocks, verdict sealed into a
/// verified audit chain.
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
        assert!(r.audit_ok, "verdict not sealed: {r:?}");
    }
}
