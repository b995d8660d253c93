//! Exports pinned across commits, not only across reruns.
//!
//! `tests/telemetry.rs` and `tests/flight.rs` prove run-vs-run identity,
//! which a refactor that changes both runs the same way passes. This
//! suite compares the SHA-256 of each of the six exports of the
//! fixed-seed 4-queue echo world against recorded digests, for every
//! arming (instruments, timeline, both) under the serial host and two
//! worker threads. A digest here changes only when an export format or
//! the schedule changes on purpose; re-record it in the same commit and
//! say so. First recorded at the commit *before* the flight recorder
//! merged into the telemetry domain; re-recorded when an idle round began
//! to end at the fabric's next delivery and a session's flow lookup moved
//! onto its lane (fewer, differently timed rounds), again when the
//! TCP stack began to delay and piggyback its ACKs (fewer frames), and
//! again when the host began to cut and coalesce at the guest↔host frame
//! limit (a 512 B echo is one segment either way, but the rings' geometry
//! and the wire's delivery order moved). The session plane's virtual
//! timeline is pinned the same way.

use cio::session::{Arrival, LoadGenConfig, SessionPlane, SessionPlaneConfig};
use cio::world::{BoundaryKind, World, WorldOptions, ECHO_PORT};
use cio_bench::{bench_opts, telemetry_echo_world_with};
use cio_crypto::Sha256;
use cio_sim::{EventKind, Telemetry};

const EXPORTS: [&str; 6] = [
    "prometheus_text",
    "json_snapshot",
    "event_log",
    "audit_log",
    "chrome_trace",
    "render_table",
];

/// `(telemetry, observe, digests in EXPORTS order)`.
const PINS: [(bool, bool, [&str; 6]); 3] = [
    (
        true,
        false,
        [
            "ed4db51175673306429960f4c4e5511d467dc7cbf2c186daeade58fd88edda7c",
            "c5dd9b34d3c38dbe07b23643ea55884543673ed99d4800effc0856806e0d7ebb",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a77b2132f7ffef8666a7c2412f37b5319ddb7a5581bd1a1ce929ad03e044fb4c",
            "024afd0572abdde1864956d50993b9fbe3c4ef99bcbfe1aba7a8b2afd6aa74ca",
            "6a4cfd6bddf7a7d4d38af3385e490f949639d934c8b27a31c99ef47a0d7fe29b",
        ],
    ),
    (
        false,
        true,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5acf3ff77b4420677b5923071f303facaba7a9273a346284a667a275df325146",
            "6d91203ff5e08d1b613460404fa3d5ff62fbe34279d227da289c3eb8f225e59a",
            "75eaa4b5d3c4b64a0a8ea58432a7d9da34037188ab71f5bb4e2b32fcf418cb73",
            "8d41506b8a7fb2f23b32ba5ad772e44a66777853d0b961b0d71340eac628f8d5",
            "654dfdf1f4c3f236b148736d4655ae2a295a99197e70983466f656456dfb7629",
        ],
    ),
    (
        true,
        true,
        [
            "cf778a24b06cd6dcd99662d7777962de8fb5c5c5af3c1a9142163e67fb0ca291",
            "8880f79a970b27c8ac96005f0032bfe148d4f756ad16af7b67ea88297ce2c9ab",
            "6d91203ff5e08d1b613460404fa3d5ff62fbe34279d227da289c3eb8f225e59a",
            "75eaa4b5d3c4b64a0a8ea58432a7d9da34037188ab71f5bb4e2b32fcf418cb73",
            "60e4af32ba30ee291957478662df0329e275359c85a55da103481021a7f3d055",
            "6a4cfd6bddf7a7d4d38af3385e490f949639d934c8b27a31c99ef47a0d7fe29b",
        ],
    ),
];

fn sha256_hex(s: &str) -> String {
    Sha256::digest(s.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn exports(t: &Telemetry) -> [String; 6] {
    [
        t.prometheus_text(),
        t.json_snapshot(),
        t.event_log(),
        t.audit_log(),
        t.chrome_trace(),
        t.profile().render_table(),
    ]
}

#[test]
fn exports_match_the_digests_recorded_before_the_merge() {
    let off = exports(&Telemetry::disabled());
    for (telemetry, observe, pins) in PINS {
        for parallel in [0usize, 2] {
            let opts = WorldOptions {
                queues: 4,
                parallel,
                telemetry,
                observe,
                ..bench_opts()
            };
            let w = telemetry_echo_world_with(opts, 8, 8, 512).expect("echo workload");
            // The echo world is honest, so its audit chain is empty: two
            // security events give the chain (and the timeline exports)
            // real links to pin. No-ops when the timeline is off.
            w.telemetry().record(1, EventKind::OpenFail, 7, 0);
            w.telemetry().record(0, EventKind::AttackVerdict, 3, 2);
            let got = exports(w.telemetry());
            for ((name, export), pin) in EXPORTS.iter().zip(&got).zip(pins) {
                assert_eq!(
                    sha256_hex(export),
                    pin,
                    "{name} moved (telemetry={telemetry} observe={observe} parallel={parallel})"
                );
            }
            // The half that is off answers exactly as a disabled handle.
            // (The Chrome trace merges both halves, so it has no off
            // answer unless both are off.)
            for i in [0, 1, 5] {
                assert_eq!(got[i] == off[i], !telemetry, "{}", EXPORTS[i]);
            }
            for i in [2, 3] {
                assert_eq!(got[i] == off[i], !observe, "{}", EXPORTS[i]);
            }
            assert_eq!(w.telemetry().enabled(), telemetry);
            assert_eq!(w.telemetry().observing(), observe);
            assert_eq!(w.telemetry().audit_head().len, if observe { 2 } else { 0 });
        }
    }
}

/// One pinned one-queue run: `(design, final clock, recorder events /
/// bits / kinds, SHA-256 of the meter snapshot's `Debug` rendering, then
/// of `prometheus_text`, `json_snapshot` and `event_log`)`.
type OneQueuePin = (BoundaryKind, u64, (u64, u64, usize), [&'static str; 4]);

/// One row per boundary design: the one-queue round of the single
/// schedule must reproduce every one of them. First recorded at the last
/// commit that still had a separate serial schedule (`step_serial`);
/// re-recorded when an idle round began to end at the fabric's next
/// delivery instead of one quantum after a round that charged nothing:
/// dda and virtio-hardened, whose empty rounds charged nothing, fell
/// (789 142 → 752 848, 852 481 → 822 474), l5-host did not move, and the
/// rest moved by under 0.2 %. Re-recorded when the TCP stack began to
/// delay and piggyback its ACKs: every design the host sees frames of
/// shows about half the frames (dual-boundary 71 → 35 events, virtio
/// 73 → 35), the clocks fell (virtio-hardened 822 474 → 767 167,
/// dual-boundary 731 579 → 723 450), and l5-host, whose stack is the
/// host's, kept its clock and digests and lost 36 of its 154 events.
/// Re-recorded when the host began to cut and coalesce at the guest↔host
/// frame limit: the four designs with a frame backend got faster
/// (virtio-unhardened 656 528 → 640 025, virtio-hardened 767 167 →
/// 746 043, cio-ring 714 116 → 712 044, dual-boundary 723 450 →
/// 721 225) with the same host-visibility tally, since the host still
/// records every wire frame; l5-host, tunneled and dda, which keep
/// wire-size frames, did not move.
const ONE_QUEUE_PINS: [OneQueuePin; 7] = [
    (
        BoundaryKind::L5Host,
        782820,
        (118, 9120, 6),
        [
            "fa6db9c390c6fd7e1aeeea6a77a8999693bf93f76eefd0ede80866634af30086",
            "1796db59b83321c907f0c53c507b770737deaa1a8d295ec4e6d432c369a6bdf9",
            "af6ef765cb01fe2eec6552ef61766092bb8936ffc2306dd843761724cae7cf12",
            "134a722ab0bb5051b1433108b0376b9d7a8ca02c2ef9566d8ae658e3f7262d0f",
        ],
    ),
    (
        BoundaryKind::L2VirtioUnhardened,
        640025,
        (35, 4620, 2),
        [
            "e803fcd6f4c3a0377c06ed4e39456ae938e206adae6aa59860a200ed35a35ec7",
            "a1aaf882b0efa40d4f53e114c919c466b816298f06fd3f74155af7bc1367920d",
            "f03d8b598287aca27e5f39dda7b4867bfeb337494ed920228fd499b90cfce480",
            "f29950bcb128d8fe0c7b3d70cf3dcb064205073d9a6185fc8d8f236aaa0cef8b",
        ],
    ),
    (
        BoundaryKind::L2VirtioHardened,
        746043,
        (35, 4620, 2),
        [
            "88e6dee55565979824726e8b894a9c6e53640fcb2ac014044634aa9434611239",
            "abf8bcae47cd90baa81c8165bc38d59da265d87e84989c186effd02d4e2909a3",
            "74139470ede29842a332ff3413472bad598dfc76c8e127c5a1edba7c4021d1e9",
            "e0af88754cca14179a644865784e7606d40a5aeefb18296c5a3a1670bdd3b93f",
        ],
    ),
    (
        BoundaryKind::L2CioRing,
        712044,
        (35, 4620, 2),
        [
            "96713f842c6201584c3ab884c24d7802ca31e63cdc131b0906812ab256ad8089",
            "bbc76f52be33da50ffb9aa858731b6ad060adb1e6227621e19a080d5f828a38b",
            "37d454c3c368b2e6a65cbf0d174bd7fcaec8d2f1b0d8e2af08a8a01cb9a90a6d",
            "9c8e2fa02e43fc67a77b845d988b9d4d667efa18919ed929f364516c76459631",
        ],
    ),
    (
        BoundaryKind::DualBoundary,
        721225,
        (35, 4620, 2),
        [
            "8b949402260abd0c9651957f68d9de98f5e01689cd93f1c01de18f06fd19410c",
            "e738620cc831555743270c178cb40a9e83d79348e5a6adc338da082b8e7f7e8d",
            "e9755a59085d698352380ff6d8c8517a1c5b8a14b7dac861e4f51fef2afd2854",
            "8465fa87c06cc192335e98976679c4d443867332e2383480687a969c9bd2e99d",
        ],
    ),
    (
        BoundaryKind::Tunneled,
        725738,
        (35, 1260, 2),
        [
            "86a15886a79366f73b3e1b931f32478c1fa9cb8cf304c1b327b53b2120d43311",
            "2d3a8b5950bbdff85606e23a2311c052bd0ec17b1afa7ff1e243ef2aced02a79",
            "e607b3c5f9d81cd771142bcf65ccda2e8aea29f35f63c6bc76cf940c61ac553f",
            "48f02c17f5378de5c6209397f9e82cdf68cf3564387f5676a5205c6c35078d14",
        ],
    ),
    (
        BoundaryKind::Dda,
        751686,
        (36, 1296, 1),
        [
            "b70265a442a47f34a7ce4ed93e4ff9833c4f2d23dc61b956b17159aeed5aad27",
            "dccb7aebf6aac2634d2f6801a28a7b77c43613da4ebb49b96e7fcb286fe05fb5",
            "b7a3785449e811789243eeeba8a805f7aa5a2a3e1767eeb7136a31cd188758af",
            "3d7b01988cf0635e786a29e8bf33e3b6aabf92804418e7f8fa76259cb541b685",
        ],
    ),
];

/// The fixed-seed one-queue echo world behind [`ONE_QUEUE_PINS`]: two
/// sessions, three echo rounds of growing size each, both arm bits on.
fn one_queue_echo(kind: BoundaryKind) -> World {
    let opts = WorldOptions {
        seed: 0x1_0E0E,
        telemetry: true,
        observe: true,
        ..bench_opts()
    };
    let mut w = World::new(kind, opts).expect("world");
    let conns: Vec<_> = (0..2)
        .map(|_| w.connect(ECHO_PORT).expect("connect"))
        .collect();
    for &c in &conns {
        w.establish(c, 50_000).expect("establish");
    }
    for round in 0..3usize {
        for (i, &c) in conns.iter().enumerate() {
            let msg = vec![(7 * i + round) as u8; 90 + 700 * round + 33 * i];
            w.send(c, &msg).expect("send");
            assert_eq!(w.recv_exact(c, msg.len(), 200_000).expect("echo"), msg);
        }
    }
    w
}

/// SHA-256 of a fixed-seed [`SessionPlane`] run's `prometheus_text`,
/// `json_snapshot`, `report()` and meter snapshot (`Debug` renderings for
/// the last two). Recorded while every handshake still ran its own
/// X25519 ladders one after another; batching the ladders into lanes
/// must move no cycle, no charge and no export.
const SESSION_PLANE_PINS: [&str; 4] = [
    "a322c2bdfe54e0d7a174343da8dfdc03c27d786653c7b92e9974995767a777cc",
    "10af8acbbde6bb4e6810b169d59bbe193b62ccd75389aeb8322e173583e4b515",
    "ba9ff2418cff6514277c3bf9a402f1c77377fd0d29da0f610f7e967c485fbe2f",
    "bd4653cf0abf6f3568385d72ef4916057f81be86b51df4a32f8657e17d02aa8f",
];

#[test]
fn session_plane_exports_are_pinned() {
    // Batches of nine over a churning population of 100: runs of one
    // (the 100th arrival of the first tick), full lane groups and ragged
    // tails all occur, on both sides of the handshake.
    let cfg = SessionPlaneConfig {
        shards: 4,
        load: LoadGenConfig {
            seed: 0x5E55,
            arrival: Arrival::Closed { population: 100 },
            churn: 0.1,
            size_min: 32,
            size_max: 700,
            size_alpha: 1.2,
        },
        rekey_interval: Some(8),
        handshake_batch: 9,
    };
    let mut plane = SessionPlane::new(cfg).expect("plane");
    plane.run(12).expect("run");
    let t = plane.telemetry();
    let got = [
        t.prometheus_text(),
        t.json_snapshot(),
        format!("{:?}", plane.report()),
        format!("{:?}", plane.meter().snapshot()),
    ];
    let names = ["prometheus_text", "json_snapshot", "report", "meter"];
    for ((name, text), pin) in names.iter().zip(&got).zip(SESSION_PLANE_PINS) {
        assert_eq!(
            sha256_hex(text),
            pin,
            "session plane: {name} moved ({} / {})",
            got[2],
            got[3]
        );
    }
}

#[test]
fn one_queue_schedule_is_pinned_for_every_design() {
    for (kind, clock, (events, bits, kinds), digests) in ONE_QUEUE_PINS {
        let w = one_queue_echo(kind);
        let obs = w.recorder().summary();
        assert_eq!(w.clock().now().get(), clock, "{kind}: clock moved");
        assert_eq!(
            (obs.events, obs.bits, obs.kinds),
            (events, bits, kinds),
            "{kind}: host-visibility tally moved"
        );
        let t = w.telemetry();
        let got = [
            format!("{:?}", w.meter().snapshot()),
            t.prometheus_text(),
            t.json_snapshot(),
            t.event_log(),
        ];
        let names = ["meter", "prometheus_text", "json_snapshot", "event_log"];
        for ((name, text), pin) in names.iter().zip(&got).zip(digests) {
            assert_eq!(sha256_hex(text), pin, "{kind}: {name} moved ({})", got[0]);
        }
    }
}
