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
//! onto its lane (fewer, differently timed rounds). The session plane's
//! virtual timeline is pinned the same way.

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
            "5fba112aa20df790320fbff8df798f34312d929e336bc346d18cd9c0c90f3901",
            "442ce7402f3d2532b771ad19712525a793ed128c6091997ee9141054458293b3",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a77b2132f7ffef8666a7c2412f37b5319ddb7a5581bd1a1ce929ad03e044fb4c",
            "b1ae4ac569b6f610e3bcf4f0ff82ef8100771e7e4a6952819eeb88382c3e5a9f",
            "7a99e175ef4d7cf69b20b568ac596f5fb4a4e7a28f997f46b821c1dc2c69d16c",
        ],
    ),
    (
        false,
        true,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5acf3ff77b4420677b5923071f303facaba7a9273a346284a667a275df325146",
            "b7b34c78085d2793cb66600959cf26acbd14e707af132685488c284429759bb4",
            "d4fd2b53557698253b7fe710030269a0bdd3f3a5bfb6bb54758abaa0c9a5eb80",
            "1c843a9b26051fa896933fdb9019d56cd6df47d983594b78c461f0c2c1775612",
            "654dfdf1f4c3f236b148736d4655ae2a295a99197e70983466f656456dfb7629",
        ],
    ),
    (
        true,
        true,
        [
            "b58b32d2daa7f7f118436c693d78b7b5bb844c807b116c1d3b817ef6895ffdc6",
            "665cf588d6b892b46d6456247c8a4cb64a37eeab1d0d2acb65f631295d8f099d",
            "b7b34c78085d2793cb66600959cf26acbd14e707af132685488c284429759bb4",
            "d4fd2b53557698253b7fe710030269a0bdd3f3a5bfb6bb54758abaa0c9a5eb80",
            "1364d104e2dad260d349f08b76c0e321b4186200983e21c037b747328b4c64c1",
            "7a99e175ef4d7cf69b20b568ac596f5fb4a4e7a28f997f46b821c1dc2c69d16c",
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
/// rest moved by under 0.2 %.
const ONE_QUEUE_PINS: [OneQueuePin; 7] = [
    (
        BoundaryKind::L5Host,
        782820,
        (154, 13872, 6),
        [
            "fa6db9c390c6fd7e1aeeea6a77a8999693bf93f76eefd0ede80866634af30086",
            "1796db59b83321c907f0c53c507b770737deaa1a8d295ec4e6d432c369a6bdf9",
            "af6ef765cb01fe2eec6552ef61766092bb8936ffc2306dd843761724cae7cf12",
            "134a722ab0bb5051b1433108b0376b9d7a8ca02c2ef9566d8ae658e3f7262d0f",
        ],
    ),
    (
        BoundaryKind::L2VirtioUnhardened,
        668708,
        (73, 9636, 2),
        [
            "38fb32ef226e39ead3482bea8e71d44a3252fdbc8a2f269afc2818024846dc3c",
            "8d300448df3df4241bcb8e2ae96e90494f39c822c577ad77fc67b53c92037692",
            "c4101e69e43f2592df99da6fe8c6fc52981a1d6dede07727dd4a6dea846f2eef",
            "c1eefb98cb4042998d1af557d0821a9daada2d76643377d60dbe05f41d4a76b9",
        ],
    ),
    (
        BoundaryKind::L2VirtioHardened,
        822474,
        (73, 9636, 2),
        [
            "06801e1a143b67bd6a33ea0cac13e1ddb24b0ddee90040fa7094eab251a711dd",
            "cfed7f934df33c89a9fe83da507bd3bcb829d7f747163676172400409c014a7a",
            "6cf16c2904048dccc7eb58b1b3e7fc5aa5f5f4fdf59d42e2b25f3dfce7c44344",
            "357d8b9700705abbf42d5f36c4d4f35119ef8f2b3fea60ea618397f9dfb9176f",
        ],
    ),
    (
        BoundaryKind::L2CioRing,
        722083,
        (73, 9636, 2),
        [
            "ce4d2d81811cc331a905f504a327a5fa07fcf330f30413ff81ddc4ed9448fe8c",
            "7bd1dd4a5d26a16642fb411362f5c49ec353af3aa54f7a98d31c67ba87acf5c0",
            "66f7880af2ef10106f50740a244a0af1adab919699b2f6a23c336aa640859485",
            "1d37ce18a678c528611f679b386928577e91eb92e462839ea537091b126dab89",
        ],
    ),
    (
        BoundaryKind::DualBoundary,
        731579,
        (71, 9372, 2),
        [
            "4af345294f266f7c95e3cf0423545c29bea4c2ff8ee5a7534ef86145ab9966e6",
            "b64019bed039d3d6a9eb67dd4ab9f1939108a913a0c675490d1895135ae6ce79",
            "9aeda090a3c655aa9a797dded62c3765353b68f799efce3326087ad31a7fd529",
            "ae8665554a410dbfc9263d44310a5447f931a3ced3a6e045e046d1ba49e287b2",
        ],
    ),
    (
        BoundaryKind::Tunneled,
        738251,
        (73, 2628, 2),
        [
            "7b874f11cd4a1a697d9bc587225baffc43acd225e15b0267b32c3d32cd53535c",
            "09422af32f4b7eb97a650eca069f63f1a005b6bf5d5e888890f263f3a13a2f38",
            "60c379243a0e307825f1cf2293630d4136f52e824d4bdd6cd4382e53a18f59c6",
            "3ec586d5d47287c4103b5fc376860cbb6cb98e3c9218e8e5c58b05e374f8acb4",
        ],
    ),
    (
        BoundaryKind::Dda,
        752848,
        (74, 2664, 1),
        [
            "ed1daf36a030fc30c01230d9643eb91f13493901357e4c9052bdafb8c2071a86",
            "9ecf25118d7682638151efc781a9b3728dbe5b359637dc9e75b4ff447125d8c1",
            "1d021fb2be6562dd79b2f7c8da85a6f5a9fc2c66c1fa3c222e168fc4dd58450d",
            "cc3edf0ab960b5c381fa5a9cbab0e7f6d9ca510836deea3c8c2dc4b72384eed5",
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
