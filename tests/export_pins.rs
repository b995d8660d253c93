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
//! and the wire's delivery order moved), and again when neighbours became
//! static (no ARP exchange before the first SYN, so every connect is
//! earlier and no ARP frame crosses the wire). The session plane's
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
            "1b9f1469a9e1f26f337c118bff0bdc1c819c244da41feb9e6d27591af03c1e92",
            "7550dcf6c320e7a351e38bad156fa4fde346e314d318737273fba7a76e87764e",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a77b2132f7ffef8666a7c2412f37b5319ddb7a5581bd1a1ce929ad03e044fb4c",
            "c61b54f149832dde2834654a924a19fa0af97b5fb1d789f72f2bab867bd8d1ab",
            "31465c197bf50ac2d13905206250c28d3c754f77da6a6dc5c782cf9fc1fcdaf3",
        ],
    ),
    (
        false,
        true,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5acf3ff77b4420677b5923071f303facaba7a9273a346284a667a275df325146",
            "beedd1cca1c15c5566c490809d80d5ad085c24f223ef3f3867671e3047d13eea",
            "f750292cc6b09254db662896a5af64ed7a8eeed5777196c5fd55fbbb7c6d92bb",
            "1c1c468d0aeaac6ee20a307c75c9dd92538b29680313d5ab7249c17202dc9288",
            "654dfdf1f4c3f236b148736d4655ae2a295a99197e70983466f656456dfb7629",
        ],
    ),
    (
        true,
        true,
        [
            "d1cf3cddfecd179bf2937e49550c43e7460109109da0c45687c210e2f812a0f3",
            "894b93ad91b0f70e83feeb824f6f9bb58fce0b4ab55375628e81854f813105ba",
            "beedd1cca1c15c5566c490809d80d5ad085c24f223ef3f3867671e3047d13eea",
            "f750292cc6b09254db662896a5af64ed7a8eeed5777196c5fd55fbbb7c6d92bb",
            "10f52adc6183effcb193db9686821e549883d40c8a4b662763680cee1fbeca7e",
            "31465c197bf50ac2d13905206250c28d3c754f77da6a6dc5c782cf9fc1fcdaf3",
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
/// wire-size frames, did not move. Re-recorded when neighbours became
/// static: no ARP request and reply precede the first SYN, so every design
/// finishes earlier (l5-host 782 820 → 747 820, virtio-unhardened
/// 640 025 → 633 217, virtio-hardened 746 043 → 737 387, cio-ring
/// 712 044 → 705 341, dual-boundary 721 225 → 713 470, tunneled 725 738
/// → 718 645, dda 751 686 → 745 614) and the host records no ARP frames
/// (four events fewer on every L2 design; fourteen on l5-host, whose host
/// also records every socket call, and the earlier connect needs fewer).
const ONE_QUEUE_PINS: [OneQueuePin; 7] = [
    (
        BoundaryKind::L5Host,
        747820,
        (104, 8128, 6),
        [
            "556d6a3bb5596bd1e23dbfdbb1c79024770b43a98619daa2e66f0ac1d3fe9fb1",
            "1cd4ed0c2730ad1f11e0bf13f3ab74a263eb3a2db24ac6e64460667daf103557",
            "9e6d1aa5be024d41048b6a9ba842c18176a7cb7cc47fe988c8cf1c3456a7e55e",
            "f605e98a60c3817cbda794d3e47bf7b29118224f67dc077b74526516f1387d81",
        ],
    ),
    (
        BoundaryKind::L2VirtioUnhardened,
        633217,
        (31, 4092, 2),
        [
            "6a0350516422b0076630cbd4eede9bfbdf769a5f3edbb54f379c882ad7ea83c9",
            "8fd29a218f77b2ce5eed0b0352c5653ecf62d7fd270f72344d6cb0565ddf7feb",
            "03b56fe422ac36c0d166c0d2d2e7d3f424ccd2aee77258bde2a22b5c5b373818",
            "973231282b81f3ece841a45dec29e7a3b2f636a912a776ad6f61f527d9c6ef7e",
        ],
    ),
    (
        BoundaryKind::L2VirtioHardened,
        737387,
        (31, 4092, 2),
        [
            "b7501280fa28530ed72244f74a39f5f739787f848f51c2d494ffbb3e5ad0400f",
            "82080e54fdb9dd1f919763a615bb0b29c463201f2bfe585d3317137d32469c45",
            "93c51dcb315b9f14bc6c5cca900239c3ef49677acf50454c8064f53a3224e36c",
            "8bddd8f51c735f45d1cc72a01c9c681328833f3bb7491614d89b5b95f7d634ab",
        ],
    ),
    (
        BoundaryKind::L2CioRing,
        705341,
        (31, 4092, 2),
        [
            "e668b8317b3a0b2680c4731e5360711de1e4a637809c74c0213ce2aa6c3bd4e3",
            "4457477c8d64016eabf5e1b193212f7c478d78d512b337daba6176c5215d87a3",
            "0581e5cc8d56a5747c39d12cecec262a89b3eb27553f9c918d38e9097cce79e8",
            "d4a4ca23e758a9c396e161865ab8d2a2f16e223ab777365d48489103651ab1ca",
        ],
    ),
    (
        BoundaryKind::DualBoundary,
        713470,
        (31, 4092, 2),
        [
            "7d62ba4f0531a23e35ac39c2f5cd747c047710590e743674f7a578bfc0f7c70b",
            "aa68a703cfd6a2e3dfc07ba2b45974b7e80747d25a4c5264afd23965f96cf403",
            "e827bb652e4f884dc14687057efae98b6a539bcd3c33a643d9e6d55d4d668732",
            "a544d1c2f333de6509ae8950d60983cb0a4d7791b48de299a2c063373d2220ef",
        ],
    ),
    (
        BoundaryKind::Tunneled,
        718645,
        (31, 1116, 2),
        [
            "ba36af854950f2c0154f907b39c188b062e375dacd70774f288474b277f54c78",
            "7f3543fc47066db2fd8e3323f706155de72590bd8d48adfd8e6830ec242516d4",
            "7b6ccfe253d1bf180c8abfd2e9b3914a7bfa8b033e97a630383de6f2c4dd151f",
            "f566d370db96f39bc46b8caa1d9e9bfe029cee608a46c5ec879f3f3bbdc8e13b",
        ],
    ),
    (
        BoundaryKind::Dda,
        745614,
        (32, 1152, 1),
        [
            "668abebf0fa4dbde3a064779d0b1fc253aa999db772dbb4790d7a64ec4fbb07f",
            "24fa041578ebef4da55b727b908dd29bbe56b6691be20af8379c24c84820cd6b",
            "c783039f772cebebb7f15929ea8da9010e32e56a2d60215fd5dccaa26aa0a9af",
            "2a47abbdd16fc1eb8f46a17682099a422c36fe99d91a4d62d3f2ad40c046b332",
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
