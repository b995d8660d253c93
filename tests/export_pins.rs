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
//! onto its lane (fewer, differently timed rounds), and again when the
//! TCP stack began to delay and piggyback its ACKs (fewer frames). The
//! session plane's virtual timeline is pinned the same way.

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
            "485de5609f8287ecf2dca3ab963a7653d118fc1346aa215e2288409d472da95b",
            "cfb3327b0bf728a7ac9c58334f34022a70fc83e4f7b1c8380109c0eedbe3a3ce",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a77b2132f7ffef8666a7c2412f37b5319ddb7a5581bd1a1ce929ad03e044fb4c",
            "fab8e3e87917f7dc4295b7fb95a018323be487ab36c7d48e248328a6ac9b7575",
            "22d843e6492355fb7d67d9ee4c14dda2b18bcaf30d1332f08ed83cf4c6a31746",
        ],
    ),
    (
        false,
        true,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5acf3ff77b4420677b5923071f303facaba7a9273a346284a667a275df325146",
            "a5daf7df458f0d7e01a7e77ae852c7e54e808c09742b0dc3f17d1dffc429dd05",
            "4c3b0e71154a1e1c3b3746eb41afc5d886af410bceaec9554a7a4ae817382fdb",
            "e76d617a53a62a0739e69bcef1002f3ba7929ce2393794f991bcb55893dbd5b9",
            "654dfdf1f4c3f236b148736d4655ae2a295a99197e70983466f656456dfb7629",
        ],
    ),
    (
        true,
        true,
        [
            "fbbd8c894a422b9369143ab8e7cc3eb1d325ee859e12df164289f669aae585d2",
            "16e1ac4d31925432d806878d0ab705773a412af918a23a173833ce4b8f9e2473",
            "a5daf7df458f0d7e01a7e77ae852c7e54e808c09742b0dc3f17d1dffc429dd05",
            "4c3b0e71154a1e1c3b3746eb41afc5d886af410bceaec9554a7a4ae817382fdb",
            "cba61b65fc40338796d4d13827a040b258c39cc74e7a42d2fcfcfb304fbc5660",
            "22d843e6492355fb7d67d9ee4c14dda2b18bcaf30d1332f08ed83cf4c6a31746",
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
        656528,
        (35, 4620, 2),
        [
            "4e1db3a642e5e9e2282e1193b469919a57fb4d73c3b5746169cfee91de8e80af",
            "6a18f4be514fb5712c7ab2207b107e4b43e806892a26504db30a3cc1fe2a17f3",
            "3e5a07f9b8b865fd1726e131d9f3bdabf4eb57da16de49987db696d1367fe071",
            "0dd9a05462e72f7f2ea825d764cb18bc04f041c4e5ea73c78eb4521fd0ccf622",
        ],
    ),
    (
        BoundaryKind::L2VirtioHardened,
        767167,
        (35, 4620, 2),
        [
            "703a5313d44c94e32972736e1753f9b9fb4082fb26e7de5225757f39ae540bf3",
            "d9389897ac447288fd12c440dd8c56d2ea3223b9b9ee157752ff56694b85bf02",
            "4bc46e66a82b45babfd3856278fe5b21d9115e19834aabbb49573239533885ee",
            "5cbc97db2af4022e63b65b72c042ebf41fddb79ec774f19df1ab2282e36b3aa3",
        ],
    ),
    (
        BoundaryKind::L2CioRing,
        714116,
        (35, 4620, 2),
        [
            "a895f849936681032859b86b27f149ec7111fd001929d111948c59f0d0889be2",
            "92db67d55bd4a0f7a1ddc1a7249149d62710c3d0da60c1e1848b5f6ee9048c2d",
            "91f103a2b6bffede99654b460c75246029fbe41ad209bd8bd4b9ab6dba44457e",
            "2154011e6ee7cafd531aa7ec5faa693ed6d654323a08b0fc40366dc04ff3ae6c",
        ],
    ),
    (
        BoundaryKind::DualBoundary,
        723450,
        (35, 4620, 2),
        [
            "5d9e03e79539d621879b4214a8ea0135516a4baa61c4f669ea2252ca84ba891a",
            "659636de2b6ec9451045b8744eaba9022b63296492fa23be2e9cf371b3875baa",
            "a00de96662fefef95423cdfac114d68c4820146a5e108368cccb03af079e8807",
            "3f1d20ddc18bd28f696987083c309eef846da4a59c9e1f9f1629e4eb52a0624a",
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
