//! Exports pinned across commits, not only across reruns.
//!
//! `tests/telemetry.rs` and `tests/flight.rs` prove run-vs-run identity,
//! which a refactor that changes both runs the same way passes. This
//! suite compares the SHA-256 of each of the six exports of the
//! fixed-seed 4-queue echo world against digests recorded at the commit
//! *before* the flight recorder merged into the telemetry domain, for
//! every arming (instruments, timeline, both) under the serial host and
//! two worker threads. A digest here changes only when an export format
//! changes on purpose; re-record it in the same commit and say so.

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
            "1854dbff4742e4d297a012282ddbc707cba2bebb328c315b68eb3474eac22745",
            "14d389990d08969f7e7515943f734d31cc1cd14faf0ecba4a580f273f3aba1df",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a77b2132f7ffef8666a7c2412f37b5319ddb7a5581bd1a1ce929ad03e044fb4c",
            "b6cf5830bbaf7ad10549849ab58d3ad969f19f5351eb1dcce100c516d09f993f",
            "8a49e37585fc0deeee59caa4be47f2a9dbb957dd4326b4799bb915b58045e0c7",
        ],
    ),
    (
        false,
        true,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5acf3ff77b4420677b5923071f303facaba7a9273a346284a667a275df325146",
            "e89edab26e8e20a520b3daaf078612165c50aee8f7d5241b2f7a731d66b0c696",
            "244165fddd1a08b7dbaf4a9a1197700d19bd297442457309fe8f5b6f479601af",
            "de11c1b5adf94fdcafdf6708c757c983d4b9894c361b1fccb1f692f704b2af91",
            "654dfdf1f4c3f236b148736d4655ae2a295a99197e70983466f656456dfb7629",
        ],
    ),
    (
        true,
        true,
        [
            "3df4905358a26c0ab26480594366811bcdcf335ee7fda20a4166c6e650fd0c7a",
            "d78a02232ee861dfb5bdeb44989c0d29f4b49da72356e812451e8c4acfb0a7d8",
            "e89edab26e8e20a520b3daaf078612165c50aee8f7d5241b2f7a731d66b0c696",
            "244165fddd1a08b7dbaf4a9a1197700d19bd297442457309fe8f5b6f479601af",
            "6f0b7e8821fd3ac68ab76a4bbaea79f69c212f2da0d2dd9261c8e3affba27511",
            "8a49e37585fc0deeee59caa4be47f2a9dbb957dd4326b4799bb915b58045e0c7",
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

/// Recorded at the last commit that still had a separate serial schedule
/// (`step_serial`), one row per boundary design: the one-queue round of
/// the single schedule must reproduce every one of them.
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
        668463,
        (73, 9636, 2),
        [
            "38fb32ef226e39ead3482bea8e71d44a3252fdbc8a2f269afc2818024846dc3c",
            "65f9e1afc0d9925a8875756bb8ba60f0dd5fd8eb5919a02f5da9ef185e5aebd7",
            "751462b96a316ad13635dce7e447d0197a04df2735cf5bb522999e8734ff0e96",
            "c1fb73ce9d666b9223dbfcff53d7e6bd6d0d1b4d56fcde6b28fdd85afdcec936",
        ],
    ),
    (
        BoundaryKind::L2VirtioHardened,
        852481,
        (70, 9240, 2),
        [
            "af42b6c3bf67214ca0b2300757676818e6128326d1550673362b6baabf4392ec",
            "748f1309886c5443cddb126e388a2a841fd92045ffa540314b5d9b5081c2ba31",
            "ee72a619405309087294626cb086faf975d8b94d14f4788c9294fab318112df7",
            "8a4e94ee0608b40ef11c22f82e1fd2736dd138159caa2d6b2b86bdfba35c2086",
        ],
    ),
    (
        BoundaryKind::L2CioRing,
        721852,
        (73, 9636, 2),
        [
            "ce4d2d81811cc331a905f504a327a5fa07fcf330f30413ff81ddc4ed9448fe8c",
            "8a477ed635a0b2b01dca42ec2dc82c7f23cefb4ff959ce0effa965168a27fc55",
            "4fb40b03a799a663496f5e7319323a345f67d024ff9e814a798f62b58e6a2ec8",
            "8aca05836e7204c0499b9a9cbe5af6836f124fb9693ae3ee7edd2458731e7e12",
        ],
    ),
    (
        BoundaryKind::DualBoundary,
        732979,
        (71, 9372, 2),
        [
            "60ee22fc91f41673e9fe1908f063fd3a853eac955f20d01fcf7adc55488e3e70",
            "03fcf5f1db62508a6f6131e05327e39be1a4d41756782371fe9ed72fc0a0fe49",
            "24c4173d5b461b90559817b5d3f6ffc31349653a6ed264047162fd33ad5698e3",
            "ae0fed31066e37514b63f585365108e1d38a3cd20f702bd06aaa5341a46486b9",
        ],
    ),
    (
        BoundaryKind::Tunneled,
        738018,
        (73, 2628, 2),
        [
            "7b874f11cd4a1a697d9bc587225baffc43acd225e15b0267b32c3d32cd53535c",
            "c8e278a9e1d317e3a73b34d416b70f41a160bbe70dd3f74579362230e1d0e881",
            "614fc78e1599896a24e61d2786ff8ac5ff1ebaa9c32cb53a42429242aceb0a62",
            "51492c30e9f2f0d2a368fbeef55e90c534e19c7b3b79a23d48f67ae3074b8ca0",
        ],
    ),
    (
        BoundaryKind::Dda,
        789142,
        (72, 2592, 1),
        [
            "1f9aba6d7f69f5ddbb54553d0194c8da66d83ea8fd3676ea778b714fdd548cd9",
            "4b241455ba293af44e1651d5b585b116f5a9efb79f9f89243d30c8964f112a04",
            "baa74dced51653a9bc371671f7abf5153d0ce9c01c2e888d91768b808c6282b7",
            "5a78462b3b129dc524e93958390f80f699172ffdc8d9c9689c86fd2e943646b9",
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
