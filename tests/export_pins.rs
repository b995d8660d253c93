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

use cio::world::WorldOptions;
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
