//! What a socket call costs and what it reveals, per design.
//!
//! A design is a transport and a *crossing*: what separates the
//! application from the stack that serves its sockets. The crossing alone
//! decides what `connect`, `send`, the round's receive and `close` charge
//! and what the host learns from them, so one table predicts the meter and
//! host-tally deltas of every call on all seven designs:
//!
//! | crossing | per call | payload | host learns |
//! |---|---|---|---|
//! | none (stack in the app's domain) | nothing | nothing | nothing |
//! | compartment (dual boundary) | 2 compartment switches | handed over in place, or 1 copy under `l5_app_copy` / `CopyEarly` | nothing |
//! | host (L5) | 1 world switch | 1 marshalling copy per non-empty payload, each way | one `sock.*` event |
//!
//! Releasing a drained socket is in-TEE bookkeeping except on the host
//! crossing, where every *attempt* is one more world switch and one more
//! `sock.close` — once per round until the connection drains.

use cio::world::{BoundaryKind, World, WorldOptions, ALL_BOUNDARIES, ECHO_PORT};
use cio::{CioError, Transient};
use cio_host::fabric::LinkParams;
use cio_mem::CopyPolicy;
use cio_sim::{Cycles, MeterSnapshot};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Crossing {
    None,
    Compartment,
    Host,
}

fn crossing_of(kind: BoundaryKind) -> Crossing {
    match kind {
        BoundaryKind::L5Host => Crossing::Host,
        BoundaryKind::DualBoundary => Crossing::Compartment,
        BoundaryKind::L2VirtioUnhardened
        | BoundaryKind::L2VirtioHardened
        | BoundaryKind::L2CioRing
        | BoundaryKind::Tunneled
        | BoundaryKind::Dda => Crossing::None,
    }
}

/// An established plaintext session: no record framing, no handshake
/// bytes in any outbox, so every crossing below is the named call's own.
fn opts() -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        app_tls: false,
        ..WorldOptions::default()
    }
}

type SockTally = BTreeMap<&'static str, u64>;

fn observed(w: &World) -> (MeterSnapshot, SockTally) {
    let mut socks = w.recorder().summary().by_kind;
    socks.retain(|kind, _| kind.starts_with("sock."));
    (w.meter().snapshot(), socks)
}

/// Runs `f` and returns what it moved: the meter delta and the `sock.*`
/// events the host tallied meanwhile.
fn during<R>(w: &mut World, f: impl FnOnce(&mut World) -> R) -> (R, MeterSnapshot, SockTally) {
    let (m0, s0) = observed(w);
    let r = f(w);
    let (m1, mut socks) = observed(w);
    for (kind, n) in &mut socks {
        *n -= s0.get(kind).copied().unwrap_or(0);
    }
    socks.retain(|_, n| *n > 0);
    (r, m1.delta(&m0), socks)
}

/// Asserts one row of the table: `calls` crossings of host-visible kind
/// `sock`, carrying `payload` bytes in each listed non-empty direction.
fn assert_row(
    ctx: &str,
    crossing: Crossing,
    (sock, calls): (&'static str, u64),
    payloads: &[u64],
    d: &MeterSnapshot,
    socks: &SockTally,
) {
    match crossing {
        Crossing::None => {
            assert_eq!(d.compartment_switches, 0, "{ctx}");
            assert!(socks.is_empty(), "{ctx}: host saw {socks:?}");
        }
        Crossing::Compartment => {
            assert_eq!(d.compartment_switches, 2 * calls, "{ctx}");
            assert!(socks.is_empty(), "{ctx}: host saw {socks:?}");
        }
        Crossing::Host => {
            assert_eq!(d.compartment_switches, 0, "{ctx}");
            assert_eq!(d.host_transitions, calls, "{ctx}");
            assert_eq!(socks, &SockTally::from([(sock, calls)]), "{ctx}");
            let carried: Vec<u64> = payloads.iter().copied().filter(|&b| b > 0).collect();
            assert_eq!(d.copies, carried.len() as u64, "{ctx}");
            assert_eq!(d.bytes_copied, carried.iter().sum::<u64>(), "{ctx}");
        }
    }
}

/// Drives one session through connect / send / one round / close / drain
/// on `kind`, asserting every call against the table. Returns the meter
/// delta of the `send`, for the compartment hand-over comparison.
fn walk(kind: BoundaryKind, opts: WorldOptions) -> MeterSnapshot {
    const PAYLOAD: u64 = 1024;
    let crossing = crossing_of(kind);
    let mut w = World::new(kind, opts).unwrap();

    let (c, d, socks) = during(&mut w, |w| w.connect(ECHO_PORT).unwrap());
    let ctx = format!("{kind} connect");
    assert_row(&ctx, crossing, ("sock.connect", 1), &[], &d, &socks);

    w.establish(c, 3_000)
        .unwrap_or_else(|e| panic!("{kind}: establish failed: {e}"));

    let (sent, sent_d, socks) = during(&mut w, |w| w.send(c, &[0xA5; PAYLOAD as usize]));
    assert_eq!(sent, Ok(PAYLOAD as usize), "{kind}");
    let ctx = format!("{kind} send");
    assert_row(
        &ctx,
        crossing,
        ("sock.send", 1),
        &[PAYLOAD],
        &sent_d,
        &socks,
    );

    // A round with one live session is one receive crossing, whether or
    // not anything arrived; what it carried back is whatever the
    // application can now read. Rounds until the echo is home cover both.
    let mut echoed = 0;
    for round in 0.. {
        assert!(round < 3_000, "{kind}: echo never arrived");
        let (_, d, socks) = during(&mut w, |w| w.step().unwrap());
        let arrived = w.recv(c).unwrap().len() as u64;
        let ctx = format!("{kind} round {round} ({arrived} B arrived)");
        assert_row(&ctx, crossing, ("sock.recv", 1), &[arrived], &d, &socks);
        echoed += arrived;
        if echoed == PAYLOAD {
            break;
        }
    }

    let (_, d, socks) = during(&mut w, |w| w.close(c).unwrap());
    let ctx = format!("{kind} close");
    assert_row(&ctx, crossing, ("sock.close", 1), &[], &d, &socks);
    assert_eq!(w.draining_sockets(), 1, "{kind}");

    // With no live session left, a round crosses only to release the
    // draining socket: nothing in the TEE, one attempt per round on L5.
    let (rounds, d, socks) = during(&mut w, |w| {
        let mut rounds = 0u64;
        while w.draining_sockets() > 0 {
            w.step().unwrap();
            rounds += 1;
            assert!(rounds < 10_000, "{kind}: socket never drained");
        }
        rounds
    });
    let ctx = format!("{kind} drain ({rounds} rounds)");
    let released = match crossing {
        Crossing::Host => rounds,
        Crossing::None | Crossing::Compartment => 0,
    };
    assert_row(&ctx, crossing, ("sock.close", released), &[], &d, &socks);
    sent_d
}

#[test]
fn every_call_charges_and_reveals_what_its_crossing_predicts() {
    for kind in ALL_BOUNDARIES {
        let in_place = walk(kind, opts());
        if crossing_of(kind) != Crossing::Compartment {
            continue;
        }
        // Trusted-component-allocates hand-over by default (E9): the
        // payload crosses the compartment boundary in place...
        assert_eq!(in_place.bytes_zero_copy, 1024, "{kind}");
        // ...and is copied instead — one more copy of exactly the bytes
        // handed to the stack — under either contrast arm.
        let contrast = [
            WorldOptions {
                l5_app_copy: true,
                ..opts()
            },
            WorldOptions {
                copy_policy: CopyPolicy::CopyEarly,
                ..opts()
            },
        ];
        for arm in contrast {
            let copied = walk(kind, arm);
            assert_eq!(copied.bytes_zero_copy, 0, "{kind}");
            assert_eq!(copied.copies, in_place.copies + 1, "{kind}");
            assert_eq!(copied.bytes_copied, in_place.bytes_copied + 1024, "{kind}");
        }
    }
}

/// The backlog probe is the application reading its own socket
/// bookkeeping, which it can only do where the stack is in the TEE: on
/// the host crossing there is nothing to read, so `send` never reports
/// `WouldBlock` however far ahead of the link the application runs.
#[test]
fn send_reports_backpressure_only_where_the_stack_is_in_the_tee() {
    for kind in ALL_BOUNDARIES {
        let mut w = World::new(kind, opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 3_000).unwrap();
        let chunk = [0x42u8; 16 * 1024];
        let bounced = (0..64)
            .map(|_| w.send(c, &chunk))
            .any(|r| r == Err(CioError::Transient(Transient::WouldBlock)));
        assert_eq!(bounced, crossing_of(kind) != Crossing::Host, "{kind}");
    }
}
