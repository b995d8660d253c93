//! E14 — device hot-swap (§3.2): "this does not fundamentally preclude
//! live migration, as devices can be hot-swapped."
//!
//! Because the cio-ring has no runtime control plane — the config is fixed
//! and identical on the replacement device, so the layout is too — a swap
//! is: re-initialise the same rings, attach fresh endpoints, go. No
//! negotiation state machine to re-run, no feature bits to re-agree, no
//! stateful protocol for the hostile host to race, and nothing allocated:
//! a world can swap any number of times. TCP absorbs the in-flight frame
//! loss.

use cio::world::{BoundaryKind, World, WorldOptions, ECHO_PORT};
use cio::CioError;
use cio_host::fabric::LinkParams;
use cio_mem::{GuestAddr, PageState, PAGE_SIZE};
use cio_sim::Cycles;

fn opts() -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        ..WorldOptions::default()
    }
}

#[test]
fn connections_survive_a_hot_swap() {
    for kind in [BoundaryKind::L2CioRing, BoundaryKind::DualBoundary] {
        let mut w = World::new(kind, opts()).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 8_000).unwrap();

        // Traffic before the swap.
        w.send(c, b"before swap").unwrap();
        assert_eq!(w.recv_exact(c, 11, 8_000).unwrap(), b"before swap");

        // Swap the device mid-connection.
        w.hot_swap_device().unwrap();

        // The same TCP connection and the same cTLS channel continue: any
        // frames lost in the old rings are retransmitted.
        w.send(c, b"after swap, same session").unwrap();
        let got = w.recv_exact(c, 24, 60_000).unwrap();
        assert_eq!(got, b"after swap, same session", "{kind}");
    }
}

#[test]
fn swap_with_data_in_flight_recovers_via_retransmission() {
    let mut w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 8_000).unwrap();

    // Queue a large message and swap before it finishes draining: some
    // frames die in the old rings.
    let msg = vec![0x7Eu8; 30_000];
    w.send(c, &msg).unwrap();
    w.run(3).unwrap();
    w.hot_swap_device().unwrap();

    let got = w.recv_exact(c, msg.len(), 400_000).unwrap();
    assert_eq!(got, msg);
}

/// Guest pages currently shared with the host, and the layout's high
/// water mark (the end of the highest ring structure the world laid out).
fn footprint(w: &World) -> (usize, u64) {
    let mem = w.guest_memory();
    let shared = (0..mem.len() / PAGE_SIZE)
        .filter(|&p| mem.page_state(GuestAddr((p * PAGE_SIZE) as u64)) == Ok(PageState::Shared))
        .count();
    let high_water = w
        .anatomy()
        .cio_queues
        .iter()
        .flat_map(|(tx, rx)| [tx, rx])
        .map(|r| r.payload_addr(0).0 + r.area_bytes() as u64)
        .max()
        .expect("cio rings");
    (shared, high_water)
}

#[test]
fn repeated_swaps_are_stable() {
    // The config is fixed, so the layout is: a swap re-initialises the
    // same rings and allocates nothing. 64 swaps at every queue count up
    // to `MAX_QUEUES` leave the footprint exactly as one build left it,
    // and the world still echoes after the last one.
    for kind in [BoundaryKind::L2CioRing, BoundaryKind::DualBoundary] {
        for queues in [1usize, 4, 8] {
            let mut w = World::builder(kind)
                .options(opts())
                .queues(queues)
                .build()
                .unwrap();
            let c = w.connect(ECHO_PORT).unwrap();
            w.establish(c, 8_000).unwrap();
            let built = footprint(&w);
            for round in 0..64u8 {
                w.hot_swap_device()
                    .unwrap_or_else(|e| panic!("{kind} {queues}q: swap {round} failed: {e}"));
                assert_eq!(
                    footprint(&w),
                    built,
                    "{kind} {queues}q: swap {round} moved memory"
                );
                if round % 16 == 15 {
                    let msg = vec![round; 2_000];
                    w.send(c, &msg).unwrap();
                    let got = w.recv_exact(c, msg.len(), 120_000);
                    assert_eq!(
                        got.as_deref(),
                        Ok(&msg[..]),
                        "{kind} {queues}q: swap {round}"
                    );
                }
            }
        }
    }
}

#[test]
fn swap_unsupported_on_other_designs() {
    for kind in [
        BoundaryKind::L5Host,
        BoundaryKind::L2VirtioHardened,
        BoundaryKind::Dda,
    ] {
        let mut w = World::new(kind, opts()).unwrap();
        assert!(
            matches!(w.hot_swap_device(), Err(CioError::Unsupported(_))),
            "{kind}"
        );
    }
}

#[test]
fn dual_compartment_page_ownership_is_enforced() {
    let w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    let (app, iostack) = w.dual_compartments().expect("dual world");
    let (tx_ring, _) = w.anatomy().cio_queues[0].clone();
    let table = w.tee().compartments();

    // The I/O stack owns its rings...
    table
        .check_access(iostack, tx_ring.prod_idx_addr(), 64)
        .expect("iostack owns its rings");
    // ...and the application cannot touch them: the L5 boundary is real
    // page ownership, not convention.
    assert!(table
        .check_access(app, tx_ring.prod_idx_addr(), 64)
        .is_err());
    assert!(table
        .check_access(app, tx_ring.payload_addr(0), 64)
        .is_err());
}

#[test]
fn ownership_follows_the_device_across_a_hot_swap() {
    let mut w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    w.hot_swap_device().unwrap();
    let (app, iostack) = w.dual_compartments().unwrap();
    let (tx_ring, _) = w.anatomy().cio_queues[0].clone();
    let table = w.tee().compartments();
    table
        .check_access(iostack, tx_ring.prod_idx_addr(), 64)
        .expect("iostack owns the replacement rings");
    assert!(table
        .check_access(app, tx_ring.prod_idx_addr(), 64)
        .is_err());
}
