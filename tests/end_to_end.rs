//! Cross-crate integration: full worlds, every boundary design, realistic
//! workload patterns.

use cio::world::{BoundaryKind, World, WorldOptions, ALL_BOUNDARIES, ECHO_PORT, RPC_PORT};
use cio_host::fabric::LinkParams;
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
fn rpc_pattern_on_every_boundary() {
    for kind in ALL_BOUNDARIES {
        let mut w = World::new(kind, opts()).unwrap();
        let c = w.connect(RPC_PORT).unwrap();
        w.establish(c, 5_000)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        for req in [100u32, 5_000, 20_000] {
            w.send(c, &req.to_le_bytes()).unwrap();
            let resp = w
                .recv_exact(c, req as usize + 4, 20_000)
                .unwrap_or_else(|e| panic!("{kind} req {req}: {e}"));
            assert_eq!(&resp[..4], &req.to_le_bytes(), "{kind}");
            assert!(resp[4..].iter().all(|&b| b == 0x5A), "{kind}");
        }
    }
}

#[test]
fn multiple_concurrent_connections() {
    let mut w = World::new(BoundaryKind::DualBoundary, opts()).unwrap();
    let c1 = w.connect(ECHO_PORT).unwrap();
    let c2 = w.connect(ECHO_PORT).unwrap();
    let c3 = w.connect(RPC_PORT).unwrap();
    for c in [c1, c2, c3] {
        w.establish(c, 8_000).unwrap();
    }
    w.send(c1, b"first stream").unwrap();
    w.send(c2, b"second stream").unwrap();
    w.send(c3, &64u32.to_le_bytes()).unwrap();
    assert_eq!(w.recv_exact(c1, 12, 8_000).unwrap(), b"first stream");
    assert_eq!(w.recv_exact(c2, 13, 8_000).unwrap(), b"second stream");
    assert_eq!(w.recv_exact(c3, 68, 8_000).unwrap().len(), 68);
}

#[test]
fn tcp_recovers_over_lossy_link() {
    // 2% frame loss: TCP retransmission must still deliver everything,
    // and cTLS must still verify (the records ride a reliable stream).
    let lossy = WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.02,
        },
        ..WorldOptions::default()
    };
    let mut w = World::new(BoundaryKind::L2CioRing, lossy).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 60_000).unwrap();
    let msg = vec![0x3Cu8; 20_000];
    w.send(c, &msg).unwrap();
    let got = w.recv_exact(c, msg.len(), 400_000).unwrap();
    assert_eq!(got, msg);
}

#[test]
fn send_into_a_full_device_ring_is_accepted_exactly_once() {
    // A burst of small records with no world step in between overruns the
    // device's 256-slot ring, so later sends find the device full
    // mid-write — after TCP has already buffered the sealed record. Such a
    // send must report the bytes as accepted: a caller that saw an error
    // and retried would put the record on the stream twice.
    let mut w = World::new(BoundaryKind::L2CioRing, opts()).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 5_000).unwrap();
    let before = w.meter().snapshot().backpressure_again;
    let mut sent = Vec::new();
    for i in 0..600u32 {
        let mut record = [0xA5u8; 48];
        record[..4].copy_from_slice(&i.to_le_bytes());
        assert_eq!(w.send(c, &record).unwrap(), record.len(), "send {i}");
        sent.extend_from_slice(&record);
    }
    assert!(
        w.meter().snapshot().backpressure_again > before,
        "the burst never overran the ring"
    );
    // One send, one echo: every record comes back once, in order, and
    // nothing follows it.
    assert_eq!(w.recv_exact(c, sent.len(), 100_000).unwrap(), sent);
    for _ in 0..500 {
        w.step().unwrap();
    }
    assert!(w.recv(c).unwrap().is_empty(), "a record was echoed twice");
}

#[test]
fn close_is_clean() {
    let mut w = World::new(BoundaryKind::L2CioRing, opts()).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 5_000).unwrap();
    w.send(c, b"bye").unwrap();
    let _ = w.recv_exact(c, 3, 5_000).unwrap();
    w.close(c).unwrap();
    w.run(200).unwrap();
}

#[test]
fn doorbell_mode_works_end_to_end_and_is_metered() {
    let o = WorldOptions {
        notify: cio_vring::cioring::NotifyMode::Doorbell,
        ..opts()
    };
    let mut w = World::new(BoundaryKind::DualBoundary, o).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 8_000).unwrap();
    w.send(c, b"ding dong").unwrap();
    assert_eq!(w.recv_exact(c, 9, 8_000).unwrap(), b"ding dong");
    // The guest actually rang the doorbell on its transmit path.
    assert!(w.meter().snapshot().notifications_sent > 0);
}

#[test]
fn enclave_flavour_pays_more_per_exit() {
    let cvm = WorldOptions {
        tee_kind: cio_tee::TeeKind::ConfidentialVm,
        ..opts()
    };
    let encl = WorldOptions {
        tee_kind: cio_tee::TeeKind::Enclave,
        ..opts()
    };
    let run = |o: WorldOptions| {
        let mut w = World::new(BoundaryKind::L5Host, o).unwrap();
        let c = w.connect(ECHO_PORT).unwrap();
        w.establish(c, 8_000).unwrap();
        let t0 = w.clock().now();
        for _ in 0..8 {
            w.send(c, b"ping").unwrap();
            w.recv_exact(c, 4, 8_000).unwrap();
        }
        w.clock().since(t0)
    };
    let cvm_time = run(cvm);
    let encl_time = run(encl);
    assert!(
        encl_time > cvm_time,
        "OCALLs cost more than VM exits: {encl_time} vs {cvm_time}"
    );
}

#[test]
fn virtual_time_accounting_is_consistent() {
    // Meter-derived cost components must not exceed total elapsed time.
    let mut w = World::new(BoundaryKind::L2VirtioHardened, opts()).unwrap();
    let c = w.connect(ECHO_PORT).unwrap();
    w.establish(c, 8_000).unwrap();
    let t0 = w.clock().now();
    let m0 = w.meter().snapshot();
    w.send(c, &[1u8; 4_000]).unwrap();
    let _ = w.recv_exact(c, 4_000, 20_000).unwrap();
    let elapsed = w.clock().since(t0);
    let d = w.meter().snapshot().delta(&m0);
    let cost = w.cost().clone();
    let accounted = cost.copy_setup.get() * d.copies
        + d.bytes_copied / cost.copy_bytes_per_cycle
        + cost.interrupt_inject.get() * d.interrupts_received
        + cost.notify_host.get() * d.notifications_sent;
    assert!(
        accounted <= elapsed.get(),
        "components {accounted} exceed elapsed {elapsed}"
    );
    assert!(d.copies >= 2, "hardened path bounces");
}
