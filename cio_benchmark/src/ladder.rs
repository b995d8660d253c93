//! The per-layer ladder: each rung times one layer in isolation through
//! its public API, wall clock and (where the layer is sim-metered)
//! virtual cycles side by side.
//!
//! A rung's unit is what the matching meter counter counts: one AEAD
//! operation, one ring record, one block, one handshake. That is what
//! lets [`crate::metrics`] multiply rung cost by counter and compare the
//! product with the end-to-end time.

use crate::stats::measure;
use cio::session::SessionTable;
use cio_block::blockdev::BLOCK_SIZE;
use cio_block::transport::{BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR};
use cio_block::{CryptStore, RamDisk};
use cio_crypto::{x25519, ChaCha20Poly1305};
use cio_ctls::{
    Channel, ClientHandshake, RecordScratch, ServerHandshake, ServerIdentity, SimHooks,
    RECORD_OVERHEAD,
};
use cio_mem::{GuestAddr, GuestMemory, GuestView, HostView, PAGE_SIZE};
use cio_netstack::{Interface, InterfaceConfig, Ipv4Addr, MacAddr, PairDevice};
use cio_sim::{Clock, CostModel, Meter, SimRng, Telemetry};
use cio_tee::{Measurement, Tee, TeeKind};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};
use std::hint::black_box;

/// One measured rung.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    /// Wall ns per unit.
    pub ns: f64,
    /// Virtual cycles per unit, for sim-metered rungs.
    pub cycles: Option<f64>,
}

/// Every rung, in report order. Names double as per-layer metric names
/// (`<name>_ns`, `<name>.model_ratio`).
pub const RUNGS: [&str; 16] = [
    "crypto.aead_64",
    "crypto.aead_1k",
    "crypto.x25519",
    "ctls.record_64",
    "ctls.record_1k",
    "ctls.handshake",
    "vring.ring_64",
    "vring.ring_1k",
    "vring.pipeline_b1",
    "vring.pipeline_b8",
    "netstack.tcp_seg",
    "session.table_op",
    "block.crypt_write_run",
    "block.crypt_read_run",
    "block.ring_write_run",
    "block.ring_read_run",
];

/// Blocks per run on the block rungs, and the disk region they cycle
/// over (prefilled, so reads open real ciphertext).
const RUN_BLOCKS: usize = 8;
const REGION_BLOCKS: u64 = 256;
/// ClientHellos per server response on the handshake rung (the session
/// workload's batch).
const HANDSHAKE_BATCH: usize = 16;

/// A virtual clock and meter a rung charges into.
struct Sim {
    clock: Clock,
    cost: CostModel,
    meter: Meter,
}

impl Sim {
    fn new() -> Sim {
        Sim {
            clock: Clock::new(),
            cost: CostModel::default(),
            meter: Meter::new(),
        }
    }

    fn hooks(&self) -> SimHooks {
        SimHooks {
            clock: self.clock.clone(),
            cost: self.cost.clone(),
            meter: self.meter.clone(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Times `f` and reports per-unit cost: `units` is how many units one
/// call of `f` performs. Cycles are read for the reported window only.
fn rung(
    name: &'static str,
    target_ns: u64,
    units: f64,
    clock: Option<&Clock>,
    f: impl FnMut(),
) -> Rung {
    let mut c0 = 0u64;
    let m = measure(target_ns, || c0 = clock.map_or(0, |c| c.now().get()), f);
    let per = m.iters as f64 * units;
    Rung {
        name,
        ns: m.ns as f64 / per,
        cycles: clock.map(|c| (c.now().get() - c0) as f64 / per),
    }
}

fn payload(len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    SimRng::seed_from(0x1ADDE2 ^ len as u64).fill_bytes(&mut p);
    p
}

/// Raw fused AEAD: one seal and one open per call, two units.
fn aead(name: &'static str, target_ns: u64, size: usize) -> Rung {
    let aead = ChaCha20Poly1305::new([0x42; 32]);
    let (nonce, aad) = ([7u8; 12], [0xA5u8; 8]);
    let mut buf = payload(size);
    rung(name, target_ns, 2.0, None, || {
        let tag = aead.seal_fused_in_place(&nonce, &aad, &mut buf);
        aead.open_fused_in_place(&nonce, &aad, &mut buf, &tag)
            .expect("self round trip");
        black_box(&buf);
    })
}

fn x25519_mult(target_ns: u64) -> Rung {
    let mut scalar = [0x5Au8; 32];
    rung("crypto.x25519", target_ns, 1.0, None, || {
        // Chain the output so no call can be hoisted.
        scalar = x25519::scalarmult(&scalar, &x25519::BASEPOINT);
        black_box(&scalar);
    })
}

/// cTLS record layer over reusable scratches: one seal and one open per
/// call, two units (the meter counts each as one AEAD op).
fn ctls_record(name: &'static str, target_ns: u64, size: usize) -> Rung {
    let sim = Sim::new();
    let mut tx = Channel::from_secrets([1; 32], [2; 32], true, Some(sim.hooks()));
    let mut rx = Channel::from_secrets([1; 32], [2; 32], false, Some(sim.hooks()));
    let data = payload(size);
    let (mut wire, mut plain) = (RecordScratch::new(), RecordScratch::new());
    rung(name, target_ns, 2.0, Some(&sim.clock), || {
        tx.seal_into(&data, &mut wire).expect("seal");
        rx.open_into(wire.as_slice(), &mut plain).expect("open");
        black_box(plain.as_slice());
    })
}

/// Attested handshakes, 16 ClientHellos amortised under one server
/// response batch; one unit per completed handshake.
fn ctls_handshake(target_ns: u64) -> Rung {
    const KEY: [u8; 32] = [0x21; 32];
    let sim = Sim::new();
    let measurement = Measurement::of(b"cio-benchmark-ladder");
    let identity = ServerIdentity {
        platform_key: KEY,
        measurement,
    };
    let mut rng = SimRng::seed_from(0x4A5D);
    let mut entropy = || {
        let mut e = [0u8; 64];
        rng.fill_bytes(&mut e);
        e
    };
    rung(
        "ctls.handshake",
        target_ns,
        HANDSHAKE_BATCH as f64,
        Some(&sim.clock),
        || {
            let clients: Vec<_> = (0..HANDSHAKE_BATCH)
                .map(|_| ClientHandshake::start(entropy(), Some(sim.hooks())))
                .collect();
            let hellos: Vec<&[u8]> = clients.iter().map(|(h, _)| h.as_slice()).collect();
            let responses =
                ServerHandshake::respond_batch(&hellos, &identity, entropy(), Some(sim.hooks()));
            for ((_, client), response) in clients.into_iter().zip(responses) {
                let (hello, server) = response.expect("server response");
                let (finished, c) = client
                    .finish(&hello, &KEY, &measurement)
                    .expect("client finish");
                let s = server.verify_finished(&finished).expect("server verify");
                black_box((c.records_sent(), s.records_sent()));
            }
        },
    )
}

/// A shared-area cio ring with its producer on the guest side and its
/// consumer on the host side, as the dataplane lays it out.
fn ring_pair(sim: &Sim, slots: u32) -> (Producer<GuestView>, Consumer<HostView>) {
    let cfg = RingConfig {
        slots,
        mtu: 2048,
        mode: DataMode::SharedArea,
        area_size: slots * 2048,
        ..RingConfig::default()
    };
    let area_pages = cfg.area_size as usize / PAGE_SIZE;
    let mem = GuestMemory::new(
        32 + area_pages,
        sim.clock.clone(),
        sim.cost.clone(),
        sim.meter.clone(),
    );
    let area = GuestAddr(16 * PAGE_SIZE as u64);
    let ring = CioRing::new(cfg, GuestAddr(0), area).expect("ring geometry");
    mem.share_range(GuestAddr(0), ring.ring_bytes())
        .expect("share ring");
    mem.share_range(area, ring.area_bytes())
        .expect("share area");
    (
        Producer::new(ring.clone(), mem.guest()).expect("producer"),
        Consumer::new(ring, mem.host()).expect("consumer"),
    )
}

/// Ring produce + consume of one record, no crypto: reserve a slot,
/// place the bytes, commit, kick, consume in place.
fn ring(name: &'static str, target_ns: u64, size: usize) -> Rung {
    let sim = Sim::new();
    let (mut tx, mut rx) = ring_pair(&sim, 32);
    let data = payload(size);
    rung(name, target_ns, 1.0, Some(&sim.clock), || {
        let grant = tx.reserve(size).expect("slot");
        tx.with_slot_mut(&grant, |slot| slot[..size].copy_from_slice(&data))
            .expect("slot access");
        tx.commit(grant, size).expect("commit");
        tx.kick();
        let first = rx
            .consume_in_place(|record| record[0])
            .expect("consume")
            .expect("record available");
        black_box(first);
    })
}

/// The record pipeline: cTLS seal in slot -> ring -> cTLS open in slot,
/// 1 KiB records in runs of `batch`; one unit per record.
fn pipeline(name: &'static str, target_ns: u64, batch: usize) -> Rung {
    const SIZE: usize = 1024;
    let sim = Sim::new();
    let (mut tx, mut rx) = ring_pair(&sim, 32);
    let mut guest = Channel::from_secrets([3; 32], [4; 32], true, Some(sim.hooks()));
    let mut host = Channel::from_secrets([3; 32], [4; 32], false, Some(sim.hooks()));
    let data = payload(SIZE);
    let record_len = SIZE + RECORD_OVERHEAD;
    let mut outs: Vec<RecordScratch> = std::iter::repeat_with(RecordScratch::new)
        .take(batch)
        .collect();
    let mut lens = vec![0usize; batch];
    let mut results = vec![Ok(()); batch];
    rung(name, target_ns, batch as f64, Some(&sim.clock), || {
        if batch == 1 {
            let grant = tx.reserve(record_len).expect("slot");
            let n = tx
                .with_slot_mut(&grant, |slot| guest.seal_into_slot(&data, slot))
                .expect("slot access")
                .expect("seal in slot");
            tx.commit(grant, n).expect("commit");
            tx.kick();
            rx.consume_in_place(|record| host.open_in_slot(record, &mut outs[0]))
                .expect("consume")
                .expect("record available")
                .expect("open in slot");
        } else {
            let grant = tx.reserve_batch(record_len, batch).expect("slots");
            let plaintexts = [data.as_slice(); 16];
            tx.with_batch_mut(&grant, |slots| {
                guest.seal_batch_into_slots(&plaintexts[..batch], slots, &mut lens)
            })
            .expect("batch access")
            .expect("batch seal");
            tx.commit_batch(grant, &lens).expect("batch commit");
            tx.kick();
            let consumed = rx
                .consume_batch_in_place(batch, |slots| {
                    let mut records: [&[u8]; 16] = [&[]; 16];
                    for (r, s) in records.iter_mut().zip(slots.iter()) {
                        *r = s;
                    }
                    host.open_batch_in_slots(&records[..slots.len()], &mut outs, &mut results);
                })
                .expect("batch consume");
            assert_eq!(consumed, batch, "ring split the batch");
            assert!(results.iter().all(Result::is_ok), "batched open failed");
        }
        black_box(outs[0].as_slice());
    })
}

/// 1 KiB TCP segments through an `Interface` pair over `PairDevice`:
/// send on one stack, poll and receive on the other, poll the ACK back.
fn tcp_seg(target_ns: u64) -> Rung {
    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    let clock = Clock::new();
    let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 1500);
    let mut a = Interface::new(da, InterfaceConfig::new(IP_A), clock.clone());
    let mut b = Interface::new(db, InterfaceConfig::new(IP_B), clock);
    let settle = |a: &mut Interface<PairDevice>, b: &mut Interface<PairDevice>| {
        for _ in 0..64 {
            if a.poll().expect("poll a") + b.poll().expect("poll b") == 0 {
                return;
            }
        }
        panic!("interfaces did not settle");
    };
    b.tcp_listen(80);
    let cli = a.tcp_connect(IP_B, 80).expect("connect");
    settle(&mut a, &mut b);
    let srv = b.tcp_accept(80).expect("inbound connection");
    let data = payload(1024);
    rung("netstack.tcp_seg", target_ns, 1.0, None, || {
        a.tcp_send(cli, &data).expect("send");
        b.poll().expect("poll b");
        let got = b.tcp_recv(srv, 2048).expect("recv");
        assert_eq!(got.len(), data.len(), "segment lost");
        a.poll().expect("poll a");
        black_box(got);
    })
}

/// Generational flow table: insert, look up, remove; three units.
fn table_op(target_ns: u64) -> Rung {
    let mut table: SessionTable<u64> = SessionTable::new(4);
    // A resident population so the slot free-lists are in steady state.
    for i in 0..1_000u64 {
        table.insert(i as usize & 3, i);
    }
    let mut i = 0u64;
    rung("session.table_op", target_ns, 3.0, None, || {
        let id = table.insert(i as usize & 3, i);
        *table.get_mut(id).expect("live handle") += 1;
        black_box(table.remove(id).expect("live handle"));
        i += 1;
    })
}

/// One crypt-layer rung pair (write runs, then read runs) over `store`.
fn crypt_runs<S: cio_block::blockdev::RunStore>(
    names: [&'static str; 2],
    target_ns: u64,
    sim: &Sim,
    inner: S,
) -> [Rung; 2] {
    let mut store = CryptStore::new(inner, [0x5C; 32]).expect("crypt store");
    store.set_hooks(sim.clock.clone(), sim.cost.clone(), sim.meter.clone());
    let data = payload(RUN_BLOCKS * BLOCK_SIZE);
    let mut out = vec![0u8; RUN_BLOCKS * BLOCK_SIZE];
    let runs = REGION_BLOCKS / RUN_BLOCKS as u64;
    for r in 0..runs {
        store
            .write_run(r * RUN_BLOCKS as u64, &data)
            .expect("prefill");
    }
    let mut i = 0u64;
    let write = rung(
        names[0],
        target_ns,
        RUN_BLOCKS as f64,
        Some(&sim.clock),
        || {
            store
                .write_run((i % runs) * RUN_BLOCKS as u64, &data)
                .expect("write run");
            i += 1;
        },
    );
    let read = rung(
        names[1],
        target_ns,
        RUN_BLOCKS as f64,
        Some(&sim.clock),
        || {
            store
                .read_run((i % runs) * RUN_BLOCKS as u64, &mut out)
                .expect("read run");
            black_box(&out);
            i += 1;
        },
    );
    assert_eq!(out, data, "read run returned wrong bytes");
    [write, read]
}

/// The KV workloads' block lane: request and response rings in TEE
/// memory, batch-8 seal-in-slot frontend, inline backend over a RAM disk.
fn ring_block_store(tee: &Tee) -> RingBlockStore {
    let profile = BlkProfile::batched(RUN_BLOCKS);
    let mem = tee.memory().clone();
    let ring_cfg = RingConfig {
        slots: 16,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: (BLOCK_SIZE + BLK_HDR) as u32,
        area_size: 1 << 17,
        notify: profile.notify,
        ..RingConfig::default()
    };
    let page = PAGE_SIZE as u64;
    let (req_at, resp_at) = (GuestAddr(0), GuestAddr(8 * page));
    let (req_area, resp_area) = (GuestAddr(16 * page), GuestAddr(64 * page));
    let req = CioRing::new(ring_cfg.clone(), req_at, req_area).expect("request ring");
    let resp = CioRing::new(ring_cfg, resp_at, resp_area).expect("response ring");
    for (at, len) in [
        (req_at, req.ring_bytes()),
        (resp_at, resp.ring_bytes()),
        (req_area, req.area_bytes()),
        (resp_area, resp.area_bytes()),
    ] {
        mem.share_range(at, len).expect("share");
    }
    let front = CioBlkFrontend::with_profile(
        Producer::new(req.clone(), mem.guest()).expect("request producer"),
        Consumer::new(resp.clone(), mem.guest()).expect("response consumer"),
        profile,
    );
    let back = CioBlkBackend::with_profile(
        Consumer::new(req, mem.host()).expect("request consumer"),
        Producer::new(resp, mem.host()).expect("response producer"),
        RamDisk::new(2 * REGION_BLOCKS),
        profile,
    );
    RingBlockStore::new(front, back)
}

/// Runs every rung for about `target_ns` of wall clock each.
pub fn run_all(target_ns: u64) -> Vec<Rung> {
    let mut rungs = vec![
        aead("crypto.aead_64", target_ns, 64),
        aead("crypto.aead_1k", target_ns, 1024),
        x25519_mult(target_ns),
        ctls_record("ctls.record_64", target_ns, 64),
        ctls_record("ctls.record_1k", target_ns, 1024),
        ctls_handshake(target_ns),
        ring("vring.ring_64", target_ns, 64),
        ring("vring.ring_1k", target_ns, 1024),
        pipeline("vring.pipeline_b1", target_ns, 1),
        pipeline("vring.pipeline_b8", target_ns, 8),
        tcp_seg(target_ns),
        table_op(target_ns),
    ];
    let sim = Sim::new();
    rungs.extend(crypt_runs(
        ["block.crypt_write_run", "block.crypt_read_run"],
        target_ns,
        &sim,
        RamDisk::new(2 * REGION_BLOCKS),
    ));
    let tee = Tee::new(TeeKind::ConfidentialVm, 192, CostModel::default());
    let sim = Sim {
        clock: tee.clock().clone(),
        cost: tee.cost().clone(),
        meter: tee.meter().clone(),
    };
    rungs.extend(crypt_runs(
        ["block.ring_write_run", "block.ring_read_run"],
        target_ns,
        &sim,
        ring_block_store(&tee),
    ));
    debug_assert!(rungs.iter().map(|r| r.name).eq(RUNGS));
    rungs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_runs_and_reports_in_declared_order() {
        let rungs = run_all(20_000);
        assert!(rungs.iter().map(|r| r.name).eq(RUNGS));
        for r in &rungs {
            assert!(r.ns > 0.0 && r.ns.is_finite(), "{}: {} ns", r.name, r.ns);
            if let Some(c) = r.cycles {
                assert!(c > 0.0, "{}: sim-metered rung charged no cycles", r.name);
            }
        }
        let metered = rungs.iter().filter(|r| r.cycles.is_some()).count();
        assert_eq!(metered, crate::metrics::MODEL_RATIO_RUNGS.len());
    }
}
