//! Property-based tests on the core invariants.
//!
//! These are the "safe by construction" claims stated as universally
//! quantified properties and hammered with random inputs: no host byte
//! pattern may ever break the ring's memory safety, no ciphertext
//! manipulation may ever pass AEAD, no segmentation of a TCP stream may
//! change its bytes, no sequence of filesystem operations may diverge
//! from the reference model.
//!
//! Randomness comes from the in-repo deterministic `cio_sim::SimRng`
//! (no external proptest dependency): fully offline, reproducible seeds.

use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, MemView, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Meter, SimRng};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

fn rand_vec(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.range(lo, hi);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn rand_array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

fn ring_world(
    mode: DataMode,
) -> (
    GuestMemory,
    Producer<cio_mem::HostView>,
    Consumer<cio_mem::GuestView>,
) {
    let mem = GuestMemory::new(200, Clock::new(), CostModel::default(), Meter::new());
    let cfg = RingConfig {
        slots: 16,
        slot_size: if mode == DataMode::Inline { 2048 } else { 16 },
        mode,
        mtu: 1514,
        area_size: 1 << 15,
        ..RingConfig::default()
    };
    let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(32 * PAGE_SIZE as u64)).unwrap();
    mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
    if ring.area_bytes() > 0 {
        mem.share_range(GuestAddr(32 * PAGE_SIZE as u64), ring.area_bytes())
            .unwrap();
    }
    let p = Producer::new(ring.clone(), mem.host()).unwrap();
    let c = Consumer::new(ring, mem.guest()).unwrap();
    (mem, p, c)
}

/// Whatever the host writes anywhere in the shared region, the guest
/// consumer never faults, never panics, and never returns a payload
/// larger than the fixed MTU.
#[test]
fn ring_consumer_is_total_under_host_corruption() {
    let mut rng = SimRng::seed_from(0x41139);
    for case in 0..96 {
        let mode = [DataMode::Inline, DataMode::SharedArea][case % 2];
        let (mem, mut p, mut c) = ring_world(mode);
        let legit = rand_vec(&mut rng, 0, 1514);
        p.produce(&legit).unwrap();
        // Arbitrary host scribbling over the whole shared window.
        let writes = rng.range(1, 40);
        for _ in 0..writes {
            let off = rng.next_below(40_000);
            let val = rng.next_u64() as u32;
            let _ = mem.host().write_u32(GuestAddr(off), val);
        }
        // Consume everything that appears available; count is bounded.
        for _ in 0..64 {
            match c.consume() {
                Ok(Some(payload)) => assert!(payload.len() <= 1514),
                Ok(None) => break,
                Err(cio_vring::RingError::HostViolation(_)) => break, // detected
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
}

/// A guest-producer / host-consumer ring of `slots` slots carrying up to
/// `mtu` bytes in `mode`, both endpoints positioned by `policy`.
fn tx_ring(
    mode: DataMode,
    policy: CopyPolicy,
    slots: u32,
    mtu: u32,
) -> (
    GuestMemory,
    Producer<cio_mem::GuestView>,
    Consumer<cio_mem::HostView>,
) {
    let inline = mode == DataMode::Inline;
    let area = GuestAddr(64 * PAGE_SIZE as u64);
    let cfg = RingConfig {
        slots,
        slot_size: if inline {
            (mtu + 4).next_power_of_two()
        } else {
            16
        },
        mode,
        mtu,
        area_size: slots * mtu.next_power_of_two(),
        ..RingConfig::default()
    };
    let pages = 64 + cfg.area_size as usize / PAGE_SIZE + 1;
    let mem = GuestMemory::new(pages, Clock::new(), CostModel::default(), Meter::new());
    let ring = CioRing::new(cfg, GuestAddr(0), area).unwrap();
    mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
    if ring.area_bytes() > 0 {
        mem.share_range(area, ring.area_bytes()).unwrap();
    }
    let mut p = Producer::new(ring.clone(), mem.guest()).unwrap();
    let mut c = Consumer::new(ring, mem.host()).unwrap();
    p.set_copy_policy(policy);
    c.set_copy_policy(policy);
    (mem, p, c)
}

const MODES: [DataMode; 2] = [DataMode::SharedArea, DataMode::Inline];
const POLICIES: [CopyPolicy; 2] = [CopyPolicy::InPlace, CopyPolicy::CopyEarly];

/// One ring path: for every data mode, positioning policy, run size and
/// payload length 0..=MTU, every produce adapter (`produce`,
/// `stage`+`publish`, `reserve`/`with_slot_mut`/`commit`) and every
/// consume adapter (`consume_in_place`, `consume_batch_into` over one
/// reused buffer and over a run of them, `consume`) delivers exactly the bytes,
/// in exactly the order, that the primitives (`reserve_batch` /
/// `with_batch_mut` / `commit_batch`, `consume_batch_in_place`) deliver —
/// and at a run size of 1 charges exactly the same meters and virtual
/// cycles, because a batch of one *is* the serial path.
#[test]
fn ring_adapters_are_the_primitive_at_a_run_of_one() {
    const MTU: usize = 1024;
    // Thirteen records: no run size divides it, so every size ends on a
    // partial run. Lengths shrink as well as grow (stale-byte hazard for
    // the one reused buffer) and touch both ends of the range.
    let lens = [100, MTU, 3, 0, 512, 1, MTU - 1, 64, 0, 777, 2, MTU, 31];

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Put {
        Primitive,
        Produce,
        StagePublish,
        ReserveCommit,
    }
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Get {
        Primitive,
        InPlace,
        IntoReused,
        BatchInto,
        Consume,
    }

    let mut rng = SimRng::seed_from(0x0e1a7);
    let payloads: Vec<Vec<u8>> = lens
        .iter()
        .map(|&len| {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            v
        })
        .collect();

    // Drives one world; returns what the consumer saw plus the charges.
    let run = |mode, policy, bs: usize, put: Put, get: Get| {
        let (mem, mut p, mut c) = tx_ring(mode, policy, 16, MTU as u32);
        for chunk in payloads.chunks(bs) {
            match put {
                Put::Primitive => {
                    let cap = chunk.iter().map(Vec::len).max().unwrap();
                    let grant = p.reserve_batch(cap, chunk.len()).unwrap();
                    assert_eq!(grant.len(), chunk.len(), "16 slots never wrap 13 records");
                    p.with_batch_mut(&grant, |slots| {
                        for (slot, pay) in slots.iter_mut().zip(chunk) {
                            slot[..pay.len()].copy_from_slice(pay);
                        }
                    })
                    .unwrap();
                    let lens: Vec<usize> = chunk.iter().map(Vec::len).collect();
                    p.commit_batch(grant, &lens).unwrap();
                }
                Put::Produce => chunk.iter().for_each(|pay| p.produce(pay).unwrap()),
                Put::StagePublish => {
                    chunk.iter().for_each(|pay| p.stage(pay).unwrap());
                    p.publish().unwrap();
                }
                Put::ReserveCommit => {
                    for pay in chunk {
                        let grant = p.reserve(pay.len()).unwrap();
                        p.with_slot_mut(&grant, |slot| slot.copy_from_slice(pay))
                            .unwrap();
                        p.commit(grant, pay.len()).unwrap();
                    }
                }
            }
        }
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut reused = Vec::new();
        let mut bufs = vec![Vec::new(); bs];
        loop {
            let n = match get {
                Get::Primitive => c
                    .consume_batch_in_place(bs, |slots| {
                        seen.extend(slots.iter().map(|s| s.to_vec()));
                    })
                    .unwrap(),
                Get::InPlace => match c.consume_in_place(|rec| rec.to_vec()).unwrap() {
                    Some(rec) => {
                        seen.push(rec);
                        1
                    }
                    None => 0,
                },
                Get::IntoReused => {
                    let n = c
                        .consume_batch_into(std::slice::from_mut(&mut reused))
                        .unwrap();
                    if n == 1 {
                        seen.push(reused.clone());
                    }
                    n
                }
                Get::BatchInto => {
                    let n = c.consume_batch_into(&mut bufs).unwrap();
                    seen.extend(bufs[..n].iter().cloned());
                    n
                }
                Get::Consume => match c.consume().unwrap() {
                    Some(rec) => {
                        seen.push(rec);
                        1
                    }
                    None => 0,
                },
            };
            if n == 0 {
                break;
            }
        }
        (seen, mem.meter().snapshot(), mem.clock().now())
    };

    let records = payloads.len() as u64;
    for mode in MODES {
        for policy in POLICIES {
            for bs in [1usize, 2, 8, 16] {
                let tag = format!("{mode:?} {policy:?} run {bs}");
                let (seen, meter, cycles) = run(mode, policy, bs, Put::Primitive, Get::Primitive);
                assert_eq!(seen, payloads, "{tag}: primitive roundtrip");

                // What the endpoints' positioning costs, whoever calls:
                // one lock per run and side; one metered copy per record
                // and copy-early side (inline producers always copy).
                let runs = records.div_ceil(bs as u64);
                assert_eq!(meter.lock_acquisitions, 2 * runs, "{tag}");
                assert_eq!(meter.ring_commits, runs, "{tag}");
                assert_eq!(meter.ring_records, records, "{tag}");
                let copying_sides = match (policy, mode) {
                    (CopyPolicy::CopyEarly, _) => 2,
                    (CopyPolicy::InPlace, DataMode::Inline) => 1,
                    (CopyPolicy::InPlace, _) => 0,
                };
                let bytes: u64 = lens.iter().map(|&l| l as u64).sum();
                assert_eq!(meter.copies, copying_sides * records, "{tag}");
                assert_eq!(meter.bytes_copied, copying_sides * bytes, "{tag}");
                assert_eq!(meter.bytes_zero_copy, (2 - copying_sides) * bytes, "{tag}");

                let puts = [Put::Produce, Put::StagePublish, Put::ReserveCommit];
                let gets = [Get::InPlace, Get::IntoReused, Get::BatchInto, Get::Consume];
                let variants = puts
                    .iter()
                    .map(|&put| (put, Get::Primitive))
                    .chain(gets.iter().map(|&get| (Put::Primitive, get)));
                for (put, get) in variants {
                    let (seen_v, meter_v, cycles_v) = run(mode, policy, bs, put, get);
                    assert_eq!(seen_v, payloads, "{tag} {put:?}/{get:?}: bytes and order");
                    if bs == 1 {
                        assert_eq!(meter_v, meter, "{tag} {put:?}/{get:?}: meters");
                        assert_eq!(cycles_v, cycles, "{tag} {put:?}/{get:?}: virtual cycles");
                    }
                }
            }
        }
    }
}

/// Seal-in-slot is byte-identical to the staged seal: for every payload
/// size, data mode and positioning policy, the record a consumer sees
/// after `reserve` → `seal_into_slot` → `commit` is exactly the record the
/// staged `seal_into` would have produced, and it opens back to the
/// payload — whether the "slot" the seal ran over was ring memory or the
/// copy-early endpoint's private staging (which inline layouts force).
#[test]
fn seal_in_slot_byte_identical_to_staged_across_modes() {
    use cio_ctls::{Channel, RecordScratch, RECORD_OVERHEAD};

    let mut rng = SimRng::seed_from(0x5ea1);
    for mode in MODES {
        for policy in POLICIES {
            // The shared area carries jumbo records; the frame-sized
            // layouts carry frames.
            let (mtu, sizes): (u32, &[usize]) = if mode == DataMode::SharedArea {
                (
                    1 << 17,
                    &[0, 1, 64, 447, 448, 449, 1024, 4096, 16384, 65536],
                )
            } else {
                (1514, &[0, 1, 64, 447, 448, 449, 1024, 1400])
            };
            let (_mem, mut p, mut c) = tx_ring(mode, policy, 2, mtu);

            // Two channels with identical secrets: one seals staged (the
            // reference), the twin seals through the ring.
            let mut reference = Channel::from_secrets([9; 32], [8; 32], true, None);
            let mut twin = Channel::from_secrets([9; 32], [8; 32], true, None);
            let mut opener = Channel::from_secrets([9; 32], [8; 32], false, None);
            let mut ref_rec = RecordScratch::new();
            for &size in sizes {
                let mut payload = vec![0u8; size];
                rng.fill_bytes(&mut payload);
                reference.seal_into(&payload, &mut ref_rec).unwrap();

                let grant = p.reserve(size + RECORD_OVERHEAD).unwrap();
                let sealed = p
                    .with_slot_mut(&grant, |slot| twin.seal_into_slot(&payload, slot))
                    .unwrap()
                    .unwrap();
                p.commit(grant, sealed).unwrap();

                let seen = c
                    .consume_in_place(|rec| rec.to_vec())
                    .unwrap()
                    .expect("one record available");
                assert_eq!(seen, ref_rec.as_slice(), "{mode:?} {policy:?} size {size}");
                let mut plain = RecordScratch::new();
                opener.open_in_slot(&seen, &mut plain).unwrap();
                assert_eq!(plain.as_slice(), payload, "{mode:?} {policy:?} size {size}");
            }
        }
    }
}

/// The batched dataplane is observationally identical to the per-record
/// path: for every payload size, batch size, data mode, and positioning
/// policy, the batched seal/commit/consume/open pipeline yields the same
/// record bytes in the same ring order, the same opened plaintexts, and
/// the same metered copy counts as the serial twin.
#[test]
fn batched_dataplane_byte_identical_to_serial() {
    use cio_ctls::{Channel, CtlsError, RecordScratch, RECORD_OVERHEAD};
    use cio_vring::cioring::MAX_BATCH;

    let mut rng = SimRng::seed_from(0xba7c4);
    for mode in MODES {
        for policy in POLICIES {
            for bs in [1usize, 2, 3, 8, 16] {
                // Sixteen payloads (the ring's capacity): the edge sizes
                // plus random fill, truncated to what the mode can carry.
                let (mtu, base): (u32, &[usize]) = if mode == DataMode::SharedArea {
                    (
                        1 << 17,
                        &[0, 1, 64, 447, 448, 449, 1024, 4096, 16384, 65536],
                    )
                } else {
                    (1514, &[0, 1, 64, 447, 448, 449, 1024, 1400])
                };
                let hi = *base.last().unwrap();
                let mut payloads: Vec<Vec<u8>> = base
                    .iter()
                    .map(|&s| {
                        let mut v = vec![0u8; s];
                        rng.fill_bytes(&mut v);
                        v
                    })
                    .collect();
                while payloads.len() < 16 {
                    payloads.push(rand_vec(&mut rng, 0, hi));
                }

                // Serial twin: one record per boundary crossing.
                let (mem_s, mut ps, mut cs) = tx_ring(mode, policy, 16, mtu);
                let mut seal_s = Channel::from_secrets([9; 32], [8; 32], true, None);
                let mut open_s = Channel::from_secrets([9; 32], [8; 32], false, None);
                let mut plain = RecordScratch::new();
                for payload in &payloads {
                    let grant = ps.reserve(payload.len() + RECORD_OVERHEAD).unwrap();
                    let n = ps
                        .with_slot_mut(&grant, |slot| seal_s.seal_into_slot(payload, slot))
                        .unwrap()
                        .unwrap();
                    ps.commit(grant, n).unwrap();
                }
                let mut serial_records: Vec<Vec<u8>> = Vec::new();
                let mut serial_plains: Vec<Vec<u8>> = Vec::new();
                while let Some(record) = cs.consume_in_place(|r| r.to_vec()).unwrap() {
                    open_s.open_in_slot(&record, &mut plain).unwrap();
                    serial_records.push(record);
                    serial_plains.push(plain.as_slice().to_vec());
                }

                // Batched twin: runs of up to `bs` records per crossing.
                let (mem_b, mut pb, mut cb) = tx_ring(mode, policy, 16, mtu);
                let mut seal_b = Channel::from_secrets([9; 32], [8; 32], true, None);
                let mut open_b = Channel::from_secrets([9; 32], [8; 32], false, None);
                let mut done = 0usize;
                while done < payloads.len() {
                    let want = (payloads.len() - done).min(bs);
                    let cap = payloads[done..done + want]
                        .iter()
                        .map(Vec::len)
                        .max()
                        .unwrap()
                        + RECORD_OVERHEAD;
                    let grant = pb.reserve_batch(cap, want).unwrap();
                    let g = grant.len().min(want);
                    let mut pts: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
                    for (i, p) in payloads[done..done + g].iter().enumerate() {
                        pts[i] = p;
                    }
                    let mut lens = [0usize; MAX_BATCH];
                    pb.with_batch_mut(&grant, |slots| {
                        seal_b.seal_batch_into_slots(&pts[..g], &mut slots[..g], &mut lens[..g])
                    })
                    .unwrap()
                    .unwrap();
                    pb.commit_batch(grant, &lens[..g]).unwrap();
                    done += g;
                }
                let mut batch_records: Vec<Vec<u8>> = Vec::new();
                let mut batch_plains: Vec<Vec<u8>> = Vec::new();
                let mut outs: Vec<RecordScratch> =
                    (0..MAX_BATCH).map(|_| RecordScratch::new()).collect();
                loop {
                    let mut raw: Vec<Vec<u8>> = Vec::new();
                    let n = cb
                        .consume_batch_in_place(bs, |slots| {
                            let k = slots.len();
                            let mut recs: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
                            for (i, s) in slots.iter().enumerate() {
                                recs[i] = s;
                                raw.push(s.to_vec());
                            }
                            let mut results: [Result<(), CtlsError>; MAX_BATCH] =
                                [Ok(()); MAX_BATCH];
                            open_b.open_batch_in_slots(
                                &recs[..k],
                                &mut outs[..k],
                                &mut results[..k],
                            );
                            for r in &results[..k] {
                                assert!(r.is_ok(), "{mode:?} {policy:?} bs {bs}: {r:?}");
                            }
                        })
                        .unwrap();
                    if n == 0 {
                        break;
                    }
                    for (i, r) in raw.into_iter().enumerate() {
                        batch_records.push(r);
                        batch_plains.push(outs[i].as_slice().to_vec());
                    }
                }

                let tag = format!("{mode:?} {policy:?} bs {bs}");
                assert_eq!(batch_records, serial_records, "{tag}: record bytes/order");
                assert_eq!(batch_plains, serial_plains, "{tag}: opened plaintexts");
                let expect: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let got: Vec<&[u8]> = batch_plains.iter().map(Vec::as_slice).collect();
                assert_eq!(got, expect, "{tag}: roundtrip");
                let (ds, db) = (mem_s.meter().snapshot(), mem_b.meter().snapshot());
                assert_eq!(db.copies, ds.copies, "{tag}: metered copies");
                assert_eq!(db.bytes_copied, ds.bytes_copied, "{tag}: copied bytes");
                assert_eq!(db.ring_records, ds.ring_records, "{tag}: ring records");
                assert!(
                    db.lock_acquisitions <= ds.lock_acquisitions,
                    "{tag}: batching may only reduce lock acquisitions"
                );
            }
        }
    }
}

/// The record layer has one seal body and one open body (the run
/// primitives behind `seal_batch_into_slots` / `open_batch_in_slots`);
/// every other `Channel` entry point is that primitive at a run of one.
/// For payloads 0 B–64 KiB (including the AEAD's private 448/449 and
/// 512/513 B kernel edges) × rekey interval {off, 3, default} × run
/// 1/2/8/16: every seal adapter emits the bytes the primitive emits at
/// the same sequence number — however the primitive's messages were
/// grouped into runs — every open path yields the payload back, the
/// channels agree on record counts and key generation, and at a run of
/// one the adapters charge exactly the primitive's meter counts and
/// virtual cycles. The primitive itself answers to an oracle that shares
/// no code with it: while the key is still the traffic secret (no rekey
/// yet), record `seq` is `len ‖ RFC 8439 seal(nonce = 0⁴ ‖ seq_be,
/// aad = seq_be)` through the two-pass reference API, and opens back
/// through it.
#[test]
fn record_adapters_are_the_run_primitive_at_a_run_of_one() {
    use cio_crypto::ChaCha20Poly1305;
    use cio_ctls::{Channel, RecordScratch, SimHooks, RECORD_OVERHEAD};
    use cio_vring::cioring::MAX_BATCH;

    const SIZES: [usize; 12] = [0, 1, 64, 448, 449, 512, 513, 1024, 4096, 16384, 65536, 3];
    let mut rng = SimRng::seed_from(0xc715);
    let mut msgs: Vec<Vec<u8>> = SIZES
        .iter()
        .map(|&s| {
            let mut v = vec![0u8; s];
            rng.fill_bytes(&mut v);
            v
        })
        .collect();
    while msgs.len() < MAX_BATCH {
        msgs.push(rand_vec(&mut rng, 0, 2048));
    }
    // The client's transmit key is its traffic secret until the first rekey.
    let reference = ChaCha20Poly1305::new([9; 32]);

    // `None` leaves the channel's default interval in place.
    for interval in [None, Some(None), Some(Some(3))] {
        for run in [1usize, 2, 8, 16] {
            let tag = format!("interval {interval:?} run {run}");
            let endpoint = |is_client: bool| {
                let hooks = SimHooks {
                    clock: Clock::new(),
                    cost: CostModel::default(),
                    meter: Meter::new(),
                    telemetry: cio_sim::Telemetry::disabled(),
                };
                let mut chan =
                    Channel::from_secrets([9; 32], [8; 32], is_client, Some(hooks.clone()));
                if let Some(iv) = interval {
                    chan.set_rekey_interval(iv);
                }
                (chan, hooks)
            };
            let charged = |h: &SimHooks| (h.clock.now(), h.meter.snapshot());

            // The primitive, in runs of `run`.
            let (mut prim_tx, prim_tx_hooks) = endpoint(true);
            let mut records: Vec<Vec<u8>> = msgs
                .iter()
                .map(|m| vec![0xEE; m.len() + RECORD_OVERHEAD])
                .collect();
            for (pts, slots) in msgs.chunks(run).zip(records.chunks_mut(run)) {
                let pts: Vec<&[u8]> = pts.iter().map(Vec::as_slice).collect();
                let mut slots: Vec<&mut [u8]> = slots.iter_mut().map(Vec::as_mut_slice).collect();
                let mut lens = [0usize; MAX_BATCH];
                prim_tx
                    .seal_batch_into_slots(&pts, &mut slots, &mut lens)
                    .unwrap();
                for (len, pt) in lens.iter().zip(&pts) {
                    assert_eq!(*len, pt.len() + RECORD_OVERHEAD, "{tag}: lens");
                }
            }
            let (mut prim_rx, prim_rx_hooks) = endpoint(false);
            let mut outs: Vec<RecordScratch> = (0..run).map(|_| RecordScratch::new()).collect();
            for (recs, want) in records.chunks(run).zip(msgs.chunks(run)) {
                let recs: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
                let mut results = [Ok(()); MAX_BATCH];
                prim_rx.open_batch_in_slots(&recs, &mut outs, &mut results);
                for ((res, out), want) in results.iter().zip(&outs).zip(want) {
                    assert_eq!(*res, Ok(()), "{tag}: primitive open");
                    assert_eq!(out.as_slice(), &want[..], "{tag}: primitive plaintext");
                }
            }

            // Seal adapters, one record at a time.
            type Seal = fn(&mut Channel, &[u8]) -> Vec<u8>;
            let seals: [(&str, Seal); 3] = [
                ("seal", |c, m| c.seal(m).unwrap()),
                ("seal_into", |c, m| {
                    // A scratch that last held a longer record.
                    let mut out = RecordScratch::new();
                    out.copy_from(&[0xEE; 100]);
                    c.seal_into(m, &mut out).unwrap();
                    out.as_slice().to_vec()
                }),
                ("seal_into_slot", |c, m| {
                    // A roomier, poisoned slot: the tail stays untouched.
                    let mut slot = vec![0xEE; m.len() + RECORD_OVERHEAD + 7];
                    let n = c.seal_into_slot(m, &mut slot).unwrap();
                    assert!(slot[n..].iter().all(|&b| b == 0xEE));
                    slot.truncate(n);
                    slot
                }),
            ];
            for (name, seal) in seals {
                let (mut tx, hooks) = endpoint(true);
                for (i, (msg, want)) in msgs.iter().zip(&records).enumerate() {
                    assert_eq!(&seal(&mut tx, msg), want, "{tag}: {name} record {i}");
                }
                assert_eq!(tx.records_sent(), prim_tx.records_sent(), "{tag}: {name}");
                assert_eq!(tx.tx_generation(), prim_tx.tx_generation(), "{tag}: {name}");
                if run == 1 {
                    assert_eq!(charged(&hooks), charged(&prim_tx_hooks), "{tag}: {name}");
                }
            }
            let rekeys = if interval == Some(Some(3)) { 5 } else { 0 };
            assert_eq!(prim_tx.tx_generation(), rekeys, "{tag}: generation");

            // The primitive against RFC 8439, composed by hand.
            if rekeys == 0 {
                for (seq, (msg, rec)) in msgs.iter().zip(&records).enumerate() {
                    let aad = (seq as u64).to_be_bytes();
                    let mut nonce = [0u8; 12];
                    nonce[4..].copy_from_slice(&aad);
                    let sealed = reference.seal(&nonce, &aad, msg);
                    let (len, body) = rec.split_at(4);
                    assert_eq!(
                        len,
                        (sealed.len() as u32).to_le_bytes(),
                        "{tag}: rfc len {seq}"
                    );
                    assert_eq!(body, sealed, "{tag}: rfc bytes {seq}");
                    assert_eq!(
                        &reference.open(&nonce, &aad, body).unwrap(),
                        msg,
                        "{tag}: rfc open {seq}"
                    );
                }
            }

            // Open adapters, one record at a time.
            type Open = fn(&mut Channel, &[u8]) -> Vec<u8>;
            let opens: [(&str, Open); 3] = [
                ("open", |c, r| c.open(r).unwrap()),
                ("open_into", |c, r| {
                    let mut out = RecordScratch::new();
                    c.open_into(r, &mut out).unwrap();
                    out.as_slice().to_vec()
                }),
                ("open_in_slot", |c, r| {
                    let mut out = RecordScratch::new();
                    c.open_in_slot(r, &mut out).unwrap();
                    out.as_slice().to_vec()
                }),
            ];
            for (name, open) in opens {
                let (mut rx, hooks) = endpoint(false);
                for (i, (rec, want)) in records.iter().zip(&msgs).enumerate() {
                    assert_eq!(&open(&mut rx, rec), want, "{tag}: {name} record {i}");
                }
                assert_eq!(
                    rx.records_received(),
                    prim_rx.records_received(),
                    "{tag}: {name}"
                );
                if run == 1 {
                    assert_eq!(charged(&hooks), charged(&prim_rx_hooks), "{tag}: {name}");
                }
            }
        }
    }
}

/// The block layer's run path against the same oracle: after runs of
/// 1–40 blocks and an overwrite, every ciphertext block and packed tag on
/// the disk is the two-pass RFC 8439 `seal_in_place` of its plaintext
/// under nonce `lba_le32 ‖ generation_le64` and AAD `lba_le64` — the
/// documented rule, composed by hand — and opens back through
/// `open_in_place`.
#[test]
fn block_runs_are_rfc8439_under_the_documented_nonce_rule() {
    use cio_block::{BlockStore, CryptStore, RamDisk, BLOCK_SIZE};
    use cio_crypto::ChaCha20Poly1305;

    const KEY: [u8; 32] = [0x5C; 32];
    let mut rng = SimRng::seed_from(0xb10c);
    let mut store = CryptStore::new(RamDisk::new(128), KEY).unwrap();
    let reference = ChaCha20Poly1305::new(KEY);
    // lba -> (generation, plaintext) of the latest write.
    let mut live = std::collections::BTreeMap::new();
    for (lba, blocks) in [(0u64, 1usize), (3, 2), (8, 16), (30, 40), (8, 5)] {
        let mut data = vec![0u8; blocks * BLOCK_SIZE];
        rng.fill_bytes(&mut data);
        store.write_run(lba, &data).unwrap();
        for (i, pt) in data.chunks(BLOCK_SIZE).enumerate() {
            let slot = live.entry(lba + i as u64).or_insert((0u64, Vec::new()));
            *slot = (slot.0 + 1, pt.to_vec());
        }
    }
    let tag_base = store.blocks();
    for (&lba, (generation, pt)) in &live {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&(lba as u32).to_le_bytes());
        nonce[4..].copy_from_slice(&generation.to_le_bytes());
        let aad = lba.to_le_bytes();
        let mut want = pt.clone();
        let want_tag = reference.seal_in_place(&nonce, &aad, &mut want);

        let disk = store.inner_mut();
        let mut ct = disk.snapshot_block(lba).unwrap();
        assert_eq!(ct, want, "lba {lba}: ciphertext");
        let tags = disk.snapshot_block(tag_base + lba / 256).unwrap();
        let tag = &tags[(lba % 256) as usize * 16..][..16];
        assert_eq!(tag, want_tag, "lba {lba}: tag");
        reference
            .open_in_place(&nonce, &aad, &mut ct, &want_tag)
            .unwrap();
        assert_eq!(&ct, pt, "lba {lba}: reference open");
    }
}

/// AEAD: any bit flip anywhere in any sealed message is rejected.
#[test]
fn aead_rejects_every_single_bitflip() {
    let mut rng = SimRng::seed_from(0xb17f11b);
    for _ in 0..64 {
        let key: [u8; 32] = rand_array(&mut rng);
        let msg = rand_vec(&mut rng, 0, 300);
        let aad = rand_vec(&mut rng, 0, 32);
        let aead = cio_crypto::ChaCha20Poly1305::new(key);
        let nonce = [7u8; 12];
        let mut sealed = aead.seal(&nonce, &aad, &msg);
        let idx = rng.next_below(sealed.len() as u64) as usize;
        let bit = rng.next_below(8) as u8;
        sealed[idx] ^= 1 << bit;
        assert!(aead.open(&nonce, &aad, &sealed).is_err());
    }
}

/// AEAD roundtrip is the identity for all inputs.
#[test]
fn aead_roundtrip_identity() {
    let mut rng = SimRng::seed_from(0x1de9717);
    for _ in 0..48 {
        let key: [u8; 32] = rand_array(&mut rng);
        let nonce: [u8; 12] = rand_array(&mut rng);
        let msg = rand_vec(&mut rng, 0, 2000);
        let aead = cio_crypto::ChaCha20Poly1305::new(key);
        let sealed = aead.seal(&nonce, b"", &msg);
        assert_eq!(aead.open(&nonce, b"", &sealed).unwrap(), msg);
    }
}

/// SHA-256 incremental == one-shot for any chunking.
#[test]
fn sha256_chunking_invariant() {
    let mut rng = SimRng::seed_from(0x54a256);
    for _ in 0..64 {
        let data = rand_vec(&mut rng, 0, 2000);
        let n_cuts = rng.next_below(8) as usize;
        let mut cuts: Vec<usize> = (0..n_cuts)
            .map(|_| rng.next_below(data.len() as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        let mut h = cio_crypto::Sha256::new();
        let mut prev = 0;
        for &c in &cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), cio_crypto::Sha256::digest(&data));
    }
}

/// TCP: any segmentation of a byte stream delivers the same bytes.
#[test]
fn tcp_delivery_independent_of_segmentation() {
    use cio_netstack::tcp::{Connection, TcpConfig};
    let mut seed_rng = SimRng::seed_from(0x7c9d47a);
    for _case in 0..12 {
        let data = rand_vec(&mut seed_rng, 1, 5000);
        let chunk_seed = seed_rng.next_u64();
        let clock = Clock::new();
        let mut client = Connection::connect(1000, 2000, 7, clock.clone(), TcpConfig::default());
        let mut server = Connection::listen(2000, 9, clock.clone(), TcpConfig::default());
        // Handshake.
        for _ in 0..8 {
            while let Some(s) = client.poll_outbox() {
                let _ = server.on_segment(&s);
            }
            while let Some(s) = server.poll_outbox() {
                let _ = client.on_segment(&s);
            }
        }
        // Send in pseudo-random chunks.
        let mut rng = SimRng::seed_from(chunk_seed);
        let mut sent = 0usize;
        let mut received = Vec::new();
        while sent < data.len() || received.len() < data.len() {
            if sent < data.len() {
                let n = (rng.next_below(1200) as usize + 1).min(data.len() - sent);
                client.send(&data[sent..sent + n]).unwrap();
                sent += n;
            }
            for _ in 0..4 {
                while let Some(s) = client.poll_outbox() {
                    let _ = server.on_segment(&s);
                }
                while let Some(s) = server.poll_outbox() {
                    let _ = client.on_segment(&s);
                }
            }
            received.extend(server.recv(usize::MAX));
        }
        assert_eq!(received, data);
    }
}

/// Filesystem vs. reference model: random writes at random offsets
/// then full readback must match a plain byte-vector model.
#[test]
fn filesystem_matches_reference_model() {
    use cio_block::{blockdev::RamDisk, SimpleFs};
    let mut rng = SimRng::seed_from(0xf5);
    'case: for _case in 0..24 {
        let mut fs = SimpleFs::format(RamDisk::new(128)).unwrap();
        let id = fs.create("model").unwrap();
        let mut model: Vec<u8> = Vec::new();
        let n_ops = rng.range(1, 12);
        for _ in 0..n_ops {
            let offset = rng.next_below(60_000);
            let data = rand_vec(&mut rng, 1, 3000);
            if fs.write(id, offset, &data).is_err() {
                // Out of space/extents: acceptable, stop the scenario.
                continue 'case;
            }
            let end = offset as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[offset as usize..end].copy_from_slice(&data);
        }
        let back = fs.read(id, 0, model.len()).unwrap();
        assert_eq!(back, model);
    }
}
