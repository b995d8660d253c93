//! Storage parity properties: the batched zero-copy block path is
//! *observably identical* to the serial storage_v1 path — same disk
//! bytes, same roundtrips, same security verdicts — across run sizes,
//! batch depths 1–16, and both copy policies. Batching and seal-in-slot
//! are performance dialects, not semantic forks: nonces bind (lba,
//! generation) and AAD binds lba identically however the run is chunked,
//! staged, or sealed in place.

use cio_block::blockdev::{BlockStore, BLOCK_SIZE};
use cio_block::transport::{BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR};
use cio_block::{BlockError, CryptStore, RamDisk};
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Meter};
use cio_vring::cioring::{
    BatchPolicy, CioRing, Consumer, DataMode, NotifyMode, Producer, RingConfig,
};

const DISK_BLOCKS: u64 = 256;

/// Every profile under test: the serial baseline plus batch depths 1–16
/// under both copy policies (copy-early and seal-in-slot).
fn profiles() -> Vec<(String, BlkProfile)> {
    let mut out = vec![("storage_v1".to_string(), BlkProfile::storage_v1())];
    for copy in [CopyPolicy::CopyEarly, CopyPolicy::InPlace] {
        for depth in [1usize, 2, 4, 8, 16] {
            out.push((
                format!("{copy:?}/batch{depth}"),
                BlkProfile {
                    copy,
                    batch: BatchPolicy::Fixed(depth),
                    notify: NotifyMode::EventIdx,
                },
            ));
        }
    }
    out
}

fn store_with(profile: BlkProfile) -> (GuestMemory, CryptStore<RingBlockStore>) {
    let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
    let cfg = RingConfig {
        slots: 16,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: (BLOCK_SIZE + BLK_HDR) as u32,
        area_size: 1 << 17,
        notify: profile.notify,
        ..RingConfig::default()
    };
    let req_ring =
        CioRing::new(cfg.clone(), GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).unwrap();
    let resp_ring = CioRing::new(
        cfg,
        GuestAddr(8 * PAGE_SIZE as u64),
        GuestAddr(64 * PAGE_SIZE as u64),
    )
    .unwrap();
    mem.share_range(GuestAddr(0), req_ring.ring_bytes())
        .unwrap();
    mem.share_range(GuestAddr(8 * PAGE_SIZE as u64), resp_ring.ring_bytes())
        .unwrap();
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), req_ring.area_bytes())
        .unwrap();
    mem.share_range(GuestAddr(64 * PAGE_SIZE as u64), resp_ring.area_bytes())
        .unwrap();
    let front = CioBlkFrontend::with_profile(
        Producer::new(req_ring.clone(), mem.guest()).unwrap(),
        Consumer::new(resp_ring.clone(), mem.guest()).unwrap(),
        profile,
    );
    let back = CioBlkBackend::with_profile(
        Consumer::new(req_ring, mem.host()).unwrap(),
        Producer::new(resp_ring, mem.host()).unwrap(),
        RamDisk::new(DISK_BLOCKS),
        profile,
    );
    (
        mem,
        CryptStore::new(RingBlockStore::new(front, back), [0x5C; 32]).unwrap(),
    )
}

fn pattern(seed: usize, blocks: usize) -> Vec<u8> {
    (0..blocks * BLOCK_SIZE)
        .map(|j| ((seed * 131 + j * 7) % 251) as u8)
        .collect()
}

/// The mixed-size workload every profile replays: runs of 1, 2, 5, and
/// 16 blocks, plus an overwrite so generation bumps are covered too.
/// Returns `(lba, blocks, seed)` for the expected final contents.
fn run_workload(store: &mut CryptStore<RingBlockStore>) -> Vec<(u64, usize, usize)> {
    let writes: &[(u64, usize, usize)] = &[
        (0, 16, 10),
        (16, 1, 11),
        (20, 5, 12),
        (32, 16, 13),
        (0, 16, 14), // generation-2 overwrite of the first run
        (48, 2, 15),
    ];
    for &(lba, blocks, seed) in writes {
        store.write_run(lba, &pattern(seed, blocks)).unwrap();
    }
    vec![
        (0, 16, 14),
        (16, 1, 11),
        (20, 5, 12),
        (32, 16, 13),
        (48, 2, 15),
    ]
}

/// Same plaintext in → same ciphertext, tags, and roundtrips out, for
/// every batch depth and copy policy.
#[test]
fn batched_runs_are_byte_identical_to_serial() {
    // Reference: the serial one-block-at-a-time shape.
    let (_m, mut reference) = store_with(BlkProfile::storage_v1());
    let expect = run_workload(&mut reference);

    for (name, profile) in profiles() {
        let (_m, mut store) = store_with(profile);
        let live = run_workload(&mut store);
        assert_eq!(live, expect);

        // Roundtrips: every live run reads back exactly.
        for &(lba, blocks, seed) in &expect {
            let mut out = vec![0u8; blocks * BLOCK_SIZE];
            store.read_run(lba, &mut out).unwrap();
            assert_eq!(out, pattern(seed, blocks), "{name}: run at lba {lba}");
        }

        // Byte identity: the host's whole disk — ciphertext, tag blocks,
        // and untouched space — matches the serial reference exactly.
        let ref_disk = reference.inner_mut().backend_mut().disk_mut();
        let mut ref_blocks = Vec::new();
        for lba in 0..DISK_BLOCKS {
            ref_blocks.push(ref_disk.snapshot_block(lba).unwrap());
        }
        let disk = store.inner_mut().backend_mut().disk_mut();
        for (lba, want) in ref_blocks.iter().enumerate() {
            assert_eq!(
                &disk.snapshot_block(lba as u64).unwrap(),
                want,
                "{name}: physical block {lba} diverged from serial"
            );
        }
    }
}

/// A tampered ciphertext block is refused with the same verdict no
/// matter which dialect reads it.
#[test]
fn tamper_verdict_is_policy_independent() {
    for (name, profile) in profiles() {
        let (_m, mut store) = store_with(profile);
        run_workload(&mut store);
        store
            .inner_mut()
            .backend_mut()
            .disk_mut()
            .tamper(34, 777, 0x01)
            .unwrap();
        let mut out = vec![0u8; 16 * BLOCK_SIZE];
        assert_eq!(
            store.read_run(32, &mut out),
            Err(BlockError::IntegrityViolation),
            "{name}: tampered run must fail closed"
        );
        // Untouched runs still read.
        let mut ok = vec![0u8; 5 * BLOCK_SIZE];
        store.read_run(20, &mut ok).unwrap();
        assert_eq!(ok, pattern(12, 5), "{name}");
    }
}

/// A wholesale stale-snapshot restore (data + tag metadata) classifies
/// as rollback — not mere corruption — under every dialect.
#[test]
fn rollback_verdict_is_policy_independent() {
    for (name, profile) in profiles() {
        let (_m, mut store) = store_with(profile);
        store.write_run(0, &pattern(20, 16)).unwrap();
        let tag_block = store.blocks();
        let mut snaps = Vec::new();
        {
            let disk = store.inner_mut().backend_mut().disk_mut();
            for lba in 0..16u64 {
                snaps.push((lba, disk.snapshot_block(lba).unwrap()));
            }
            snaps.push((tag_block, disk.snapshot_block(tag_block).unwrap()));
        }
        store.write_run(0, &pattern(21, 16)).unwrap();
        {
            let disk = store.inner_mut().backend_mut().disk_mut();
            for (lba, snap) in &snaps {
                disk.restore_block(*lba, snap).unwrap();
            }
        }
        let mut out = vec![0u8; 16 * BLOCK_SIZE];
        assert_eq!(
            store.read_run(0, &mut out),
            Err(BlockError::Rollback),
            "{name}: stale snapshot must classify as rollback"
        );
    }
}
