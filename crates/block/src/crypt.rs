//! The authenticated-encryption block layer.
//!
//! Data at rest is the host's to read and modify (the disk is host
//! hardware, ④ in Figure 1). This layer gives the in-TEE filesystem the
//! guarantees the paper's trust model demands:
//!
//! * **confidentiality** — every block is ChaCha20-Poly1305-sealed before
//!   it leaves the TEE;
//! * **integrity** — tags live in a metadata region; any host tampering
//!   surfaces as [`BlockError::IntegrityViolation`];
//! * **freshness** — a per-block generation counter, kept in *private*
//!   guest memory and bound into the nonce, turns replay of an old
//!   (validly sealed) block into [`BlockError::Rollback`].
//!
//! Block `lba` at generation `g` (its write count, from 1) is RFC 8439
//! ChaCha20-Poly1305 under nonce `lba as u32 (le) ‖ g as u64 (le)` and AAD
//! `lba as u64 (le)`, whichever entry point wrote it.
//!
//! Layout on the underlying store for `n` logical blocks:
//! physical `[0, n)` = ciphertext blocks, physical `[n, ...)` = packed
//! 16-byte tags (256 per metadata block).
//!
//! Two entry points share that layout:
//!
//! * the serial [`BlockStore`] methods — one block per call, sealing
//!   through a private scratch buffer
//!   ([`ChaCha20Poly1305::seal_fused_scatter`]). They are the reference
//!   the run API is tested against (`run_path_is_bit_identical_to_serial`,
//!   `tests/storage_parity.rs`);
//! * the batched [`CryptStore::write_run`] / [`CryptStore::read_run`]
//!   over a [`RunStore`] — writes scatter-seal each block of a run
//!   directly into whatever buffer the store hands out for it (for the
//!   block transport, whatever its request ring's data positioning hands
//!   out — ring-slot memory in place, written and never read back, so
//!   ciphertext never exists anywhere else), reads gather-open each block
//!   straight out of the store's buffers with a single fetch per byte
//!   ([`ChaCha20Poly1305::open_fused_gather`]), and what the run
//!   amortizes is the ring grant, lock and doorbell and the tag-block
//!   read-modify-write. Ciphertext, tags, and tamper/rollback verdicts
//!   are bit-identical to the serial path.

use crate::blockdev::{BlockStore, RunStore, BLOCK_SIZE};
use crate::BlockError;
use cio_crypto::aead::ChaCha20Poly1305;
use cio_crypto::poly1305::TAG_LEN;
use cio_sim::{Clock, CostModel, Meter, Stage, Telemetry};
use cio_vring::cioring::MAX_BATCH;

/// Tags packed per metadata block.
const TAGS_PER_BLOCK: u64 = (BLOCK_SIZE / TAG_LEN) as u64;

/// Blocks submitted per chunk of a write run: the ring's batch bound,
/// which is what caps the slots one [`RunStore::write_run_with`] grant
/// hands out.
const RUN: usize = MAX_BATCH;

/// An encrypting, integrity-protecting, rollback-detecting block layer.
pub struct CryptStore<S: BlockStore> {
    inner: S,
    aead: ChaCha20Poly1305,
    logical_blocks: u64,
    /// Private generation counters (freshness state). Real systems persist
    /// these in sealed storage or a Merkle root; the model keeps them in
    /// TEE memory, which is equivalent for the threat model here.
    generations: Vec<u64>,
    /// Optional simulation hooks: AEAD work charged to the virtual clock.
    hooks: Option<(Clock, CostModel, Meter)>,
    telemetry: Telemetry,
    tq: usize,
    /// Steady-state scratch (serial seal staging, tag RMW, rollback
    /// probes) — allocated once, so the data path is allocation-free.
    ct_scratch: Vec<u8>,
    tag_scratch: Vec<u8>,
    probe_scratch: Vec<u8>,
    /// Per-run tag staging for the batched paths: tags for every block of
    /// the run accumulate here so the metadata read-modify-write happens
    /// once per spanned tag block per *run*, not per chunk. Warmed to a
    /// full tag block's worth (256 tags); longer runs grow it once.
    run_tags: Vec<[u8; TAG_LEN]>,
    /// Scatter list staging for batched reads (tag blocks + data blocks
    /// in one transport batch).
    lba_scratch: Vec<u64>,
}

impl<S: BlockStore> CryptStore<S> {
    /// Wraps `inner`, reserving its tail for tag metadata.
    ///
    /// # Errors
    ///
    /// [`BlockError::NoSpace`] if the store is too small to hold any
    /// logical blocks plus metadata.
    pub fn new(inner: S, key: [u8; 32]) -> Result<Self, BlockError> {
        let physical = inner.blocks();
        // l logical blocks need l + ceil(l / TAGS_PER_BLOCK) physical.
        let mut logical = physical.saturating_sub(1);
        while logical > 0 && logical + logical.div_ceil(TAGS_PER_BLOCK) > physical {
            logical -= 1;
        }
        if logical == 0 {
            return Err(BlockError::NoSpace);
        }
        Ok(CryptStore {
            inner,
            aead: ChaCha20Poly1305::new(key),
            logical_blocks: logical,
            generations: vec![0; logical as usize],
            hooks: None,
            telemetry: Telemetry::disabled(),
            tq: 0,
            ct_scratch: vec![0u8; BLOCK_SIZE],
            tag_scratch: vec![0u8; BLOCK_SIZE],
            probe_scratch: vec![0u8; BLOCK_SIZE],
            run_tags: vec![[0u8; TAG_LEN]; TAGS_PER_BLOCK as usize],
            lba_scratch: Vec::with_capacity(2 * RUN),
        })
    }

    /// Attaches simulation hooks so per-block AEAD work is charged.
    pub fn set_hooks(&mut self, clock: Clock, cost: CostModel, meter: Meter) {
        self.hooks = Some((clock, cost, meter));
    }

    /// Attributes this layer's seal/open work to `queue` in `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.telemetry = telemetry;
        self.tq = queue;
    }

    fn charge_aead(&self) {
        if let Some((clock, cost, meter)) = &self.hooks {
            clock.advance(cost.aead(BLOCK_SIZE));
            meter.aead_ops(1);
            meter.aead_bytes(BLOCK_SIZE as u64);
        }
    }

    /// The wrapped store (host access for adversarial tests).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn tag_location(&self, lba: u64) -> (u64, usize) {
        let block = self.logical_blocks + lba / TAGS_PER_BLOCK;
        let offset = (lba % TAGS_PER_BLOCK) as usize * TAG_LEN;
        (block, offset)
    }

    fn nonce(lba: u64, generation: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..4].copy_from_slice(&(lba as u32).to_le_bytes());
        n[4..].copy_from_slice(&generation.to_le_bytes());
        n
    }

    fn check_range(&self, lba: u64, len: usize) -> Result<(), BlockError> {
        if lba >= self.logical_blocks {
            return Err(BlockError::OutOfRange);
        }
        if len != BLOCK_SIZE {
            return Err(BlockError::BadLength);
        }
        Ok(())
    }

    fn check_run(&self, lba: u64, len: usize) -> Result<usize, BlockError> {
        if !len.is_multiple_of(BLOCK_SIZE) {
            return Err(BlockError::BadLength);
        }
        let count = len / BLOCK_SIZE;
        let end = lba
            .checked_add(count as u64)
            .ok_or(BlockError::OutOfRange)?;
        if end > self.logical_blocks {
            return Err(BlockError::OutOfRange);
        }
        Ok(count)
    }

    /// Distinguishes tamper from rollback after a failed open: an older
    /// generation that verifies means the host served stale data. Probes
    /// re-read the block each iteration, exactly like the serial path, so
    /// batched and serial reads render identical verdicts.
    fn verdict(&mut self, lba: u64, generation: u64, tag: &[u8; TAG_LEN]) -> BlockError {
        let aad = lba.to_le_bytes();
        for g in (1..generation).rev() {
            if self.inner.read_block(lba, &mut self.probe_scratch).is_err() {
                break;
            }
            let n = Self::nonce(lba, g);
            if self
                .aead
                .open_in_place(&n, &aad, &mut self.probe_scratch, tag)
                .is_ok()
            {
                return BlockError::Rollback;
            }
        }
        BlockError::IntegrityViolation
    }
}

impl<S: RunStore> CryptStore<S> {
    /// Writes `data` (a whole number of blocks) to consecutive logical
    /// blocks starting at `lba`, scatter-sealing each block directly into
    /// the buffer the underlying store hands out for it, [`MAX_BATCH`]
    /// blocks per submission — for the ring transport that is slot
    /// memory, so ciphertext is born in the shared slot and plaintext
    /// never leaves private memory.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::write_block`]; on error nothing in the run is
    /// committed — partially written blocks fail closed (new ciphertext
    /// under the old tag reads as [`BlockError::IntegrityViolation`])
    /// until rewritten.
    pub fn write_run(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        let count = self.check_run(lba, data.len())?;
        self.run_tags.resize(count, [0u8; TAG_LEN]);
        let mut i = 0;
        while i < count {
            let k = (count - i).min(RUN);
            self.write_chunk(
                lba + i as u64,
                &data[i * BLOCK_SIZE..(i + k) * BLOCK_SIZE],
                i,
            )?;
            i += k;
        }
        // One tag-block read-modify-write per metadata block the *run*
        // spans (256 tags per block, so usually one), instead of one per
        // data block or per chunk.
        let first_tb = self.tag_location(lba).0;
        let last_tb = self.tag_location(lba + (count - 1) as u64).0;
        for tb in first_tb..=last_tb {
            self.inner.read_block(tb, &mut self.tag_scratch)?;
            for i in 0..count {
                let (b, off) = self.tag_location(lba + i as u64);
                if b == tb {
                    self.tag_scratch[off..off + TAG_LEN].copy_from_slice(&self.run_tags[i]);
                }
            }
            self.inner.write_block(tb, &self.tag_scratch)?;
        }
        // Commit the generations only after data and tags landed.
        for i in 0..count {
            self.generations[(lba + i as u64) as usize] += 1;
        }
        Ok(())
    }

    fn write_chunk(&mut self, lba: u64, data: &[u8], tag_off: usize) -> Result<(), BlockError> {
        let k = data.len() / BLOCK_SIZE;
        let Self {
            inner,
            aead,
            hooks,
            telemetry,
            tq,
            run_tags,
            generations,
            ..
        } = self;
        let (aead, hooks, telemetry, tq, generations) =
            (&*aead, &*hooks, &*telemetry, *tq, &*generations);
        let tags = &mut run_tags[tag_off..tag_off + k];
        inner.write_run_with(lba, k, &mut |base, slots| {
            let kk = slots.len();
            let _seal = telemetry.span(tq, Stage::BlkSeal);
            if let Some((clock, cost, meter)) = hooks {
                clock.advance(cost.aead_batch(kk, kk * BLOCK_SIZE));
                meter.aead_ops(kk as u64);
                meter.aead_bytes((kk * BLOCK_SIZE) as u64);
            }
            // The mirror of `read_segment`'s gather-open: the slot is
            // written once and never read back.
            for (i, slot) in slots.iter_mut().enumerate() {
                let i = base + i;
                let b = lba + i as u64;
                let nonce = Self::nonce(b, generations[b as usize] + 1);
                let pt = &data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE];
                tags[i] = aead.seal_fused_scatter(&nonce, &b.to_le_bytes(), pt, slot);
            }
        })?;
        Ok(())
    }

    /// Reads a whole number of blocks starting at `lba` into `out`,
    /// gather-opening each block straight out of the buffers the
    /// underlying store hands out (ring-slot memory for the block
    /// transport) with a single fetch per ciphertext byte. Never-written
    /// blocks read as zeros without touching the store.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::read_block`]. On a verification failure, blocks
    /// before the failing one are delivered intact; the failing block and
    /// everything after it read as zeros, and the error is the failing
    /// block's verdict ([`BlockError::IntegrityViolation`] or
    /// [`BlockError::Rollback`]).
    pub fn read_run(&mut self, lba: u64, out: &mut [u8]) -> Result<(), BlockError> {
        let count = self.check_run(lba, out.len())?;
        let mut i = 0;
        while i < count {
            if self.generations[(lba + i as u64) as usize] == 0 {
                let mut j = i;
                while j < count && self.generations[(lba + j as u64) as usize] == 0 {
                    j += 1;
                }
                out[i * BLOCK_SIZE..j * BLOCK_SIZE].fill(0);
                i = j;
                continue;
            }
            let mut j = i;
            while j < count && self.generations[(lba + j as u64) as usize] != 0 {
                j += 1;
            }
            if let Err(e) =
                self.read_segment(lba + i as u64, &mut out[i * BLOCK_SIZE..j * BLOCK_SIZE])
            {
                // The failing block zeroed itself and its segment tail;
                // zero everything after the segment too.
                out[j * BLOCK_SIZE..].fill(0);
                return Err(e);
            }
            i = j;
        }
        Ok(())
    }

    /// Reads one contiguous written segment as a single scatter batch:
    /// the spanned tag blocks lead the batch, the data blocks follow, so
    /// metadata and data share locks and doorbells. In-order delivery
    /// ([`RunStore::read_scatter_with`]) guarantees every tag has arrived
    /// before the block it authenticates is opened.
    fn read_segment(&mut self, lba: u64, out: &mut [u8]) -> Result<(), BlockError> {
        let k = out.len() / BLOCK_SIZE;
        self.run_tags.resize(k, [0u8; TAG_LEN]);
        let first_tb = self.tag_location(lba).0;
        let last_tb = self.tag_location(lba + (k - 1) as u64).0;
        let t = (last_tb - first_tb + 1) as usize;
        self.lba_scratch.clear();
        self.lba_scratch.extend(first_tb..=last_tb);
        self.lba_scratch.extend((0..k as u64).map(|i| lba + i));
        let mut first_fail: Option<usize> = None;
        {
            let Self {
                inner,
                aead,
                hooks,
                telemetry,
                tq,
                run_tags,
                generations,
                logical_blocks,
                lba_scratch,
                ..
            } = self;
            let (aead, hooks, telemetry, tq, logical_blocks) =
                (&*aead, &*hooks, &*telemetry, *tq, *logical_blocks);
            let out = &mut *out;
            let first_fail = &mut first_fail;
            let run_tags = &mut *run_tags;
            let generations = &*generations;
            inner.read_scatter_with(lba_scratch, &mut |base, slots| {
                for (si, slot) in slots.iter_mut().enumerate() {
                    let idx = base + si;
                    if idx < t {
                        // A tag block: extract every tag of ours it holds.
                        let tb = first_tb + idx as u64;
                        for (i, tag) in run_tags.iter_mut().enumerate().take(k) {
                            let b = lba + i as u64;
                            if logical_blocks + b / TAGS_PER_BLOCK == tb {
                                let off = (b % TAGS_PER_BLOCK) as usize * TAG_LEN;
                                tag.copy_from_slice(&slot[off..off + TAG_LEN]);
                            }
                        }
                        continue;
                    }
                    let i = idx - t;
                    let dst = &mut out[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE];
                    if first_fail.is_some() {
                        dst.fill(0);
                        continue;
                    }
                    let _seal = telemetry.span(tq, Stage::BlkSeal);
                    if let Some((clock, cost, meter)) = hooks {
                        clock.advance(cost.aead(BLOCK_SIZE));
                        meter.aead_ops(1);
                        meter.aead_bytes(BLOCK_SIZE as u64);
                    }
                    let b = lba + i as u64;
                    let nonce = Self::nonce(b, generations[b as usize]);
                    let aad = b.to_le_bytes();
                    // Single fetch per ciphertext byte, MAC and decrypt
                    // from the same fetched bytes; `dst` is zeroed by the
                    // gather-open on failure.
                    if aead
                        .open_fused_gather(&nonce, &aad, &slot[..], dst, &run_tags[i])
                        .is_err()
                    {
                        *first_fail = Some(i);
                    }
                }
            })?;
        }
        if let Some(fi) = first_fail {
            out[fi * BLOCK_SIZE..].fill(0);
            let tag = self.run_tags[fi];
            let gen = self.generations[(lba + fi as u64) as usize];
            return Err(self.verdict(lba + fi as u64, gen, &tag));
        }
        Ok(())
    }
}

impl<S: BlockStore> BlockStore for CryptStore<S> {
    fn read_block(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.check_range(lba, buf.len())?;
        let generation = self.generations[lba as usize];
        if generation == 0 {
            // Never written: logically zero, nothing stored to verify.
            buf.fill(0);
            return Ok(());
        }
        self.inner.read_block(lba, buf)?;
        let (tag_block, tag_off) = self.tag_location(lba);
        self.inner.read_block(tag_block, &mut self.tag_scratch)?;
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&self.tag_scratch[tag_off..tag_off + TAG_LEN]);

        let aad = lba.to_le_bytes();
        let nonce = Self::nonce(lba, generation);
        let opened = {
            let _seal = self.telemetry.span(self.tq, Stage::BlkSeal);
            self.charge_aead();
            self.aead.open_in_place(&nonce, &aad, buf, &tag)
        };
        match opened {
            Ok(()) => Ok(()),
            Err(_) => {
                buf.fill(0);
                Err(self.verdict(lba, generation, &tag))
            }
        }
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.check_range(lba, data.len())?;
        let generation = self.generations[lba as usize] + 1;
        let aad = lba.to_le_bytes();
        let nonce = Self::nonce(lba, generation);
        // Scatter-seal through the private scratch: bit-identical to the
        // legacy in-place seal, without the per-write allocation.
        let tag = {
            let _seal = self.telemetry.span(self.tq, Stage::BlkSeal);
            self.charge_aead();
            self.aead
                .seal_fused_scatter(&nonce, &aad, data, &mut self.ct_scratch)
        };
        self.inner.write_block(lba, &self.ct_scratch)?;

        let (tag_block, tag_off) = self.tag_location(lba);
        self.inner.read_block(tag_block, &mut self.tag_scratch)?;
        self.tag_scratch[tag_off..tag_off + TAG_LEN].copy_from_slice(&tag);
        self.inner.write_block(tag_block, &self.tag_scratch)?;

        // Commit the generation only after both writes landed.
        self.generations[lba as usize] = generation;
        Ok(())
    }

    fn blocks(&self) -> u64 {
        self.logical_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::RamDisk;

    const KEY: [u8; 32] = [0x33; 32];

    fn store(physical: u64) -> CryptStore<RamDisk> {
        CryptStore::new(RamDisk::new(physical), KEY).unwrap()
    }

    fn pattern(i: usize) -> Vec<u8> {
        (0..BLOCK_SIZE)
            .map(|j| ((i * 31 + j * 11) % 253) as u8)
            .collect()
    }

    #[test]
    fn capacity_reserves_metadata() {
        let s = store(64);
        assert!(s.blocks() < 64);
        assert!(s.blocks() >= 62);
        assert!(CryptStore::new(RamDisk::new(1), KEY).is_err());
    }

    #[test]
    fn roundtrip_and_zero_fresh_blocks() {
        let mut s = store(16);
        let mut buf = vec![0xFFu8; BLOCK_SIZE];
        s.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; BLOCK_SIZE], "unwritten reads as zero");
        let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        s.write_block(3, &data).unwrap();
        s.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut s = store(16);
        let data = vec![0xABu8; BLOCK_SIZE];
        s.write_block(0, &data).unwrap();
        let raw = s.inner_mut().snapshot_block(0).unwrap();
        assert_ne!(raw, data, "host must not see plaintext");
        // Equal plaintexts at different LBAs yield different ciphertexts.
        s.write_block(1, &data).unwrap();
        let raw1 = s.inner_mut().snapshot_block(1).unwrap();
        assert_ne!(raw, raw1);
    }

    #[test]
    fn tamper_detected() {
        let mut s = store(16);
        s.write_block(5, &vec![1u8; BLOCK_SIZE]).unwrap();
        s.inner_mut().tamper(5, 100, 0x01).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            s.read_block(5, &mut buf),
            Err(BlockError::IntegrityViolation)
        );
        // No plaintext leaks on failure.
        assert_eq!(buf, vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn tag_tamper_detected() {
        let mut s = store(16);
        s.write_block(5, &vec![1u8; BLOCK_SIZE]).unwrap();
        let tag_block = s.blocks(); // first metadata block
        s.inner_mut().tamper(tag_block, 5 * TAG_LEN, 0x80).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            s.read_block(5, &mut buf),
            Err(BlockError::IntegrityViolation)
        );
    }

    #[test]
    fn rollback_detected() {
        let mut s = store(16);
        s.write_block(7, &vec![1u8; BLOCK_SIZE]).unwrap();
        // Host snapshots version 1 (data + matching tag block).
        let old_data = s.inner_mut().snapshot_block(7).unwrap();
        let tag_block = s.blocks();
        let old_tags = s.inner_mut().snapshot_block(tag_block).unwrap();
        // Guest writes version 2.
        s.write_block(7, &vec![2u8; BLOCK_SIZE]).unwrap();
        // Host rolls both back.
        s.inner_mut().restore_block(7, &old_data).unwrap();
        s.inner_mut().restore_block(tag_block, &old_tags).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(s.read_block(7, &mut buf), Err(BlockError::Rollback));
    }

    #[test]
    fn overwrites_use_fresh_nonces() {
        let mut s = store(16);
        s.write_block(2, &vec![9u8; BLOCK_SIZE]).unwrap();
        let ct1 = s.inner_mut().snapshot_block(2).unwrap();
        s.write_block(2, &vec![9u8; BLOCK_SIZE]).unwrap();
        let ct2 = s.inner_mut().snapshot_block(2).unwrap();
        assert_ne!(ct1, ct2, "same plaintext re-encrypts differently");
        let mut buf = vec![0u8; BLOCK_SIZE];
        s.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; BLOCK_SIZE]);
    }

    #[test]
    fn bounds_checks() {
        let mut s = store(16);
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            s.read_block(s.blocks(), &mut buf),
            Err(BlockError::OutOfRange)
        );
        assert_eq!(s.write_block(0, &buf[..10]), Err(BlockError::BadLength));
        // Run bounds.
        let n = s.blocks();
        let big = vec![0u8; 2 * BLOCK_SIZE];
        assert_eq!(s.write_run(n - 1, &big), Err(BlockError::OutOfRange));
        let mut out = vec![0u8; 2 * BLOCK_SIZE];
        assert_eq!(s.read_run(n - 1, &mut out), Err(BlockError::OutOfRange));
        assert_eq!(s.write_run(0, &big[..100]), Err(BlockError::BadLength));
    }

    #[test]
    fn run_path_is_bit_identical_to_serial() {
        // Same key, same write order => same generations => the batched
        // path must produce exactly the bytes the serial path produces,
        // data blocks and tag blocks alike.
        let mut serial = store(64);
        let mut batched = store(64);
        let n = 40usize;
        let data: Vec<u8> = (0..n).flat_map(pattern).collect();
        for i in 0..n {
            serial
                .write_block(2 + i as u64, &data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE])
                .unwrap();
        }
        batched.write_run(2, &data).unwrap();
        for lba in 0..64 {
            assert_eq!(
                serial.inner_mut().snapshot_block(lba).unwrap(),
                batched.inner_mut().snapshot_block(lba).unwrap(),
                "physical block {lba} differs"
            );
        }
        // And the batched read agrees with the serial read.
        let mut out = vec![0u8; n * BLOCK_SIZE];
        batched.read_run(2, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn read_run_zero_fills_fresh_blocks() {
        let mut s = store(32);
        s.write_block(4, &pattern(4)).unwrap();
        s.write_block(6, &pattern(6)).unwrap();
        let mut out = vec![0xAAu8; 8 * BLOCK_SIZE];
        s.read_run(0, &mut out).unwrap();
        for i in 0..8usize {
            let got = &out[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE];
            if i == 4 || i == 6 {
                assert_eq!(got, &pattern(i)[..], "block {i}");
            } else {
                assert!(got.iter().all(|&b| b == 0), "fresh block {i} not zeroed");
            }
        }
    }

    #[test]
    fn run_tamper_fails_closed_from_failure_onward() {
        let mut s = store(64);
        let n = 12usize;
        let data: Vec<u8> = (0..n).flat_map(pattern).collect();
        s.write_run(0, &data).unwrap();
        s.inner_mut().tamper(5, 17, 0x40).unwrap();
        let mut out = vec![0x55u8; n * BLOCK_SIZE];
        assert_eq!(s.read_run(0, &mut out), Err(BlockError::IntegrityViolation));
        // Blocks before the failure are intact; the failing block and
        // everything after read as zeros.
        assert_eq!(&out[..5 * BLOCK_SIZE], &data[..5 * BLOCK_SIZE]);
        assert!(out[5 * BLOCK_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn run_rollback_verdict_matches_serial() {
        let mut s = store(64);
        let n = 10usize;
        let v1: Vec<u8> = (0..n).flat_map(pattern).collect();
        s.write_run(0, &v1).unwrap();
        // Host snapshots the whole version-1 run (data + tag block) ...
        let snaps: Vec<Vec<u8>> = (0..n as u64)
            .map(|l| s.inner_mut().snapshot_block(l).unwrap())
            .collect();
        let tag_block = s.blocks();
        let old_tags = s.inner_mut().snapshot_block(tag_block).unwrap();
        let v2: Vec<u8> = (0..n).flat_map(|i| pattern(i + 100)).collect();
        s.write_run(0, &v2).unwrap();
        // ... and rolls everything back after version 2 lands.
        for (l, snap) in snaps.iter().enumerate() {
            s.inner_mut().restore_block(l as u64, snap).unwrap();
        }
        s.inner_mut().restore_block(tag_block, &old_tags).unwrap();
        let mut out = vec![0u8; n * BLOCK_SIZE];
        assert_eq!(s.read_run(0, &mut out), Err(BlockError::Rollback));
        // Serial agrees.
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(s.read_block(7, &mut buf), Err(BlockError::Rollback));
    }
}
