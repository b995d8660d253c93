//! The confidential KV plane: cTLS records in, encrypted blocks out.
//!
//! This is the storage dataplane's end-to-end workload (experiment E24):
//! an application compartment submits get/put operations as sealed cTLS
//! records (the same mandatory L5 crypto the network dual boundary
//! imposes), the KV engine inside the TEE appends values to a
//! log-structured store over [`CryptStore`], and sealed blocks leave the
//! TEE through the batched block ring — [`MultiQueueStore`] lanes of
//! [`RingBlockStore`], LBA-extent-steered like RSS steers flows.
//!
//! The write path is the parity story of this module: a segment of
//! records is flushed with one [`CryptStore::write_run`], which seals up
//! to 16 blocks per run, one scatter-seal each, *directly into ring-slot
//! memory* and publishes them under one lock and (at most) one doorbell.
//! Nothing on the flush path copies a data block: plaintext lives in the
//! segment buffer, ciphertext is born in the slot.
//!
//! Reads gather-open straight out of the response slots. An in-TEE hash
//! index maps keys to log offsets; the log is a ring buffer over the
//! logical block space, evicting overwritten records on wrap.

use crate::CioError;
use cio_block::blockdev::{BlockStore, BLOCK_SIZE};
use cio_block::transport::{BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR};
use cio_block::{CryptStore, MultiQueueStore, RamDisk};
use cio_ctls::record::Channel;
use cio_ctls::{RecordScratch, SimHooks};
use cio_host::backend::{ring_notify, Admission};
use cio_mem::{CopyPolicy, GuestAddr, PAGE_SIZE};
use cio_sim::{CostModel, Meter, Telemetry};
use cio_tee::{Tee, TeeKind};
use cio_vring::cioring::{
    CioRing, Consumer, DataMode, NotifyMode, NotifyPolicy, Producer, RingConfig,
};
use std::collections::HashMap;

/// Default blocks per log segment: the flush unit, sized to one ring
/// batch so a full segment seals into one run of slots
/// (configurable via [`KvConfig::with_seg_blocks`]).
pub const SEG_BLOCKS: usize = 16;

/// Record header: `[klen u16][vlen u32]`.
const REC_HDR: usize = 6;

/// Pages reserved per block lane in guest physical memory.
const LANE_PAGES: u64 = 128;

/// Configuration of a [`KvWorld`].
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Block ring lanes (power of two).
    pub queues: usize,
    /// Block transport dialect (copy mode, batch policy, ring notify).
    pub profile: BlkProfile,
    /// Host-side service policy, the net host's meaning exactly (the
    /// Adaptive gate rides on top of event-idx rings; see
    /// [`Admission`]).
    pub notify: NotifyPolicy,
    /// Physical blocks per lane disk.
    pub disk_blocks: u64,
    /// Steering extent in blocks (power of two).
    pub extent: u64,
    /// Blocks per log segment (the flush unit / memtable size). Larger
    /// segments amortize the per-run tag metadata RMW and doorbells over
    /// more data blocks, at the cost of a bigger staged window.
    pub seg_blocks: usize,
}

impl KvConfig {
    /// The serial baseline: the exact storage shape this repo shipped
    /// before batching (staged copies, one request per publish, polling
    /// rings, one lane).
    pub fn storage_v1() -> Self {
        KvConfig {
            queues: 1,
            profile: BlkProfile::storage_v1(),
            notify: NotifyPolicy::Always,
            disk_blocks: 1024,
            extent: SEG_BLOCKS as u64,
            seg_blocks: SEG_BLOCKS,
        }
    }

    /// The batched zero-copy dialect: seal-in-slot, fixed batch `depth`,
    /// event-idx doorbell suppression.
    pub fn batched(depth: usize) -> Self {
        KvConfig {
            queues: 1,
            profile: BlkProfile::batched(depth),
            notify: NotifyPolicy::EventIdx,
            disk_blocks: 1024,
            extent: SEG_BLOCKS as u64,
            seg_blocks: SEG_BLOCKS,
        }
    }

    /// Sets the notify policy, keeping the ring mode consistent with it
    /// by the net host's rule ([`ring_notify`] over a doorbell ring).
    #[must_use]
    pub fn with_notify(mut self, notify: NotifyPolicy) -> Self {
        self.notify = notify;
        self.profile.notify = ring_notify(NotifyMode::Doorbell, notify);
        self
    }

    /// Sets the per-lane disk size.
    #[must_use]
    pub fn with_disk_blocks(mut self, blocks: u64) -> Self {
        self.disk_blocks = blocks;
        self
    }

    /// Sets the log segment (flush unit) size in blocks.
    #[must_use]
    pub fn with_seg_blocks(mut self, seg_blocks: usize) -> Self {
        self.seg_blocks = seg_blocks;
        self
    }

    /// Whether this configuration runs the serial v1 storage shape
    /// (one staged block per call — the pre-run-API data path).
    fn serial(&self) -> bool {
        self.profile.copy == CopyPolicy::CopyEarly
    }
}

/// Where a record's bytes currently live.
enum Slot {
    /// In the unflushed segment buffer: `(record offset in seg, klen, vlen)`.
    Staged(usize, u16, u32),
    /// In the log: `(record byte offset, klen, vlen)`.
    Flushed(u64, u16, u32),
}

/// A complete confidential KV deployment: TEE, multi-queue block rings,
/// crypt layer, log engine, index, and the sealed application channel.
pub struct KvWorld {
    tee: Tee,
    cfg: KvConfig,
    store: CryptStore<MultiQueueStore<RingBlockStore>>,
    /// Which lanes a service round runs: the net host's admission,
    /// built over the request rings.
    admission: Admission,
    /// Application end of the mandatory L5 channel.
    client: Channel,
    /// KV-engine end.
    server: Channel,
    index: HashMap<Vec<u8>, Slot>,
    /// Keys staged in the current segment (for offset conversion on flush).
    staged_keys: Vec<Vec<u8>>,
    /// Retired staged-key buffers, reused so steady-state churn over a
    /// warm working set never allocates.
    key_pool: Vec<Vec<u8>>,
    /// The open log segment (plaintext records, TEE-private).
    seg: Vec<u8>,
    /// Physical log byte offset where the segment will land.
    tail: u64,
    log_bytes: u64,
    read_scratch: Vec<u8>,
    flushes: u64,
    wraps: u64,
    /// Request/response scratch for the sealed channel.
    req_buf: Vec<u8>,
    resp_buf: Vec<u8>,
    /// Sealed-record wire scratch (ciphertext side of the L5 channel).
    wire: RecordScratch,
    /// Opened-record plaintext scratch.
    plain: RecordScratch,
    /// Value scratch for the sealed get path.
    val_buf: Vec<u8>,
}

impl KvWorld {
    /// Builds a KV world.
    ///
    /// # Panics
    ///
    /// If `cfg.queues` or `cfg.extent` is not a power of two.
    ///
    /// # Errors
    ///
    /// Setup failures (ring allocation, disk too small).
    pub fn new(cfg: KvConfig, cost: CostModel) -> Result<KvWorld, CioError> {
        let pages = (LANE_PAGES as usize) * cfg.queues + 64;
        let tee = Tee::new(TeeKind::ConfidentialVm, pages, cost);
        let mem = tee.memory().clone();
        let ring_cfg = RingConfig {
            slots: 16,
            slot_size: 8,
            mode: DataMode::SharedArea,
            mtu: (BLOCK_SIZE + BLK_HDR) as u32,
            area_size: 1 << 17,
            notify: cfg.profile.notify,
            ..RingConfig::default()
        };
        let mut lanes = Vec::with_capacity(cfg.queues);
        let mut req_rings = Vec::with_capacity(cfg.queues);
        for lane in 0..cfg.queues {
            let base = lane as u64 * LANE_PAGES * PAGE_SIZE as u64;
            let req_at = GuestAddr(base);
            let resp_at = GuestAddr(base + 8 * PAGE_SIZE as u64);
            let req_area = GuestAddr(base + 16 * PAGE_SIZE as u64);
            let resp_area = GuestAddr(base + 64 * PAGE_SIZE as u64);
            let req_ring = CioRing::new(ring_cfg.clone(), req_at, req_area)?;
            let resp_ring = CioRing::new(ring_cfg.clone(), resp_at, resp_area)?;
            mem.share_range(req_at, req_ring.ring_bytes())?;
            mem.share_range(resp_at, resp_ring.ring_bytes())?;
            mem.share_range(req_area, req_ring.area_bytes())?;
            mem.share_range(resp_area, resp_ring.area_bytes())?;
            let front = CioBlkFrontend::with_profile(
                Producer::new(req_ring.clone(), mem.guest())?,
                Consumer::new(resp_ring.clone(), mem.guest())?,
                cfg.profile,
            );
            req_rings.push(req_ring.clone());
            let back = CioBlkBackend::with_profile(
                Consumer::new(req_ring, mem.host())?,
                Producer::new(resp_ring, mem.host())?,
                RamDisk::new(cfg.disk_blocks),
                cfg.profile,
            );
            lanes.push(RingBlockStore::new(front, back));
        }
        let admission = Admission::new(mem.host(), cfg.notify, req_rings.iter());
        let mq = MultiQueueStore::new(lanes, cfg.extent)?;
        let mut store = CryptStore::new(mq, [0x5C; 32])?;
        store.set_hooks(tee.clock().clone(), tee.cost().clone(), tee.meter().clone());
        let hooks = SimHooks {
            clock: tee.clock().clone(),
            cost: tee.cost().clone(),
            meter: tee.meter().clone(),
            telemetry: Telemetry::disabled(),
        };
        let log_bytes = store.blocks() * BLOCK_SIZE as u64;
        Ok(KvWorld {
            tee,
            cfg,
            store,
            admission,
            client: Channel::from_secrets([7; 32], [9; 32], true, Some(hooks.clone())),
            server: Channel::from_secrets([7; 32], [9; 32], false, Some(hooks)),
            index: HashMap::new(),
            staged_keys: Vec::new(),
            key_pool: Vec::new(),
            seg: Vec::with_capacity((cfg.seg_blocks + 2) * BLOCK_SIZE),
            tail: 0,
            log_bytes,
            read_scratch: Vec::with_capacity((cfg.seg_blocks + 2) * BLOCK_SIZE),
            flushes: 0,
            wraps: 0,
            req_buf: Vec::with_capacity(2 * BLOCK_SIZE),
            resp_buf: Vec::with_capacity(2 * BLOCK_SIZE),
            wire: RecordScratch::new(),
            plain: RecordScratch::new(),
            val_buf: Vec::new(),
        })
    }

    /// The TEE (clock/meter access).
    pub fn tee(&self) -> &Tee {
        &self.tee
    }

    /// The configuration this world was built with.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Segments flushed to the log so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Times the log wrapped around.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Attributes block-layer work to telemetry (lane n -> queue n).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.store.set_telemetry(telemetry.clone(), 0);
        self.store.inner_mut().set_telemetry(telemetry);
    }

    /// Direct host access to one lane's disk (adversarial tests).
    pub fn lane_disk_mut(&mut self, lane: usize) -> &mut RamDisk {
        self.store
            .inner_mut()
            .lane_mut(lane)
            .backend_mut()
            .disk_mut()
    }

    /// Stores `value` under `key` (in-TEE direct path).
    ///
    /// # Errors
    ///
    /// Storage failures; records larger than the log are `NoSpace`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), CioError> {
        let rec_len = REC_HDR + key.len() + value.len();
        if key.len() > u16::MAX as usize
            || value.len() > u32::MAX as usize
            || rec_len as u64 > self.log_bytes / 2
        {
            return Err(CioError::Block(cio_block::BlockError::NoSpace));
        }
        let rec = self.seg.len();
        self.seg
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.seg
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.seg.extend_from_slice(key);
        self.seg.extend_from_slice(value);
        let staged = Slot::Staged(rec, key.len() as u16, value.len() as u32);
        // Overwrites update the live entry in place (keeping its key
        // allocation); only first-seen keys insert.
        if let Some(slot) = self.index.get_mut(key) {
            *slot = staged;
        } else {
            self.index.insert(key.to_vec(), staged);
        }
        let mut kbuf = self.key_pool.pop().unwrap_or_default();
        kbuf.clear();
        kbuf.extend_from_slice(key);
        self.staged_keys.push(kbuf);
        if self.seg.len() >= self.cfg.seg_blocks * BLOCK_SIZE {
            self.flush()?;
        }
        Ok(())
    }

    /// Fetches the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Storage failures — including integrity/rollback verdicts when the
    /// host tampers with the log.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, CioError> {
        let mut out = Vec::new();
        Ok(if self.get_into(key, &mut out)? {
            Some(out)
        } else {
            None
        })
    }

    /// Fetches the value stored under `key` into a caller-supplied buffer
    /// (cleared first), returning whether the key was found. The
    /// allocation-free twin of [`KvWorld::get`]: once `out` and the
    /// internal read scratch are at their high-water marks, steady-state
    /// reads never touch the heap.
    ///
    /// # Errors
    ///
    /// Storage failures — including integrity/rollback verdicts when the
    /// host tampers with the log.
    pub fn get_into(&mut self, key: &[u8], out: &mut Vec<u8>) -> Result<bool, CioError> {
        out.clear();
        match self.index.get(key) {
            None => Ok(false),
            Some(&Slot::Staged(rec, klen, vlen)) => {
                let at = rec + REC_HDR + klen as usize;
                out.extend_from_slice(&self.seg[at..at + vlen as usize]);
                Ok(true)
            }
            Some(&Slot::Flushed(rec, klen, vlen)) => {
                let val = rec + (REC_HDR + klen as usize) as u64;
                let first = val / BLOCK_SIZE as u64;
                let last = (val + u64::from(vlen)).div_ceil(BLOCK_SIZE as u64);
                let span = (last - first) as usize * BLOCK_SIZE;
                self.read_scratch.clear();
                self.read_scratch.resize(span, 0);
                if self.cfg.serial() {
                    // The v1 shape: one block per call, staged both ways.
                    for j in 0..(last - first) as usize {
                        self.store.read_block(
                            first + j as u64,
                            &mut self.read_scratch[j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE],
                        )?;
                    }
                } else {
                    self.store.read_run(first, &mut self.read_scratch)?;
                }
                let off = (val - first * BLOCK_SIZE as u64) as usize;
                out.extend_from_slice(&self.read_scratch[off..off + vlen as usize]);
                Ok(true)
            }
        }
    }

    /// Flushes the open segment to the log as one batched run.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn flush(&mut self) -> Result<(), CioError> {
        if self.seg.is_empty() {
            return Ok(());
        }
        // Pad to whole blocks (a zero klen marks padding).
        let padded = self.seg.len().div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
        self.seg.resize(padded, 0);
        // Extent-align the segment start so the flush run never straddles
        // a steering extent mid-chunk: every ring-sized sub-batch lands
        // whole on one lane (the skipped gap keeps its older records).
        let ext = self.cfg.extent * BLOCK_SIZE as u64;
        self.tail = self.tail.div_ceil(ext) * ext;
        // Ring-buffer wrap: the unused tail region is dead space.
        if self.tail + padded as u64 > self.log_bytes {
            let (a, b) = (self.tail, self.log_bytes);
            self.evict_range(a, b);
            self.tail = 0;
            self.wraps += 1;
        }
        let (a, b) = (self.tail, self.tail + padded as u64);
        self.evict_range(a, b);
        let first = self.tail / BLOCK_SIZE as u64;
        let seg = std::mem::take(&mut self.seg);
        let r = if self.cfg.serial() {
            // The v1 shape: seal and publish one block at a time.
            (0..padded / BLOCK_SIZE).try_fold((), |(), j| {
                self.store
                    .write_block(first + j as u64, &seg[j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE])
            })
        } else {
            self.store.write_run(first, &seg)
        };
        self.seg = seg;
        r?;
        // Convert staged index entries to their durable offsets.
        let tail = self.tail;
        let index = &mut self.index;
        for key in &self.staged_keys {
            if let Some(slot) = index.get_mut(key.as_slice()) {
                if let Slot::Staged(rec, klen, vlen) = *slot {
                    *slot = Slot::Flushed(tail + rec as u64, klen, vlen);
                }
            }
        }
        // Retire the key buffers into the pool for reuse.
        self.key_pool.append(&mut self.staged_keys);
        self.tail += padded as u64;
        self.seg.clear();
        self.flushes += 1;
        Ok(())
    }

    /// Drops flushed records overlapping log bytes `[a, b)` (overwritten
    /// or abandoned by a wrap).
    fn evict_range(&mut self, a: u64, b: u64) {
        self.index.retain(|_, slot| match *slot {
            Slot::Staged(..) => true,
            Slot::Flushed(rec, klen, vlen) => {
                let end = rec + (REC_HDR + klen as usize) as u64 + u64::from(vlen);
                rec >= b || end <= a
            }
        });
    }

    /// Stores `value` under `key`, the request arriving as a sealed cTLS
    /// record from the application compartment (the full E24 ingest path:
    /// record in via cTLS, blocks out via the ring).
    ///
    /// # Errors
    ///
    /// Channel or storage failures.
    pub fn put_sealed(&mut self, key: &[u8], value: &[u8]) -> Result<(), CioError> {
        self.req_buf.clear();
        self.req_buf.push(1); // op: put
        self.req_buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.req_buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.req_buf.extend_from_slice(key);
        self.req_buf.extend_from_slice(value);
        self.client.seal_into(&self.req_buf, &mut self.wire)?;
        // KV engine side: open, apply, ack. The opened plaintext is
        // detached from `self` while `put` runs (scratch swap, no copy).
        self.server
            .open_into(self.wire.as_slice(), &mut self.plain)?;
        let plain = std::mem::take(&mut self.plain);
        let req = plain.as_slice();
        let klen = u16::from_le_bytes([req[1], req[2]]) as usize;
        let vlen = u32::from_le_bytes([req[3], req[4], req[5], req[6]]) as usize;
        let r = self.put(&req[7..7 + klen], &req[7 + klen..7 + klen + vlen]);
        self.plain = plain;
        r?;
        self.server.seal_into(&[1u8], &mut self.wire)?;
        self.client
            .open_into(self.wire.as_slice(), &mut self.plain)?;
        debug_assert_eq!(self.plain.as_slice(), [1u8]);
        Ok(())
    }

    /// Fetches `key`, request and response both sealed cTLS records.
    ///
    /// # Errors
    ///
    /// Channel or storage failures.
    pub fn get_sealed(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, CioError> {
        let mut out = Vec::new();
        Ok(if self.get_sealed_into(key, &mut out)? {
            Some(out)
        } else {
            None
        })
    }

    /// Fetches `key` over the sealed channel into a caller-supplied buffer
    /// (cleared first), returning whether the key was found. The
    /// allocation-free twin of [`KvWorld::get_sealed`].
    ///
    /// # Errors
    ///
    /// Channel or storage failures.
    pub fn get_sealed_into(&mut self, key: &[u8], out: &mut Vec<u8>) -> Result<bool, CioError> {
        self.req_buf.clear();
        self.req_buf.push(0); // op: get
        self.req_buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.req_buf.extend_from_slice(&0u32.to_le_bytes());
        self.req_buf.extend_from_slice(key);
        self.client.seal_into(&self.req_buf, &mut self.wire)?;
        self.server
            .open_into(self.wire.as_slice(), &mut self.plain)?;
        let plain = std::mem::take(&mut self.plain);
        let req = plain.as_slice();
        let klen = u16::from_le_bytes([req[1], req[2]]) as usize;
        let mut val = std::mem::take(&mut self.val_buf);
        let found = self.get_into(&req[7..7 + klen], &mut val);
        self.plain = plain;
        self.resp_buf.clear();
        match found {
            Ok(true) => {
                self.resp_buf.push(0);
                self.resp_buf
                    .extend_from_slice(&(val.len() as u32).to_le_bytes());
                self.resp_buf.extend_from_slice(&val);
            }
            Ok(false) => self.resp_buf.push(2),
            Err(_) => {}
        }
        self.val_buf = val;
        found?;
        self.server.seal_into(&self.resp_buf, &mut self.wire)?;
        self.client
            .open_into(self.wire.as_slice(), &mut self.plain)?;
        let resp = self.plain.as_slice();
        out.clear();
        match resp[0] {
            0 => {
                let vlen = u32::from_le_bytes([resp[1], resp[2], resp[3], resp[4]]) as usize;
                out.extend_from_slice(&resp[5..5 + vlen]);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// One host-side service round across all lanes, admitted by the
    /// net host's [`Admission`]: every lane is serviced every round
    /// unless [`NotifyPolicy::Adaptive`] finds it provably idle (cold
    /// lanes are woken by doorbells or the heartbeat). A lane that stays
    /// hot does not re-arm the guest's doorbell on its empty drain.
    ///
    /// # Errors
    ///
    /// Backend processing failures.
    pub fn service(&mut self) -> Result<usize, CioError> {
        let mut moved_total = 0;
        for lane in 0..self.cfg.queues {
            let Some(pass) = self.admission.admit(lane, false) else {
                continue;
            };
            let back = self.store.inner_mut().lane_mut(lane).backend_mut();
            let moved = back.process_pass(pass.arm)?;
            self.admission.observe(lane, moved);
            moved_total += moved;
        }
        Ok(moved_total)
    }

    /// Total empty service passes the adaptive gates burned while hot
    /// (the idle-spin audit trail).
    pub fn idle_passes(&self) -> u64 {
        self.admission.idle_passes()
    }

    /// Snapshot of the TEE meter.
    pub fn meter(&self) -> &Meter {
        self.tee.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_block::BlockError;

    fn val(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| ((i * 131 + j * 7) % 255) as u8).collect()
    }

    #[test]
    fn sealed_put_get_roundtrip_staged_and_flushed() {
        let mut kv = KvWorld::new(KvConfig::batched(8), CostModel::default()).unwrap();
        for (i, len) in [64usize, 500, 4096, 20_000].into_iter().enumerate() {
            let key = format!("key-{i}");
            kv.put_sealed(key.as_bytes(), &val(i, len)).unwrap();
        }
        // Staged reads (segment not yet flushed for the small values).
        assert_eq!(kv.get_sealed(b"key-0").unwrap().unwrap(), val(0, 64));
        kv.flush().unwrap();
        assert!(kv.flushes() >= 1);
        for (i, len) in [64usize, 500, 4096, 20_000].into_iter().enumerate() {
            let key = format!("key-{i}");
            assert_eq!(
                kv.get_sealed(key.as_bytes()).unwrap().unwrap(),
                val(i, len),
                "value {i}"
            );
        }
        assert!(kv.get_sealed(b"missing").unwrap().is_none());
    }

    #[test]
    fn overwrites_and_large_values() {
        let mut kv = KvWorld::new(
            KvConfig {
                queues: 2,
                ..KvConfig::batched(8)
            },
            CostModel::default(),
        )
        .unwrap();
        kv.put(b"k", &val(1, 100)).unwrap();
        kv.put(b"k", &val(2, 65_536)).unwrap(); // 64 KiB forces a flush
        kv.flush().unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), val(2, 65_536));
    }

    #[test]
    fn log_wraps_and_evicts_overwritten_records() {
        // Tiny disk: ~48 logical blocks per lane.
        let mut kv = KvWorld::new(
            KvConfig::batched(8).with_disk_blocks(64),
            CostModel::default(),
        )
        .unwrap();
        let n = 60usize;
        for i in 0..n {
            kv.put(format!("k{i}").as_bytes(), &val(i, 8_000)).unwrap();
        }
        kv.flush().unwrap();
        assert!(kv.wraps() > 0, "log should have wrapped");
        // The most recent keys survive with correct contents.
        let mut live = 0;
        for i in 0..n {
            if let Some(v) = kv.get(format!("k{i}").as_bytes()).unwrap() {
                assert_eq!(v, val(i, 8_000), "key {i}");
                live += 1;
            }
        }
        assert!(live > 0, "recent records must survive the wrap");
        assert!(live < n, "wrapped records must be evicted");
        // The newest key always survives.
        assert!(kv.get(format!("k{}", n - 1).as_bytes()).unwrap().is_some());
    }

    #[test]
    fn batched_path_is_zero_copy_where_v1_stages() {
        let run = |cfg: KvConfig| {
            let mut kv = KvWorld::new(cfg, CostModel::default()).unwrap();
            for i in 0..32 {
                kv.put(format!("k{i}").as_bytes(), &val(i, 4096)).unwrap();
            }
            kv.flush().unwrap();
            for i in 0..32 {
                assert_eq!(
                    kv.get(format!("k{i}").as_bytes()).unwrap().unwrap(),
                    val(i, 4096)
                );
            }
            (kv.tee().clock().now(), kv.tee().meter().snapshot())
        };
        let (v1_cycles, v1) = run(KvConfig::storage_v1());
        let (batched_cycles, batched) = run(KvConfig::batched(8));
        assert!(v1.blk_copies > 0, "v1 stages every block");
        assert_eq!(batched.blk_copies, 0, "batched path seals in slot");
        assert!(batched.blk_commits < v1.blk_commits);
        assert!(
            batched_cycles < v1_cycles,
            "batched {batched_cycles} !< v1 {v1_cycles}"
        );
    }

    #[test]
    fn host_tamper_on_any_lane_fails_closed() {
        let mut kv = KvWorld::new(
            KvConfig {
                queues: 2,
                ..KvConfig::batched(8)
            },
            CostModel::default(),
        )
        .unwrap();
        for i in 0..24 {
            kv.put(format!("k{i}").as_bytes(), &val(i, 4096)).unwrap();
        }
        kv.flush().unwrap();
        for lane in 0..2 {
            for lba in 0..8 {
                kv.lane_disk_mut(lane).tamper(lba, 99, 0x40).unwrap();
            }
        }
        let mut refused = 0;
        for i in 0..24 {
            match kv.get(format!("k{i}").as_bytes()) {
                Err(CioError::Block(BlockError::IntegrityViolation)) => refused += 1,
                Ok(Some(v)) => assert_eq!(v, val(i, 4096), "untouched record {i}"),
                other => panic!("unexpected outcome for k{i}: {other:?}"),
            }
        }
        assert!(refused > 0, "tampered blocks must be refused");
    }

    #[test]
    fn adaptive_gate_goes_cold_when_idle() {
        let mut kv = KvWorld::new(
            KvConfig::batched(8).with_notify(NotifyPolicy::Adaptive),
            CostModel::default(),
        )
        .unwrap();
        for i in 0..16 {
            kv.put(format!("k{i}").as_bytes(), &val(i, 4096)).unwrap();
        }
        kv.flush().unwrap();
        // Idle service rounds: the gate must stop polling after its
        // budget and stay cold (bounded idle spin).
        for _ in 0..200 {
            kv.service().unwrap();
        }
        let idle = kv.idle_passes();
        assert!(idle <= 64, "idle passes unbounded: {idle}");
        // Cold: another 200 rounds cost only the heartbeat's re-polls.
        for _ in 0..200 {
            kv.service().unwrap();
        }
        let more = kv.idle_passes() - idle;
        assert!(
            more <= 4,
            "idle lane still hot: {more} passes in 200 rounds"
        );
    }

    #[test]
    fn event_idx_block_host_polls_every_round_like_the_net_host() {
        // Under EventIdx the consumer re-arms only on an empty drain, so
        // silence on the door word does not mean no work: like the net
        // host, the block host services every lane every round. Once
        // drained, a round costs one producer-index read per lane (the
        // re-arm is idempotent) and nothing else.
        for lanes in [1u64, 2] {
            let cost = CostModel::default();
            let cfg = KvConfig {
                queues: lanes as usize,
                ..KvConfig::batched(8)
            };
            let mut kv = KvWorld::new(cfg, cost.clone()).unwrap();
            for i in 0..16 {
                kv.put(format!("k{i}").as_bytes(), &val(i, 4096)).unwrap();
            }
            kv.flush().unwrap();
            kv.service().unwrap();
            let t0 = kv.tee().clock().now();
            for _ in 0..10 {
                kv.service().unwrap();
            }
            let spent = kv.tee().clock().since(t0).get();
            assert_eq!(spent, 10 * lanes * cost.ring_op.get(), "{lanes} lane(s)");
        }
    }
}
