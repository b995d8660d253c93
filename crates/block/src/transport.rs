//! Block requests over the safe ring: the storage analogue of cio-net.
//!
//! Requests and responses are fixed 16-byte-header frames over a
//! [`cio_vring::cioring`] pair, so the block path inherits every L2
//! hardening property (stateless, masked, copy-policy-aware) without any
//! storage-specific protocol machinery — the generalization §3.3 predicts.
//!
//! The transport speaks the same performance dialects as the network
//! dataplane, selected by [`BlkProfile`]:
//!
//! * **Data positioning** — the profile's [`CopyPolicy`] is wired onto the
//!   four ring endpoints and the transport never looks at it again on the
//!   data path: frames are always built through
//!   [`cio_vring::cioring::Producer::reserve_batch`] and parsed through
//!   [`cio_vring::cioring::Consumer::consume_batch_in_place`]. Under
//!   [`CopyPolicy::InPlace`] those hand out ring-slot memory, so a block
//!   write's ciphertext is sealed straight into the slot and a read's
//!   ciphertext is gathered straight out of it — zero staging copies.
//!   Under [`CopyPolicy::CopyEarly`] they hand out endpoint-private
//!   staging and the ring pays one explicit, metered copy per frame each
//!   way (the `storage_v1` preset).
//! * **Batching** — [`cio_vring::cioring::BatchPolicy`] sizes runs of
//!   requests so a whole run costs one memory lock, one index publish,
//!   and at most one doorbell ([`cio_vring::cioring::MAX_BATCH`] cap).
//! * **Notification** — the ring's [`NotifyMode`] (fixed at ring
//!   construction, zero renegotiation) decides polling vs. doorbell vs.
//!   event-idx suppression. Whether a host pass runs at all is the
//!   caller's service loop's decision, not the transport's.
//!
//! Framing (both directions share the 16-byte header):
//!
//! ```text
//! request:  [0] op (0=read, 1=write)   [1..8] zero   [8..16] lba (LE)
//!           write payload at [16..16+BLOCK_SIZE]
//! response: [0] status (0=data, 1=ok, 2=err)   [1..8] zero   [8..16] lba echo
//!           read data at [16..16+BLOCK_SIZE]
//! ```
//!
//! Both sides parse the peer's bytes defensively: the backend validates
//! guest frames (defending the host), the frontend validates host frames
//! byte-for-byte with a single fetch per field (defending the TEE), and a
//! response's echoed LBA must match the request it answers — a host that
//! replays or reorders completions is caught as a protocol violation.

use crate::blockdev::{BlockStore, RamDisk, RunStore, BLOCK_SIZE};
use crate::BlockError;
use cio_mem::{CopyPolicy, GuestView, HostView};
use cio_sim::{Meter, Stage, Telemetry};
use cio_vring::cioring::{BatchPolicy, Consumer, NotifyMode, Producer, MAX_BATCH};
use cio_vring::RingError;

/// Bytes of framing ahead of each payload (shared by both directions).
pub const BLK_HDR: usize = 16;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const ST_DATA: u8 = 0;
const ST_OK: u8 = 1;
const ST_ERR: u8 = 2;

/// The block transport's performance profile.
///
/// `notify` is the *ring-level* discipline and must match the
/// [`NotifyMode`] the rings were built with; service loops that want the
/// dataplane's adaptive poll-vs-notify gate layer it on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkProfile {
    /// Data positioning, wired onto the ring endpoints.
    pub copy: CopyPolicy,
    /// Run sizing for requests and completions.
    pub batch: BatchPolicy,
    /// Ring notification mode (informational; the ring enforces it).
    pub notify: NotifyMode,
}

impl BlkProfile {
    /// The one-at-a-time preset: copy-early, serial requests, pure
    /// polling. Charge-compatible with the pre-batching transport.
    pub fn storage_v1() -> Self {
        BlkProfile {
            copy: CopyPolicy::CopyEarly,
            batch: BatchPolicy::Serial,
            notify: NotifyMode::Polling,
        }
    }

    /// The dataplane-parity shape: seal-in-slot zero-copy, runs of
    /// `depth` requests, event-idx doorbell suppression.
    pub fn batched(depth: usize) -> Self {
        BlkProfile {
            copy: CopyPolicy::InPlace,
            batch: BatchPolicy::Fixed(depth),
            notify: NotifyMode::EventIdx,
        }
    }
}

impl Default for BlkProfile {
    fn default() -> Self {
        BlkProfile::storage_v1()
    }
}

fn put_hdr(hdr: &mut [u8], tag: u8, lba: u64) {
    hdr[0] = tag;
    hdr[1..8].fill(0);
    hdr[8..BLK_HDR].copy_from_slice(&lba.to_le_bytes());
}

/// A validated view of one guest request frame (backend side; the input
/// is hostile from the host's perspective, so the host validates too,
/// defending itself).
enum ReqView {
    Read(u64),
    Write(u64),
    Malformed,
}

fn parse_req(frame: &[u8]) -> ReqView {
    if frame.len() < BLK_HDR {
        return ReqView::Malformed;
    }
    let lba = u64::from_le_bytes(frame[8..BLK_HDR].try_into().expect("8 bytes"));
    match frame[0] {
        OP_READ if frame.len() == BLK_HDR => ReqView::Read(lba),
        OP_WRITE if frame.len() == BLK_HDR + BLOCK_SIZE => ReqView::Write(lba),
        _ => ReqView::Malformed,
    }
}

/// A validated view of one host response frame (guest side).
///
/// For in-slot consumption `bytes` aliases shared slot memory: read each
/// byte at most once (the crypt layer's gather-open does exactly that).
pub enum BlkResp<'a> {
    /// Read data for the echoed LBA.
    Data {
        /// Echoed logical block address.
        lba: u64,
        /// Exactly [`BLOCK_SIZE`] payload bytes.
        bytes: &'a mut [u8],
    },
    /// Write acknowledged for the echoed LBA.
    Ok {
        /// Echoed logical block address.
        lba: u64,
    },
    /// The backend failed the request.
    Err {
        /// Echoed logical block address.
        lba: u64,
    },
    /// The frame violates the protocol (hostile or corrupt host bytes).
    Malformed,
}

/// Parses a response frame; every branch validates length exactly and
/// fetches each header field once.
pub fn parse_resp(frame: &mut [u8]) -> BlkResp<'_> {
    if frame.len() < BLK_HDR {
        return BlkResp::Malformed;
    }
    let status = frame[0];
    let lba = u64::from_le_bytes(frame[8..BLK_HDR].try_into().expect("8 bytes"));
    if status == ST_DATA && frame.len() == BLK_HDR + BLOCK_SIZE {
        let (_, bytes) = frame.split_at_mut(BLK_HDR);
        BlkResp::Data { lba, bytes }
    } else if status == ST_OK && frame.len() == BLK_HDR {
        BlkResp::Ok { lba }
    } else if status == ST_ERR && frame.len() == BLK_HDR {
        BlkResp::Err { lba }
    } else {
        BlkResp::Malformed
    }
}

/// Staging copies `frames` payload-bearing frames cost on an endpoint
/// positioned by `policy` (what the `blk_copies` meter counts).
fn staged_copies(policy: CopyPolicy, frames: usize) -> u64 {
    match policy {
        CopyPolicy::InPlace => 0,
        CopyPolicy::CopyEarly => frames as u64,
    }
}

/// Guest frontend over the request/response rings.
pub struct CioBlkFrontend {
    req: Producer<GuestView>,
    resp: Consumer<GuestView>,
    profile: BlkProfile,
    meter: Meter,
    telemetry: Telemetry,
    tq: usize,
}

impl CioBlkFrontend {
    /// Creates the frontend with the [`BlkProfile::storage_v1`] preset.
    pub fn new(req: Producer<GuestView>, resp: Consumer<GuestView>) -> Self {
        CioBlkFrontend::with_profile(req, resp, BlkProfile::default())
    }

    /// Creates the frontend with an explicit profile, wiring its data
    /// positioning onto both ring endpoints. The rings must have been
    /// built with `profile.notify`.
    pub fn with_profile(
        mut req: Producer<GuestView>,
        mut resp: Consumer<GuestView>,
        profile: BlkProfile,
    ) -> Self {
        req.set_copy_policy(profile.copy);
        resp.set_copy_policy(profile.copy);
        let meter = req.meter();
        CioBlkFrontend {
            req,
            resp,
            profile,
            meter,
            telemetry: Telemetry::disabled(),
            tq: 0,
        }
    }

    /// Attributes this frontend's stages to `queue` in `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.telemetry = telemetry;
        self.tq = queue;
    }

    /// The active profile.
    pub fn profile(&self) -> BlkProfile {
        self.profile
    }

    /// Submits read requests for the `count` blocks named by `lba_of(i)`
    /// (block commands are independent: a scatter of LBAs batches exactly
    /// like a contiguous run). Responses complete in submission order.
    /// Returns how many were accepted (ring backpressure may clamp —
    /// resubmit the tail after draining completions).
    ///
    /// # Errors
    ///
    /// Ring errors other than backpressure.
    pub fn submit_reads(
        &mut self,
        count: usize,
        lba_of: &dyn Fn(usize) -> u64,
    ) -> Result<usize, BlockError> {
        let _submit = self.telemetry.span(self.tq, Stage::BlkSubmit);
        self.submit_with(BLK_HDR, count, &mut |base, slots| {
            for (i, s) in slots.iter_mut().enumerate() {
                put_hdr(s, OP_READ, lba_of(base + i));
            }
        })
    }

    /// Submits write requests for blocks `[lba, lba + count)`, obtaining
    /// each block's payload from `fill` (see
    /// [`RunStore::write_run_with`] for the closure contract — on an
    /// in-place request ring the buffers are real ring-slot memory, so the
    /// crypt layer seals ciphertext directly into the shared slot).
    /// Returns how many requests were accepted.
    ///
    /// # Errors
    ///
    /// Ring errors other than backpressure.
    pub fn submit_writes(
        &mut self,
        lba: u64,
        count: usize,
        fill: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<usize, BlockError> {
        let _submit = self.telemetry.span(self.tq, Stage::BlkSubmit);
        let done = self.submit_with(BLK_HDR + BLOCK_SIZE, count, &mut |base, slots| {
            let n = slots.len();
            let mut payloads: [&mut [u8]; MAX_BATCH] = std::array::from_fn(|_| &mut [][..]);
            for (i, s) in slots.iter_mut().enumerate() {
                let (hdr, pay) = std::mem::take(s).split_at_mut(BLK_HDR);
                put_hdr(hdr, OP_WRITE, lba + (base + i) as u64);
                payloads[i] = pay;
            }
            fill(base, &mut payloads[..n]);
        })?;
        self.meter
            .blk_copies(staged_copies(self.req.copy_policy(), done));
        Ok(done)
    }

    /// Submits `count` request frames of `len` bytes in runs sized by the
    /// profile's batch policy: `build(base, slots)` writes frames
    /// `base..base + slots.len()`, then the run is committed with one
    /// index publish and at most one doorbell. Returns how many frames
    /// the ring accepted.
    fn submit_with(
        &mut self,
        len: usize,
        count: usize,
        build: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<usize, BlockError> {
        let mut done = 0;
        while done < count {
            let want = self.profile.batch.max_batch().min(count - done);
            let _r = self.telemetry.span(self.tq, Stage::BlkRing);
            let grant = match self.req.reserve_batch(len, want) {
                Ok(g) => g,
                Err(RingError::Full) => break,
                Err(e) => return Err(e.into()),
            };
            let n = grant.len();
            self.req
                .with_batch_mut(&grant, |slots| build(done, slots))?;
            self.req.commit_batch(grant, &[len; MAX_BATCH][..n])?;
            if self.req.kick() {
                self.meter.blk_doorbells(1);
            }
            self.meter.blk_records(n as u64);
            self.meter.blk_commits(1);
            done += n;
        }
        Ok(done)
    }

    /// Drains up to `max` pending responses, handing each to `sink` as a
    /// validated [`BlkResp`] (indices count from 0 within this call, in
    /// completion order). Returns how many responses were delivered;
    /// 0 means the ring was empty.
    ///
    /// # Errors
    ///
    /// Ring errors. Malformed host frames are *delivered* as
    /// [`BlkResp::Malformed`], never dropped — the caller decides how to
    /// fail, and the slot is always reclaimed.
    pub fn collect(
        &mut self,
        max: usize,
        sink: &mut dyn FnMut(usize, BlkResp<'_>),
    ) -> Result<usize, BlockError> {
        let mut got = 0;
        let mut data = 0;
        while got < max {
            let want = self.profile.batch.max_batch().min(max - got);
            let mut idx = got;
            let _r = self.telemetry.span(self.tq, Stage::BlkRing);
            let n = self.resp.consume_batch_in_place(want, |slots| {
                for s in slots.iter_mut() {
                    data += usize::from(s.len() > BLK_HDR);
                    sink(idx, parse_resp(s));
                    idx += 1;
                }
            })?;
            if n == 0 {
                break;
            }
            got += n;
        }
        self.meter
            .blk_copies(staged_copies(self.resp.copy_policy(), data));
        Ok(got)
    }
}

const PENDING_READ: u8 = 0;
const PENDING_OK: u8 = 1;
const PENDING_ERR: u8 = 2;

/// Host backend executing requests against its disk.
pub struct CioBlkBackend {
    req: Consumer<HostView>,
    resp: Producer<HostView>,
    disk: RamDisk,
    profile: BlkProfile,
    meter: Meter,
    telemetry: Telemetry,
    tq: usize,
}

impl CioBlkBackend {
    /// Creates the backend over the host's disk with the
    /// [`BlkProfile::storage_v1`] preset.
    pub fn new(req: Consumer<HostView>, resp: Producer<HostView>, disk: RamDisk) -> Self {
        CioBlkBackend::with_profile(req, resp, disk, BlkProfile::default())
    }

    /// Creates the backend with an explicit profile (must match the
    /// frontend's), wiring its data positioning onto both ring endpoints.
    pub fn with_profile(
        mut req: Consumer<HostView>,
        mut resp: Producer<HostView>,
        disk: RamDisk,
        profile: BlkProfile,
    ) -> Self {
        req.set_copy_policy(profile.copy);
        resp.set_copy_policy(profile.copy);
        let meter = resp.meter();
        CioBlkBackend {
            req,
            resp,
            disk,
            profile,
            meter,
            telemetry: Telemetry::disabled(),
            tq: 0,
        }
    }

    /// Attributes this backend's stages to `queue` in `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.telemetry = telemetry;
        self.tq = queue;
    }

    /// The host's disk (adversary access).
    pub fn disk_mut(&mut self) -> &mut RamDisk {
        &mut self.disk
    }

    /// Processes pending requests; returns how many were handled.
    ///
    /// Malformed guest frames get an error response; disk failures
    /// (out-of-range LBA) fail that request alone — the rest of the run
    /// proceeds, so one poisoned request cannot sink a batch.
    ///
    /// # Errors
    ///
    /// Ring errors only.
    pub fn process(&mut self) -> Result<usize, BlockError> {
        let mut handled = 0;
        loop {
            let n = self.process_chunk()?;
            if n == 0 {
                break;
            }
            handled += n;
        }
        Ok(handled)
    }

    /// One service pass admitted by the host's poll-vs-notify decision:
    /// [`CioBlkBackend::process`], whose empty drain publishes the request
    /// ring's event index only if `arm` (see
    /// [`Consumer::set_arm_on_empty`]). Every other pass keeps arming.
    ///
    /// # Errors
    ///
    /// As [`CioBlkBackend::process`].
    pub fn process_pass(&mut self, arm: bool) -> Result<usize, BlockError> {
        self.req.set_arm_on_empty(arm);
        let handled = self.process();
        self.req.set_arm_on_empty(true);
        handled
    }

    fn process_chunk(&mut self) -> Result<usize, BlockError> {
        let _svc = self.telemetry.span(self.tq, Stage::BlkService);
        let want = self.profile.batch.max_batch();
        // Pull a run of requests under one lock. Writes land on the disk
        // inside the closure — the disk is host-private memory, not guest
        // memory, so the no-reentry rule is respected, and each slot's
        // payload is fetched exactly once.
        let mut ops: [(u64, u8); MAX_BATCH] = [(0, PENDING_ERR); MAX_BATCH];
        let mut k = 0usize;
        let mut writes = 0;
        let disk = &mut self.disk;
        let consumed = {
            let _r = self.telemetry.span(self.tq, Stage::BlkRing);
            self.req.consume_batch_in_place(want, |slots| {
                for s in slots.iter_mut() {
                    writes += usize::from(s.len() > BLK_HDR);
                    let op = match parse_req(s) {
                        ReqView::Read(lba) => (lba, PENDING_READ),
                        ReqView::Write(lba) => {
                            if disk.write_block(lba, &s[BLK_HDR..]).is_ok() {
                                (lba, PENDING_OK)
                            } else {
                                (lba, PENDING_ERR)
                            }
                        }
                        ReqView::Malformed => (0, PENDING_ERR),
                    };
                    if k < MAX_BATCH {
                        ops[k] = op;
                        k += 1;
                    }
                }
            })?
        };
        if consumed == 0 {
            return Ok(0);
        }
        let mut reads = 0;
        let mut sent = 0;
        while sent < consumed {
            let _r = self.telemetry.span(self.tq, Stage::BlkRing);
            // The flow is synchronous — the guest collects every response
            // before it submits again — so the ring always has room; a
            // full one is an error like any other.
            let grant = self
                .resp
                .reserve_batch(BLK_HDR + BLOCK_SIZE, consumed - sent)?;
            let n = grant.len();
            let mut lens = [0usize; MAX_BATCH];
            let disk = &mut self.disk;
            let ops = &ops;
            let base = sent;
            self.resp.with_batch_mut(&grant, |slots| {
                for (i, s) in slots.iter_mut().enumerate() {
                    let (lba, pend) = ops[base + i];
                    lens[i] = match pend {
                        // Read data goes straight from the disk into the
                        // response frame: no host-side staging of its own.
                        PENDING_READ => {
                            put_hdr(s, ST_DATA, lba);
                            if disk
                                .read_block(lba, &mut s[BLK_HDR..BLK_HDR + BLOCK_SIZE])
                                .is_ok()
                            {
                                BLK_HDR + BLOCK_SIZE
                            } else {
                                put_hdr(s, ST_ERR, lba);
                                BLK_HDR
                            }
                        }
                        PENDING_OK => {
                            put_hdr(s, ST_OK, lba);
                            BLK_HDR
                        }
                        _ => {
                            put_hdr(s, ST_ERR, lba);
                            BLK_HDR
                        }
                    };
                }
            })?;
            reads += lens[..n].iter().filter(|&&l| l > BLK_HDR).count();
            self.resp.commit_batch(grant, &lens[..n])?;
            if self.resp.kick() {
                self.meter.blk_doorbells(1);
            }
            self.meter.blk_commits(1);
            sent += n;
        }
        self.meter.blk_copies(
            staged_copies(self.req.copy_policy(), writes)
                + staged_copies(self.resp.copy_policy(), reads),
        );
        Ok(consumed)
    }
}

/// A synchronous [`BlockStore`]/[`RunStore`] over the ring pair: each
/// operation submits, lets the backend run, and collects the responses.
/// The caller accounts for boundary-crossing costs (the `cio` crate
/// charges exits around this).
pub struct RingBlockStore {
    front: CioBlkFrontend,
    back: CioBlkBackend,
}

impl RingBlockStore {
    /// Couples a frontend and backend.
    pub fn new(front: CioBlkFrontend, back: CioBlkBackend) -> Self {
        RingBlockStore { front, back }
    }

    /// Backend/disk access (host-side servicing, adversary).
    pub fn backend_mut(&mut self) -> &mut CioBlkBackend {
        &mut self.back
    }

    /// Attributes both ends' stages to `queue` in `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, queue: usize) {
        self.front.set_telemetry(telemetry.clone(), queue);
        self.back.set_telemetry(telemetry, queue);
    }

    /// Collects exactly `expect` responses, pumping the backend.
    fn complete(
        &mut self,
        expect: usize,
        sink: &mut dyn FnMut(usize, BlkResp<'_>),
    ) -> Result<(), BlockError> {
        let mut got = 0;
        while got < expect {
            self.back.process()?;
            let base = got;
            got += self
                .front
                .collect(expect - got, &mut |i, r| sink(base + i, r))?;
        }
        Ok(())
    }
}

impl RingBlockStore {
    /// Reads the `count` blocks named by `lba_of(i)`, delivering each to
    /// `sink` in order; a response must echo the LBA it answers.
    fn read_with(
        &mut self,
        count: usize,
        lba_of: &dyn Fn(usize) -> u64,
        sink: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        let mut done = 0;
        while done < count {
            let base = done;
            let submitted = self
                .front
                .submit_reads(count - base, &|i| lba_of(base + i))?;
            if submitted == 0 {
                self.back.process()?;
                continue;
            }
            let mut first_err: Option<BlockError> = None;
            self.complete(submitted, &mut |i, resp| match resp {
                BlkResp::Data { lba: echo, bytes } if echo == lba_of(base + i) => {
                    // Past a failure the contract stops delivering.
                    if first_err.is_none() {
                        sink(base + i, &mut [bytes]);
                    }
                }
                BlkResp::Err { .. } => {
                    first_err.get_or_insert(BlockError::OutOfRange);
                }
                _ => {
                    first_err.get_or_insert(BlockError::Protocol);
                }
            })?;
            if let Some(e) = first_err {
                return Err(e);
            }
            done += submitted;
        }
        Ok(())
    }
}

impl RunStore for RingBlockStore {
    fn write_run_with(
        &mut self,
        lba: u64,
        count: usize,
        fill: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        let mut done = 0;
        while done < count {
            let base = done;
            let submitted =
                self.front
                    .submit_writes(lba + base as u64, count - base, &mut |b, slots| {
                        fill(base + b, slots)
                    })?;
            if submitted == 0 {
                self.back.process()?;
                continue;
            }
            let mut first_err: Option<BlockError> = None;
            self.complete(submitted, &mut |i, resp| {
                let expect_lba = lba + (base + i) as u64;
                match resp {
                    BlkResp::Ok { lba: echo } if echo == expect_lba => {}
                    BlkResp::Err { .. } => {
                        first_err.get_or_insert(BlockError::OutOfRange);
                    }
                    _ => {
                        first_err.get_or_insert(BlockError::Protocol);
                    }
                }
            })?;
            if let Some(e) = first_err {
                return Err(e);
            }
            done += submitted;
        }
        Ok(())
    }

    fn read_run_with(
        &mut self,
        lba: u64,
        count: usize,
        sink: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        self.read_with(count, &|i| lba + i as u64, sink)
    }

    fn read_scatter_with(
        &mut self,
        lbas: &[u64],
        sink: &mut dyn FnMut(usize, &mut [&mut [u8]]),
    ) -> Result<(), BlockError> {
        self.read_with(lbas.len(), &|i| lbas[i], sink)
    }
}

impl BlockStore for RingBlockStore {
    fn read_block(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        if buf.len() != BLOCK_SIZE {
            return Err(BlockError::BadLength);
        }
        RunStore::read_run_with(self, lba, 1, &mut |_, slots| {
            buf.copy_from_slice(&slots[0][..]);
        })
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        if data.len() != BLOCK_SIZE {
            return Err(BlockError::BadLength);
        }
        RunStore::write_run_with(self, lba, 1, &mut |_, slots| {
            slots[0].copy_from_slice(data);
        })
    }

    fn blocks(&self) -> u64 {
        self.back.disk.blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel};
    use cio_vring::cioring::{CioRing, DataMode, RingConfig};

    fn ring_store_with(disk_blocks: u64, profile: BlkProfile) -> (GuestMemory, RingBlockStore) {
        let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 16,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: (BLOCK_SIZE + BLK_HDR) as u32,
            area_size: 1 << 17, // 128 KiB / 16 slots = 8 KiB stride
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
            RamDisk::new(disk_blocks),
            profile,
        );
        (mem, RingBlockStore::new(front, back))
    }

    fn ring_store(disk_blocks: u64) -> (GuestMemory, RingBlockStore) {
        ring_store_with(disk_blocks, BlkProfile::storage_v1())
    }

    fn pattern(i: usize) -> Vec<u8> {
        (0..BLOCK_SIZE)
            .map(|j| ((i * 131 + j * 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn frames_parse_and_reject() {
        let mut frame = vec![0u8; BLK_HDR + BLOCK_SIZE];
        put_hdr(&mut frame, OP_WRITE, 42);
        assert!(matches!(parse_req(&frame), ReqView::Write(42)));
        put_hdr(&mut frame[..BLK_HDR], OP_READ, 7);
        assert!(matches!(parse_req(&frame[..BLK_HDR]), ReqView::Read(7)));
        // Truncated, wrong length for op, unknown op.
        assert!(matches!(parse_req(&[]), ReqView::Malformed));
        assert!(matches!(
            parse_req(&frame[..BLK_HDR - 1]),
            ReqView::Malformed
        ));
        assert!(matches!(
            parse_req(&frame[..BLK_HDR + 1]),
            ReqView::Malformed
        ));
        frame[0] = 9;
        assert!(matches!(parse_req(&frame), ReqView::Malformed));

        let mut resp = vec![0u8; BLK_HDR + BLOCK_SIZE];
        put_hdr(&mut resp, ST_DATA, 5);
        assert!(matches!(
            parse_resp(&mut resp),
            BlkResp::Data { lba: 5, .. }
        ));
        put_hdr(&mut resp[..BLK_HDR], ST_OK, 6);
        assert!(matches!(
            parse_resp(&mut resp[..BLK_HDR]),
            BlkResp::Ok { lba: 6 }
        ));
        put_hdr(&mut resp[..BLK_HDR], ST_ERR, 8);
        assert!(matches!(
            parse_resp(&mut resp[..BLK_HDR]),
            BlkResp::Err { lba: 8 }
        ));
        // Truncated data, oversized ack, unknown status.
        assert!(matches!(
            parse_resp(&mut resp[..BLK_HDR + 3]),
            BlkResp::Malformed
        ));
        resp[0] = ST_OK;
        assert!(matches!(parse_resp(&mut resp), BlkResp::Malformed));
        resp[0] = 7;
        assert!(matches!(
            parse_resp(&mut resp[..BLK_HDR]),
            BlkResp::Malformed
        ));
    }

    #[test]
    fn ring_store_read_write() {
        let (_mem, mut s) = ring_store(32);
        let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 255) as u8).collect();
        s.write_block(5, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        s.read_block(5, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(s.blocks(), 32);
    }

    #[test]
    fn backend_errors_surface() {
        for profile in [BlkProfile::storage_v1(), BlkProfile::batched(8)] {
            let (_mem, mut s) = ring_store_with(4, profile);
            let data = vec![0u8; BLOCK_SIZE];
            assert_eq!(s.write_block(100, &data), Err(BlockError::OutOfRange));
            let mut buf = vec![0u8; BLOCK_SIZE];
            assert_eq!(s.read_block(100, &mut buf), Err(BlockError::OutOfRange));
            // The store keeps working after a failed request.
            s.write_block(3, &data).unwrap();
            s.read_block(3, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn runs_roundtrip_across_profiles() {
        for profile in [
            BlkProfile::storage_v1(),
            BlkProfile::batched(8),
            BlkProfile {
                copy: CopyPolicy::CopyEarly,
                batch: BatchPolicy::Fixed(8),
                notify: NotifyMode::Doorbell,
            },
            BlkProfile {
                copy: CopyPolicy::InPlace,
                batch: BatchPolicy::Serial,
                notify: NotifyMode::Polling,
            },
        ] {
            let (_mem, mut s) = ring_store_with(64, profile);
            let blocks: Vec<Vec<u8>> = (0..24).map(pattern).collect();
            s.write_run_with(3, blocks.len(), &mut |base, slots| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    slot.copy_from_slice(&blocks[base + i]);
                }
            })
            .unwrap();
            let mut seen = vec![false; blocks.len()];
            s.read_run_with(3, blocks.len(), &mut |base, slots| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    assert_eq!(&slot[..], &blocks[base + i][..], "{profile:?}");
                    seen[base + i] = true;
                }
            })
            .unwrap();
            assert!(seen.iter().all(|&s| s), "{profile:?}");
        }
    }

    #[test]
    fn batched_in_slot_is_zero_copy_and_amortized() {
        let (mem, mut s) = ring_store_with(64, BlkProfile::batched(8));
        let meter = mem.meter().clone();
        let before = meter.snapshot();
        let blocks: Vec<Vec<u8>> = (0..16).map(pattern).collect();
        s.write_run_with(0, 16, &mut |base, slots| {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.copy_from_slice(&blocks[base + i]);
            }
        })
        .unwrap();
        s.read_run_with(0, 16, &mut |base, slots| {
            for (i, slot) in slots.iter_mut().enumerate() {
                assert_eq!(&slot[..], &blocks[base + i][..]);
            }
        })
        .unwrap();
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.blk_records, 32, "16 writes + 16 reads");
        assert_eq!(d.blk_copies, 0, "in-slot path must not stage");
        assert!(
            d.blk_commits <= 8,
            "runs of 8 amortize publishes: {}",
            d.blk_commits
        );
        assert!(
            d.lock_acquisitions < d.blk_records,
            "locks {} must amortize below records {}",
            d.lock_acquisitions,
            d.blk_records
        );
        // Event-idx suppression keeps doorbells far below one per block.
        assert!(
            d.blk_doorbells <= 4,
            "doorbells {} not suppressed",
            d.blk_doorbells
        );
    }

    #[test]
    fn storage_v1_profile_stages_per_block() {
        let (mem, mut s) = ring_store(64);
        let meter = mem.meter().clone();
        let before = meter.snapshot();
        let data = pattern(1);
        s.write_block(2, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        s.read_block(2, &mut out).unwrap();
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.blk_records, 2);
        // Write: guest stages the frame, host copies it out. Read: host
        // stages the response, guest copies it out.
        assert_eq!(d.blk_copies, 4, "storage_v1 pays staging both ways");
        assert_eq!(d.blk_doorbells, 0, "polling rings never kick");
    }

    #[test]
    fn serial_and_batched_disks_match() {
        let (_m1, mut serial) = ring_store_with(64, BlkProfile::storage_v1());
        let (_m2, mut batched) = ring_store_with(64, BlkProfile::batched(8));
        let blocks: Vec<Vec<u8>> = (0..20).map(pattern).collect();
        for (i, b) in blocks.iter().enumerate() {
            serial.write_block(i as u64, b).unwrap();
        }
        batched
            .write_run_with(0, blocks.len(), &mut |base, slots| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    slot.copy_from_slice(&blocks[base + i]);
                }
            })
            .unwrap();
        for lba in 0..blocks.len() as u64 {
            assert_eq!(
                serial.backend_mut().disk_mut().snapshot_block(lba).unwrap(),
                batched
                    .backend_mut()
                    .disk_mut()
                    .snapshot_block(lba)
                    .unwrap(),
                "block {lba} differs between serial and batched paths"
            );
        }
    }

    #[test]
    fn full_stack_fs_over_crypt_over_ring() {
        // The complete in-TEE storage stack of the dual-boundary design:
        // SimpleFs -> CryptStore -> RingBlockStore -> host RamDisk.
        let (_mem, ring) = ring_store(256);
        let crypt = crate::crypt::CryptStore::new(ring, [5u8; 32]).unwrap();
        let mut fs = crate::fs::SimpleFs::format(crypt).unwrap();
        let id = fs.create("db.log").unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        fs.write(id, 0, &payload).unwrap();
        assert_eq!(fs.read(id, 0, payload.len()).unwrap(), payload);

        // Host tampers with its own disk: the crypt layer catches it even
        // through two transport layers.
        fs.store_mut()
            .inner_mut()
            .backend_mut()
            .disk_mut()
            .tamper(7, 99, 0x10)
            .unwrap();
        let mut saw_violation = false;
        for lba_read in 0..20u64 {
            match fs.read(id, lba_read * 512, 512) {
                Err(BlockError::IntegrityViolation) => {
                    saw_violation = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(saw_violation, "tamper must surface as integrity violation");
    }
}
