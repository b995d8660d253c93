//! The §3.3 storage generalization: block-level vs. file-level boundaries.
//!
//! "The first boundary would be at a low-level interface, e.g., disk
//! driver or block layer, and the second one at a higher level such as
//! file operations." This module builds both ends of that comparison:
//!
//! * [`StorageBoundary::BlockInTee`] — the filesystem and the encryption
//!   layer live in the TEE; the host serves opaque blocks over the safe
//!   ring (the storage analogue of the dual boundary). The host observes
//!   block addresses, sizes, and timing — never names, offsets, or
//!   plaintext — and any tampering or rollback is detected by the crypt
//!   layer.
//! * [`StorageBoundary::FileOnHost`] — the filesystem is host software and
//!   the guest issues file operations across the boundary (the L5
//!   analogue, Graphene's unprotected-files mode). Every call leaks its
//!   type, file identity, offset, and length, costs a world switch, and
//!   the host can silently falsify all data.

use crate::CioError;
use cio_block::blockdev::{BlockStore, RamDisk, BLOCK_SIZE};
use cio_block::fs::FileId;
use cio_block::transport::{CioBlkBackend, CioBlkFrontend, RingBlockStore};
use cio_block::{BlockError, CryptStore, SimpleFs};
use cio_host::observe::{bits, Recorder};
use cio_mem::GuestAddr;
use cio_sim::CostModel;
use cio_tee::{Tee, TeeKind};
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

/// Where the storage trust boundary sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageBoundary {
    /// Filesystem + crypt in the TEE; host serves encrypted blocks.
    BlockInTee,
    /// Filesystem on the host; guest issues file calls.
    FileOnHost,
}

impl std::fmt::Display for StorageBoundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageBoundary::BlockInTee => f.write_str("block-in-tee"),
            StorageBoundary::FileOnHost => f.write_str("file-on-host"),
        }
    }
}

/// A block store wrapper that records what the host observes per request.
struct ObservedStore {
    inner: RingBlockStore,
    recorder: Recorder,
}

impl BlockStore for ObservedStore {
    fn read_block(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        // The host sees: a read, its LBA, its size, and when.
        self.recorder
            .record("blk.read", bits::OP_TYPE + 32 + bits::TIMING);
        self.inner.read_block(lba, buf)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), BlockError> {
        self.recorder
            .record("blk.write", bits::OP_TYPE + 32 + bits::TIMING);
        self.inner.write_block(lba, data)
    }

    fn blocks(&self) -> u64 {
        self.inner.blocks()
    }
}

// One variant per boundary; worlds are few and long-lived, so the size
// skew between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
enum StorageInner {
    Tee(SimpleFs<CryptStore<ObservedStore>>),
    Host(SimpleFs<RamDisk>),
}

/// One storage deployment (guest + host side, wired per boundary).
pub struct StorageWorld {
    boundary: StorageBoundary,
    tee: Tee,
    recorder: Recorder,
    inner: StorageInner,
}

/// Disk size used by storage worlds (physical blocks).
pub const DISK_BLOCKS: u64 = 1024;

impl StorageWorld {
    /// Builds a storage world.
    ///
    /// # Errors
    ///
    /// Setup failures (format, ring allocation).
    pub fn new(boundary: StorageBoundary, cost: CostModel) -> Result<StorageWorld, CioError> {
        let tee = Tee::new(TeeKind::ConfidentialVm, 1024, cost);
        let clock = tee.clock().clone();
        let recorder = Recorder::new();
        let mem = tee.memory().clone();

        let inner = match boundary {
            StorageBoundary::BlockInTee => {
                let cfg = RingConfig {
                    slots: 16,
                    slot_size: 16,
                    mode: DataMode::SharedArea,
                    mtu: (BLOCK_SIZE + 16) as u32,
                    area_size: 1 << 17,
                    ..RingConfig::default()
                };
                let req_ring = CioRing::new(
                    cfg.clone(),
                    GuestAddr(0),
                    GuestAddr(16 * cio_mem::PAGE_SIZE as u64),
                )?;
                let resp_ring = CioRing::new(
                    cfg,
                    GuestAddr(8 * cio_mem::PAGE_SIZE as u64),
                    GuestAddr(64 * cio_mem::PAGE_SIZE as u64),
                )?;
                mem.share_range(GuestAddr(0), req_ring.ring_bytes())?;
                mem.share_range(
                    GuestAddr(8 * cio_mem::PAGE_SIZE as u64),
                    resp_ring.ring_bytes(),
                )?;
                mem.share_range(
                    GuestAddr(16 * cio_mem::PAGE_SIZE as u64),
                    req_ring.area_bytes(),
                )?;
                mem.share_range(
                    GuestAddr(64 * cio_mem::PAGE_SIZE as u64),
                    resp_ring.area_bytes(),
                )?;
                let front = CioBlkFrontend::new(
                    Producer::new(req_ring.clone(), mem.guest())?,
                    Consumer::new(resp_ring.clone(), mem.guest())?,
                );
                let back = CioBlkBackend::new(
                    Consumer::new(req_ring, mem.host())?,
                    Producer::new(resp_ring, mem.host())?,
                    RamDisk::new(DISK_BLOCKS),
                );
                let observed = ObservedStore {
                    inner: RingBlockStore::new(front, back),
                    recorder: recorder.clone(),
                };
                let mut crypt = CryptStore::new(observed, [0x2A; 32])?;
                crypt.set_hooks(clock, tee.cost().clone(), tee.meter().clone());
                StorageInner::Tee(SimpleFs::format(crypt)?)
            }
            StorageBoundary::FileOnHost => {
                StorageInner::Host(SimpleFs::format(RamDisk::new(DISK_BLOCKS))?)
            }
        };

        Ok(StorageWorld {
            boundary,
            tee,
            recorder,
            inner,
        })
    }

    /// The boundary under test.
    pub fn boundary(&self) -> StorageBoundary {
        self.boundary
    }

    /// The TEE (clock/meter access).
    pub fn tee(&self) -> &Tee {
        &self.tee
    }

    /// The observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records a host-visible file call (file boundary only) and charges
    /// the world switch.
    fn file_call(tee: &Tee, recorder: &Recorder, kind: &'static str, extra: u32) {
        tee.exit_to_host();
        recorder.record(kind, bits::OP_TYPE + bits::SOCKET_ID + bits::TIMING + extra);
    }

    /// Creates a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(&mut self, name: &str) -> Result<FileId, CioError> {
        match &mut self.inner {
            StorageInner::Tee(fs) => Ok(fs.create(name)?),
            StorageInner::Host(fs) => {
                Self::file_call(
                    &self.tee,
                    &self.recorder,
                    "file.create",
                    8 * name.len() as u32,
                );
                Ok(fs.create(name)?)
            }
        }
    }

    /// Writes to a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<(), CioError> {
        match &mut self.inner {
            StorageInner::Tee(fs) => Ok(fs.write(id, offset, data)?),
            StorageInner::Host(fs) => {
                Self::file_call(&self.tee, &self.recorder, "file.write", 64 + bits::LENGTH);
                // Marshalling: the payload is copied across the boundary.
                self.tee.clock().advance(self.tee.cost().copy(data.len()));
                self.tee.meter().copies(1);
                self.tee.meter().bytes_copied(data.len() as u64);
                Ok(fs.write(id, offset, data)?)
            }
        }
    }

    /// Reads from a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors — including integrity violations on the block
    /// boundary when the host tampers.
    pub fn read(&mut self, id: FileId, offset: u64, len: usize) -> Result<Vec<u8>, CioError> {
        match &mut self.inner {
            StorageInner::Tee(fs) => Ok(fs.read(id, offset, len)?),
            StorageInner::Host(fs) => {
                Self::file_call(&self.tee, &self.recorder, "file.read", 64 + bits::LENGTH);
                let data = fs.read(id, offset, len)?;
                self.tee.clock().advance(self.tee.cost().copy(data.len()));
                self.tee.meter().copies(1);
                self.tee.meter().bytes_copied(data.len() as u64);
                Ok(data)
            }
        }
    }

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn delete(&mut self, name: &str) -> Result<(), CioError> {
        match &mut self.inner {
            StorageInner::Tee(fs) => Ok(fs.delete(name)?),
            StorageInner::Host(fs) => {
                Self::file_call(
                    &self.tee,
                    &self.recorder,
                    "file.delete",
                    8 * name.len() as u32,
                );
                Ok(fs.delete(name)?)
            }
        }
    }

    /// Host-side tampering with the stored bytes of (physical) block
    /// `lba`.
    ///
    /// # Errors
    ///
    /// Out-of-range.
    pub fn host_tamper(&mut self, lba: u64, offset: usize, mask: u8) -> Result<(), CioError> {
        match &mut self.inner {
            StorageInner::Tee(fs) => {
                fs.store_mut()
                    .inner_mut()
                    .inner
                    .backend_mut()
                    .disk_mut()
                    .tamper(lba, offset, mask)?;
            }
            StorageInner::Host(fs) => {
                fs.store_mut().tamper(lba, offset, mask)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(b: StorageBoundary) -> StorageWorld {
        StorageWorld::new(b, CostModel::default()).unwrap()
    }

    #[test]
    fn both_boundaries_serve_files() {
        for b in [StorageBoundary::BlockInTee, StorageBoundary::FileOnHost] {
            let mut w = world(b);
            let id = w.create("report.txt").unwrap();
            let data: Vec<u8> = (0..10_000u32).map(|i| (i % 250) as u8).collect();
            w.write(id, 0, &data).unwrap();
            assert_eq!(w.read(id, 0, data.len()).unwrap(), data, "{b}");
            w.delete("report.txt").unwrap();
        }
    }

    #[test]
    fn file_boundary_leaks_call_metadata() {
        let mut w = world(StorageBoundary::FileOnHost);
        let id = w.create("secret-ledger.db").unwrap();
        w.write(id, 0, &[1u8; 5000]).unwrap();
        let _ = w.read(id, 0, 5000).unwrap();
        let s = w.recorder().summary();
        assert!(s.by_kind.contains_key("file.create"));
        assert!(s.by_kind.contains_key("file.write"));
        assert!(s.by_kind.contains_key("file.read"));
        // And every call cost a world switch.
        assert!(w.tee().meter().snapshot().host_transitions >= 3);
    }

    #[test]
    fn block_boundary_hides_file_structure() {
        let mut w = world(StorageBoundary::BlockInTee);
        let id = w.create("secret-ledger.db").unwrap();
        w.write(id, 0, &[1u8; 5000]).unwrap();
        let _ = w.read(id, 0, 5000).unwrap();
        let s = w.recorder().summary();
        // Only block-level events, no file semantics.
        for kind in s.by_kind.keys() {
            assert!(kind.starts_with("blk."), "leaked event kind {kind}");
        }
        // No data-path world exits (polling block ring).
        assert_eq!(w.tee().meter().snapshot().host_transitions, 0);
    }

    #[test]
    fn block_boundary_detects_host_tamper() {
        let mut w = world(StorageBoundary::BlockInTee);
        let id = w.create("db").unwrap();
        w.write(id, 0, &[7u8; 20_000]).unwrap();
        // Tamper with several physical blocks; at least one holds file
        // ciphertext.
        for lba in 6..12 {
            w.host_tamper(lba, 13, 0x20).unwrap();
        }
        let r = w.read(id, 0, 20_000);
        assert!(
            matches!(r, Err(CioError::Block(BlockError::IntegrityViolation))),
            "got {r:?}"
        );
    }

    #[test]
    fn file_boundary_cannot_detect_host_tamper() {
        let mut w = world(StorageBoundary::FileOnHost);
        let id = w.create("db").unwrap();
        w.write(id, 0, &[7u8; 20_000]).unwrap();
        for lba in 6..12 {
            w.host_tamper(lba, 13, 0x20).unwrap();
        }
        // The read "succeeds" — with silently falsified data.
        let data = w.read(id, 0, 20_000).unwrap();
        assert!(
            data.iter().any(|&b| b != 7),
            "tampered data served as genuine"
        );
    }

    #[test]
    fn host_sees_plaintext_only_on_file_boundary() {
        // Block boundary: ciphertext on disk.
        let mut w = world(StorageBoundary::BlockInTee);
        let id = w.create("plain").unwrap();
        w.write(id, 0, b"TOPSECRET-MARKER-0123456789").unwrap();
        let mut found = false;
        if let StorageInner::Tee(fs) = &mut w.inner {
            let disk = fs.store_mut().inner_mut().inner.backend_mut().disk_mut();
            for lba in 0..32 {
                let block = disk.snapshot_block(lba).unwrap();
                if block.windows(9).any(|win| win == b"TOPSECRET") {
                    found = true;
                }
            }
        }
        assert!(!found, "plaintext leaked to host disk");

        // File boundary: plaintext on disk.
        let mut w = world(StorageBoundary::FileOnHost);
        let id = w.create("plain").unwrap();
        w.write(id, 0, b"TOPSECRET-MARKER-0123456789").unwrap();
        let mut found = false;
        if let StorageInner::Host(fs) = &mut w.inner {
            for lba in 0..32 {
                let block = fs.store_mut().snapshot_block(lba).unwrap();
                if block.windows(9).any(|win| win == b"TOPSECRET") {
                    found = true;
                }
            }
        }
        assert!(found, "expected plaintext on the host disk");
    }
}
