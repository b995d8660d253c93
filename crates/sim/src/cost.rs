//! The calibrated cycle-cost model.
//!
//! Every privileged or data-movement operation in the simulation charges
//! virtual time through a [`CostModel`]. The default constants are
//! calibrated from published measurements (see the per-field documentation);
//! experiments that sweep a cost (e.g. the copy-vs-revocation crossover in
//! EXPERIMENTS.md E7) construct modified models instead of patching global
//! state.

use crate::Cycles;

/// Cycle costs for the primitive operations of a confidential-computing
/// platform.
///
/// The model distinguishes the two TEE flavours the paper considers
/// (confidential VMs and enclaves) only through these constants: a
/// confidential VM pays `vm_exit_roundtrip` to reach the host, an enclave
/// pays `ocall_roundtrip`. All constants are public so harnesses can build
/// sensitivity sweeps.
///
/// # Calibration sources (documented, approximate)
///
/// * SEV-SNP/TDX VM exit + re-entry: 2–5k cycles reported across the
///   TDX/SNP performance literature; default 3 500.
/// * SGX EENTER/EEXIT OCALL round trip: ~8k cycles (SGX Explained).
/// * MPK (`wrpkru`) protection-domain switch: 20–60 cycles (ERIM, Hodor);
///   default 60 including the call gate.
/// * Page share/unshare on SNP (`pvalidate`/RMP update) or TDX
///   (`tdaccept`): ~1–2k cycles for a single 4 KiB page, amortizing to
///   ~600 cycles/page when RMP updates are batched or applied at 2 MiB
///   granularity (one `pvalidate` covers 512 pages), plus a TLB shootdown
///   IPI (~1–2k cycles) charged once per batch; defaults 600/page and
///   1 200 per shootdown.
/// * memcpy: hot-cache copies reach 16+ bytes/cycle, but boundary copies
///   are cold and memory-bandwidth bound (~9 GB/s single core at 3 GHz
///   ≈ 3 bytes/cycle); default 3 bytes/cycle plus a fixed setup cost.
/// * AEAD (ChaCha20-Poly1305 or AES-GCM with ISA support): ~1–2 bytes/cycle;
///   default 1 byte/cycle plus setup.
/// * MMIO/notification (doorbell) to the host: one exit; interrupt
///   injection into the guest: ~2k cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Core frequency in GHz used only for Gbit/s reporting.
    pub ghz: f64,
    /// Confidential-VM exit + re-entry round trip (host hypercall).
    pub vm_exit_roundtrip: Cycles,
    /// Enclave OCALL round trip (EEXIT + EENTER plus stack switch).
    pub ocall_roundtrip: Cycles,
    /// Intra-TEE compartment switch (MPK-style, one way).
    pub compartment_switch: Cycles,
    /// Making a private page host-visible (share) — RMP/accept update.
    pub page_share: Cycles,
    /// Revoking host visibility of a page (un-share / re-accept).
    pub page_unshare: Cycles,
    /// TLB shootdown broadcast accompanying an un-share.
    pub tlb_shootdown: Cycles,
    /// Fixed cost of starting any memory copy.
    pub copy_setup: Cycles,
    /// Copy throughput: bytes moved per cycle.
    pub copy_bytes_per_cycle: u64,
    /// Fixed cost of an AEAD operation (key schedule, tag finalization).
    pub aead_setup: Cycles,
    /// AEAD throughput: bytes processed per cycle.
    pub aead_bytes_per_cycle: u64,
    /// Per-record cost inside a *batched* AEAD pass on the modelled
    /// platform (nonce schedule + tag finalization for one record; the key
    /// schedule is shared). A term of the paper platform's multi-buffer
    /// AEAD, not of this tree's kernel — see [`CostModel::aead_batch`].
    pub aead_record: Cycles,
    /// AEAD throughput of the modelled platform's multi-buffer AEAD, which
    /// packs the wide keystream lanes across record boundaries (~2
    /// bytes/cycle against the serial per-record rate). This tree built
    /// that kernel, measured it slower than its serial one from 1 KiB up
    /// (level at 256 B), and removed it; the constant is unfitted
    /// (ROADMAP item 1).
    pub aead_batch_bytes_per_cycle: u64,
    /// Posting a doorbell/kick to the host (one exit, no reply payload).
    pub notify_host: Cycles,
    /// Host injecting an interrupt into the guest.
    pub interrupt_inject: Cycles,
    /// One poll iteration that finds nothing (cache-hit flag check).
    pub poll_idle: Cycles,
    /// Per-descriptor ring bookkeeping (read/write of a slot + barriers).
    pub ring_op: Cycles,
    /// Validation of one host-supplied field (bounds check + branch).
    pub validate_field: Cycles,
    /// Reading + window-validating the peer's published event index before
    /// a kick decision (one cache-line fetch, two wrapping compares).
    pub event_idx_check: Cycles,
    /// Publishing the consumer's own event index when it goes idle (one
    /// store + release barrier on the consumer's header line).
    pub event_idx_arm: Cycles,
    /// One SPDM attestation message round (DDA path, §3.4).
    pub spdm_round: Cycles,
    /// Per-byte IDE (PCIe link encryption) cost, bytes per cycle.
    pub ide_bytes_per_cycle: u64,
    /// One X25519 scalar multiplication (key generation or shared-secret
    /// derivation). ~40 µs at 3 GHz for a portable constant-time ladder;
    /// the dominant cost of connection churn, which is why the session
    /// plane batches server-side handshake responses.
    pub x25519_mult: Cycles,
    /// One flow-table lookup on the session hot path (hash + shard index
    /// + generation check — a dependent load chain, no probing).
    pub flow_lookup: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ghz: 3.0,
            vm_exit_roundtrip: Cycles(3_500),
            ocall_roundtrip: Cycles(8_000),
            compartment_switch: Cycles(60),
            page_share: Cycles(600),
            page_unshare: Cycles(600),
            tlb_shootdown: Cycles(1_200),
            copy_setup: Cycles(40),
            copy_bytes_per_cycle: 3,
            aead_setup: Cycles(120),
            aead_bytes_per_cycle: 1,
            aead_record: Cycles(40),
            aead_batch_bytes_per_cycle: 2,
            notify_host: Cycles(3_500),
            interrupt_inject: Cycles(2_000),
            poll_idle: Cycles(20),
            ring_op: Cycles(25),
            validate_field: Cycles(4),
            event_idx_check: Cycles(10),
            event_idx_arm: Cycles(30),
            spdm_round: Cycles(50_000),
            ide_bytes_per_cycle: 4,
            x25519_mult: Cycles(120_000),
            flow_lookup: Cycles(12),
        }
    }
}

impl CostModel {
    /// Cost of copying `bytes` bytes.
    #[inline]
    pub fn copy(&self, bytes: usize) -> Cycles {
        let per_byte = (bytes as u64).div_ceil(self.copy_bytes_per_cycle.max(1));
        self.copy_setup + Cycles(per_byte)
    }

    /// Cost of one AEAD pass (seal or open) over `bytes` bytes.
    #[inline]
    pub fn aead(&self, bytes: usize) -> Cycles {
        let per_byte = (bytes as u64).div_ceil(self.aead_bytes_per_cycle.max(1));
        self.aead_setup + Cycles(per_byte)
    }

    /// Cost of the AEAD work of a run of `records` records totalling
    /// `bytes` bytes, on a platform with a multi-buffer AEAD.
    ///
    /// The key schedule (`aead_setup`) is charged once per run; each
    /// record pays only its nonce schedule and tag finalization
    /// (`aead_record`); and the bulk bytes run at the packed-lane rate
    /// (`aead_batch_bytes_per_cycle`) — the crypto analogue of the
    /// once-per-batch TLB shootdown in [`CostModel::unshare`]. A run of
    /// one degenerates to [`CostModel::aead`] so the serial path's charges
    /// are unchanged.
    ///
    /// This models the paper platform, not this tree: the lane-packed
    /// kernel was built here, measured against a loop over the
    /// single-record pass (1.2–1.7× faster at 64 B from a run of four,
    /// level at 256 B from a run of eight, 0.78–0.93× at 1–4 KiB;
    /// EXPERIMENTS.md E19), and removed, so the code now runs `records`
    /// serial passes under this charge. Where the run term and the wall
    /// clock disagree the term is the thing under test (ROADMAP item 1,
    /// "Fit the constants").
    #[inline]
    pub fn aead_batch(&self, records: usize, bytes: usize) -> Cycles {
        if records <= 1 {
            return self.aead(bytes);
        }
        let per_byte = (bytes as u64).div_ceil(self.aead_batch_bytes_per_cycle.max(1));
        self.aead_setup + self.aead_record * records as u64 + Cycles(per_byte)
    }

    /// Cost of un-sharing `pages` pages, including one TLB shootdown.
    ///
    /// The shootdown is charged once per batch: revoking a batch of pages
    /// needs a single invalidation broadcast, which is exactly why the
    /// revocation path can beat copies for large payloads (E7).
    #[inline]
    pub fn unshare(&self, pages: usize) -> Cycles {
        self.page_unshare * pages as u64 + self.tlb_shootdown
    }

    /// Cost of sharing `pages` pages with the host.
    #[inline]
    pub fn share(&self, pages: usize) -> Cycles {
        self.page_share * pages as u64
    }

    /// Cost of IDE link encryption for `bytes` bytes (DDA path).
    #[inline]
    pub fn ide(&self, bytes: usize) -> Cycles {
        Cycles((bytes as u64).div_ceil(self.ide_bytes_per_cycle.max(1)))
    }

    /// A model with free transitions, useful to isolate data-path costs in
    /// unit tests.
    pub fn free_transitions() -> Self {
        CostModel {
            vm_exit_roundtrip: Cycles::ZERO,
            ocall_roundtrip: Cycles::ZERO,
            compartment_switch: Cycles::ZERO,
            notify_host: Cycles::ZERO,
            interrupt_inject: Cycles::ZERO,
            ..CostModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_calibrated() {
        let m = CostModel::default();
        // Structural sanity: an exit dwarfs a compartment switch; this
        // ordering is the entire premise of the dual-boundary design.
        assert!(m.vm_exit_roundtrip.get() > 10 * m.compartment_switch.get());
        assert!(m.ocall_roundtrip.get() > m.vm_exit_roundtrip.get());
        // Revoking a single page costs more than copying a small packet...
        assert!(m.unshare(1) > m.copy(256));
        // ...but less than copying many pages worth of data.
        assert!(m.unshare(16) < m.copy(16 * 4096));
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::default();
        let small = m.copy(64);
        let large = m.copy(64 * 1024);
        assert!(large.get() > small.get());
        // Setup dominates tiny copies.
        assert_eq!(m.copy(0), m.copy_setup);
        assert_eq!(m.copy(3).get(), m.copy_setup.get() + 1);
    }

    #[test]
    fn aead_slower_than_copy_per_byte() {
        let m = CostModel::default();
        assert!(m.aead(4096).get() > m.copy(4096).get());
    }

    #[test]
    fn unshare_batches_shootdown() {
        let m = CostModel::default();
        let one = m.unshare(1);
        let four = m.unshare(4);
        // Four pages cost less than four single-page revocations because the
        // shootdown is charged once per batch.
        assert!(four.get() < 4 * one.get());
    }

    #[test]
    fn aead_batch_amortizes_setup() {
        let m = CostModel::default();
        // A batch of one is exactly the serial cost (the serial path's
        // charges must be unchanged by the batch model's existence).
        assert_eq!(m.aead_batch(1, 1024), m.aead(1024));
        assert_eq!(m.aead_batch(0, 1024), m.aead(1024));
        // Eight 1 KiB records batched cost less than eight serial passes.
        let serial = m.aead(1024).get() * 8;
        let batched = m.aead_batch(8, 8 * 1024).get();
        assert!(batched < serial, "batched {batched} vs serial {serial}");
        // But each record still pays its own nonce/tag work on top of the
        // shared setup and the packed-lane byte rate.
        let floor = m.aead_setup.get() + 8 * 1024 / m.aead_batch_bytes_per_cycle;
        assert_eq!(batched, floor + 8 * m.aead_record.get());
    }

    #[test]
    fn free_transitions_zeroes_only_transitions() {
        let m = CostModel::free_transitions();
        assert_eq!(m.vm_exit_roundtrip, Cycles::ZERO);
        assert_eq!(m.compartment_switch, Cycles::ZERO);
        assert!(m.copy(128).get() > 0);
    }

    #[test]
    fn div_ceil_rounding() {
        let m = CostModel::default();
        // 5 bytes at 3 bytes/cycle must charge 2 cycles, not 1.
        assert_eq!(m.copy(5).get(), m.copy_setup.get() + 2);
    }
}
