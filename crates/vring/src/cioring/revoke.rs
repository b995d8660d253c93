//! Revocation receive (§3.2, E7): the guest un-shares a payload's pages
//! instead of copying it out. No world's device runs this arm — it is
//! the ring-level half of E7 and of the adversary matrix — so it sits in
//! its own file, outside every Figure 5 transport row.

use super::Consumer;
use crate::RingError;
use cio_mem::{GuestAddr, GuestView};
use cio_sim::Stage;

/// A payload received by revocation instead of copy: the pages holding it
/// were un-shared from the host and are now private.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevokedPayload {
    /// Private (revoked) guest address of the payload.
    pub addr: GuestAddr,
    /// Validated payload length.
    pub len: u32,
    /// Masked slot index (needed to re-share on release).
    masked: u32,
}

impl Consumer<GuestView> {
    /// Consumes one payload by *revoking* its pages instead of copying
    /// (guest-side receive only; requires `page_aligned_payloads`).
    ///
    /// The slot's whole stride is un-shared, making the payload private and
    /// immune to further host writes — the copy-elimination avenue of §3.2.
    /// The caller must hand the pages back with
    /// [`Consumer::release_revoked`] before the slot can be reused.
    ///
    /// # Errors
    ///
    /// [`RingError::Fatal`] if the ring was not configured for revocation;
    /// otherwise as [`Consumer::consume`].
    pub fn consume_revoking(&mut self) -> Result<Option<RevokedPayload>, RingError> {
        let _span = self.telemetry.span(self.tq, Stage::RingConsume);
        if !self.ring.cfg.page_aligned_payloads {
            return Err(RingError::Fatal("ring not configured for revocation"));
        }
        if self.available()? == 0 {
            self.note_empty()?;
            return Ok(None);
        }
        let masked = self.next & self.ring.slot_mask();
        let (addr, len) = self.read_slot_meta(masked)?;
        // Confine the payload to this slot's own stride before revoking:
        // a hostile offset pointing into another slot's stride would
        // otherwise leave the returned pointer in still-shared memory and
        // reopen the TOCTOU window revocation exists to close.
        let stride = u64::from(self.ring.cfg.stride());
        let stride_base = self.ring.payload_addr(masked);
        let in_stride = addr.0.wrapping_sub(stride_base.0) % stride;
        let addr = stride_base.add(in_stride);
        let len = len.min((stride - in_stride) as u32);
        // Revoke the whole stride of this slot (page-aligned by config).
        self.view
            .memory()
            .unshare_range(stride_base, self.ring.cfg.stride() as usize)?;
        self.view.memory().meter().bytes_zero_copy(u64::from(len));
        self.commit(1)?;
        Ok(Some(RevokedPayload { addr, len, masked }))
    }

    /// Returns revoked pages to the shared pool (re-shares the stride).
    ///
    /// # Errors
    ///
    /// Memory errors from the share transition.
    pub fn release_revoked(&mut self, p: RevokedPayload) -> Result<(), RingError> {
        let stride_base = self.ring.payload_addr(p.masked);
        self.view
            .memory()
            .share_range(stride_base, self.ring.cfg.stride() as usize)?;
        Ok(())
    }
}
