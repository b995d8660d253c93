//! Guest-physical memory model for the confidential I/O simulation.
//!
//! This crate is the substitute for the TEE hardware's memory protection
//! (SEV-SNP RMP / TDX Secure-EPT). It gives the rest of the stack
//! *executable* semantics for the properties the paper reasons about:
//!
//! * Pages are [`PageState::Private`] or [`PageState::Shared`]. The
//!   [`HostView`] can only touch shared pages; the [`GuestView`] can touch
//!   everything. A host access to a private page fails the way an RMP
//!   violation would.
//! * Sharing and un-sharing (revocation) are explicit, metered, and
//!   charged to the cost model — the primitive behind the paper's
//!   "explore revocation" direction (§3.2).
//! * [`bounce`] implements the SWIOTLB bounce-buffer discipline Linux
//!   applies to paravirtual drivers in CVMs: *every* DMA buffer is copied
//!   through a shared pool, "even in cases where double fetch is
//!   impossible" (§2.5).
//! * [`shalloc`] implements a host-distrust shared allocator in the spirit
//!   of snmalloc's security mode (referenced by the paper for safe buffer
//!   freeing): allocation metadata lives in guest-private memory where the
//!   host cannot forge it.
//!
//! Because a real host would observe shared memory *concurrently*, the
//! [`HostView`] is deliberately able to mutate shared pages at any point
//! between two guest reads — which is exactly the double-fetch window the
//! adversary harness (`cio-host`) exploits against the unhardened virtio
//! baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounce;
pub mod memory;
pub mod shalloc;

pub use bounce::{BouncePool, BounceSlot};
pub use memory::{CopyPolicy, GuestMemory, GuestView, HostView, MemView, PageState, STRIPE_BYTES};
pub use shalloc::SharedAlloc;

/// Size of a guest page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A guest-physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GuestAddr(pub u64);

impl GuestAddr {
    /// Byte offset within the containing page.
    #[inline]
    pub fn page_offset(self) -> usize {
        (self.0 as usize) % PAGE_SIZE
    }

    /// Index of the containing page.
    #[inline]
    pub fn page_index(self) -> usize {
        (self.0 as usize) / PAGE_SIZE
    }

    /// Address advanced by `n` bytes (checked in the memory accessors).
    // The name deliberately reads like pointer arithmetic at call sites;
    // `GuestAddr` does not implement `std::ops::Add`, so no confusion can
    // compile.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, n: u64) -> GuestAddr {
        GuestAddr(self.0.wrapping_add(n))
    }

    /// Whether this address is page-aligned.
    #[inline]
    pub fn is_page_aligned(self) -> bool {
        self.page_offset() == 0
    }
}

impl std::fmt::Display for GuestAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpa:{:#x}", self.0)
    }
}

/// Errors raised by the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access past the end of guest memory.
    OutOfBounds,
    /// Host access to a private page (RMP/SEPT violation analogue).
    Protected,
    /// An operation required page alignment and did not get it.
    Misaligned,
    /// A shared-pool allocation could not be satisfied.
    PoolExhausted,
    /// Freeing a region the allocator does not own, or double-freeing.
    BadFree,
    /// A state transition was requested on a page already in that state.
    BadTransition,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds => write!(f, "guest-physical access out of bounds"),
            MemError::Protected => write!(f, "host access to a private page"),
            MemError::Misaligned => write!(f, "operation requires page alignment"),
            MemError::PoolExhausted => write!(f, "shared pool exhausted"),
            MemError::BadFree => write!(f, "invalid or double free"),
            MemError::BadTransition => write!(f, "page already in requested state"),
        }
    }
}

impl std::error::Error for MemError {}

/// Number of pages needed to hold `bytes` bytes.
#[inline]
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_helpers() {
        let a = GuestAddr(0x1234);
        assert_eq!(a.page_index(), 1);
        assert_eq!(a.page_offset(), 0x234);
        assert!(!a.is_page_aligned());
        assert!(GuestAddr(0x2000).is_page_aligned());
        assert_eq!(a.add(0x10), GuestAddr(0x1244));
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn errors_display() {
        assert!(MemError::Protected.to_string().contains("private"));
    }
}
