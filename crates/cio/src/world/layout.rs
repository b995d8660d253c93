//! The bump allocator [`WorldBuilder::build`](super::WorldBuilder::build)
//! lays guest memory out with.

use crate::CioError;
use cio_mem::GuestAddr;

/// Simple bump allocator for laying out structures in guest memory.
#[derive(Debug)]
pub(super) struct GuestLayoutAlloc {
    next: u64,
    limit: u64,
}

impl GuestLayoutAlloc {
    /// Allocates from `[start, limit)`.
    pub(super) fn new(start: GuestAddr, limit: GuestAddr) -> Self {
        GuestLayoutAlloc {
            next: start.0,
            limit: limit.0,
        }
    }

    /// Carves out `bytes` bytes aligned to `align` (power of two).
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] when out of reserved space — a configuration
    /// error, caught at construction per the stateless principle.
    pub(super) fn alloc(&mut self, bytes: usize, align: u64) -> Result<GuestAddr, CioError> {
        let aligned = (self.next + align - 1) & !(align - 1);
        let end = aligned + bytes as u64;
        if end > self.limit {
            return Err(CioError::Fatal("guest layout region exhausted"));
        }
        self.next = end;
        Ok(GuestAddr(aligned))
    }

    /// Page-aligned allocation helper.
    ///
    /// # Errors
    ///
    /// As [`GuestLayoutAlloc::alloc`].
    pub(super) fn alloc_pages(&mut self, pages: usize) -> Result<GuestAddr, CioError> {
        self.alloc(pages * cio_mem::PAGE_SIZE, cio_mem::PAGE_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_alloc_aligns_and_bounds() {
        let mut a = GuestLayoutAlloc::new(GuestAddr(100), GuestAddr(10_000));
        let x = a.alloc(50, 64).unwrap();
        assert_eq!(x.0 % 64, 0);
        let y = a.alloc(50, 64).unwrap();
        assert!(y.0 >= x.0 + 50);
        let p = a.alloc_pages(1).unwrap();
        assert!(p.is_page_aligned());
        assert!(a.alloc(10_000, 1).is_err());
    }
}
