//! The adversarial host: scripted interface attacks (experiment E10).
//!
//! The paper's threat model gives the host full control over shared state
//! and event timing. This module provides the attack *primitives* — raw
//! shared-memory manipulation plus forged device-protocol actions — and a
//! catalog of named attack classes drawn from the interface-vulnerability
//! literature the paper cites (Iago, COIN, VIA, and the NDSS'23 interface
//! taxonomy). The `cio` crate's attack harness composes these against each
//! boundary configuration and scores the outcome.

use cio_mem::{GuestAddr, HostView, MemError, MemView};
use cio_sim::SimRng;

/// The attack classes exercised by E10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Completion id outside the ring (COIN-style OOB index).
    CompletionIdOob,
    /// Completion length larger than the posted buffer.
    CompletionLenOverrun,
    /// Replayed/duplicate completion (temporal violation).
    SpuriousCompletion,
    /// Corrupt descriptor `next` chaining in shared memory.
    DescChainCorruption,
    /// Mutate device config (MTU) after negotiation: double fetch.
    ConfigDoubleFetch,
    /// Flip payload bytes between guest validation and use (TOCTOU).
    PayloadDoubleFetch,
    /// Producer index far beyond the ring size.
    IndexJump,
    /// Forged offset/length fields in ring slots.
    SlotForgery,
    /// Interrupt/notification storm (re-entrancy pressure).
    NotificationStorm,
}

/// All attack kinds, for harness iteration.
pub const ALL_ATTACKS: [AttackKind; 9] = [
    AttackKind::CompletionIdOob,
    AttackKind::CompletionLenOverrun,
    AttackKind::SpuriousCompletion,
    AttackKind::DescChainCorruption,
    AttackKind::ConfigDoubleFetch,
    AttackKind::PayloadDoubleFetch,
    AttackKind::IndexJump,
    AttackKind::SlotForgery,
    AttackKind::NotificationStorm,
];

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttackKind::CompletionIdOob => "completion-id out of bounds",
            AttackKind::CompletionLenOverrun => "completion-length overrun",
            AttackKind::SpuriousCompletion => "spurious completion replay",
            AttackKind::DescChainCorruption => "descriptor-chain corruption",
            AttackKind::ConfigDoubleFetch => "config double fetch",
            AttackKind::PayloadDoubleFetch => "payload double fetch",
            AttackKind::IndexJump => "ring-index jump",
            AttackKind::SlotForgery => "slot offset/length forgery",
            AttackKind::NotificationStorm => "notification storm",
        };
        f.write_str(s)
    }
}

/// Raw shared-memory attack primitives.
pub struct Adversary {
    host: HostView,
    rng: SimRng,
}

impl Adversary {
    /// Creates an adversary over the host view of guest memory.
    pub fn new(host: HostView, seed: u64) -> Self {
        Adversary {
            host,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The underlying host view.
    pub fn view(&self) -> &HostView {
        &self.host
    }

    /// Flips one bit in each of `len` bytes at `addr` (if shared).
    ///
    /// # Errors
    ///
    /// [`MemError::Protected`] when the guest revoked/never shared the
    /// page — that outcome *is* a result for the harness.
    pub fn flip_bytes(&mut self, addr: GuestAddr, len: usize) -> Result<(), MemError> {
        let mut buf = vec![0u8; len];
        self.host.read(addr, &mut buf)?;
        for b in &mut buf {
            *b ^= 1 << (self.rng.next_below(8) as u8);
        }
        self.host.write(addr, &buf)
    }

    /// Overwrites `len` bytes at `addr` with deterministic garbage.
    ///
    /// # Errors
    ///
    /// As [`Adversary::flip_bytes`].
    pub fn scribble(&mut self, addr: GuestAddr, len: usize) -> Result<(), MemError> {
        let mut buf = vec![0u8; len];
        self.rng.fill_bytes(&mut buf);
        self.host.write(addr, &buf)
    }

    /// Writes a hostile little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Adversary::flip_bytes`].
    pub fn write_u32(&self, addr: GuestAddr, v: u32) -> Result<(), MemError> {
        self.host.write_u32(addr, v)
    }

    /// Writes a hostile little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`Adversary::flip_bytes`].
    pub fn write_u16(&self, addr: GuestAddr, v: u16) -> Result<(), MemError> {
        self.host.write_u16(addr, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::{GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};

    #[test]
    fn attack_catalog_is_complete_and_printable() {
        assert_eq!(ALL_ATTACKS.len(), 9);
        for a in ALL_ATTACKS {
            assert!(!a.to_string().is_empty());
        }
    }

    #[test]
    fn primitives_respect_page_protection() {
        let mem = GuestMemory::new(4, Clock::new(), CostModel::default(), Meter::new());
        mem.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
        let mut adv = Adversary::new(mem.host(), 1);

        // Shared page: attacks land.
        mem.guest().write(GuestAddr(0), &[0u8; 16]).unwrap();
        adv.flip_bytes(GuestAddr(0), 16).unwrap();
        let mut buf = [0u8; 16];
        mem.guest().read(GuestAddr(0), &mut buf).unwrap();
        assert!(buf.iter().any(|&b| b != 0));

        // Private page: attacks fault, like real RMP violations.
        let private = GuestAddr(PAGE_SIZE as u64);
        assert_eq!(adv.scribble(private, 16), Err(MemError::Protected));
        assert_eq!(adv.write_u32(private, 7), Err(MemError::Protected));
    }

    #[test]
    fn scribble_is_deterministic_per_seed() {
        let mk = || {
            let mem = GuestMemory::new(2, Clock::new(), CostModel::default(), Meter::new());
            mem.share_range(GuestAddr(0), PAGE_SIZE).unwrap();
            let mut adv = Adversary::new(mem.host(), 99);
            adv.scribble(GuestAddr(0), 32).unwrap();
            let mut buf = [0u8; 32];
            mem.guest().read(GuestAddr(0), &mut buf).unwrap();
            buf
        };
        assert_eq!(mk(), mk());
    }
}
