//! The adversarial host: scripted interface attacks (experiment E10).
//!
//! The paper's threat model gives the host full control over shared state
//! and event timing. This module is the catalog of named attack classes
//! drawn from the interface-vulnerability literature the paper cites
//! (Iago, COIN, VIA, and the NDSS'23 interface taxonomy). The `cio`
//! crate's attack harness mounts each against each boundary configuration
//! through the host view of guest memory and scores the outcome.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_catalog_is_complete_and_printable() {
        assert_eq!(ALL_ATTACKS.len(), 9);
        for a in ALL_ATTACKS {
            assert!(!a.to_string().is_empty());
        }
    }
}
