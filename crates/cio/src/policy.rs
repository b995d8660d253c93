//! The copy policy: "copies are part of the protocol — performed early,
//! but only when necessary, and avoided when possible" (§3.2).
//!
//! The one question the harness sweeps in E7: when is a receive-side
//! copy cheaper than revoking the pages?

use cio_mem::pages_for;
use cio_sim::CostModel;

/// The smallest payload (bytes) for which the *full* revocation cycle —
/// un-share plus the eventual re-share that returns the pages to the
/// pool — beats the copy under `cost`; `usize::MAX` when copying always
/// wins (revocation never pays).
pub fn revoke_threshold(cost: &CostModel) -> usize {
    (1..=(4 * 1024 * 1024) / 256)
        .map(|step| step * 256)
        .find(|&bytes| {
            let pages = pages_for(bytes);
            cost.unshare(pages).saturating_add(cost.share(pages)) <= cost.copy(bytes)
        })
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_has_a_crossover() {
        let t = revoke_threshold(&CostModel::default());
        assert!(t > cio_mem::PAGE_SIZE, "{t}");
        assert!(t < 1024 * 1024, "{t}");
    }

    #[test]
    fn expensive_unshare_never_revokes() {
        let cost = CostModel {
            page_unshare: cio_sim::Cycles(1_000_000),
            tlb_shootdown: cio_sim::Cycles(1_000_000),
            ..CostModel::default()
        };
        assert_eq!(revoke_threshold(&cost), usize::MAX);
    }

    #[test]
    fn cheap_unshare_revokes_sooner() {
        let cheap = CostModel {
            page_unshare: cio_sim::Cycles(100),
            tlb_shootdown: cio_sim::Cycles(100),
            ..CostModel::default()
        };
        assert!(revoke_threshold(&cheap) < revoke_threshold(&CostModel::default()));
    }
}
