//! E7 — copy vs. revocation on the receive path (§3.2): where is the
//! crossover, and how does it move with platform costs?

use cio::policy::revoke_threshold;
use cio_bench::transport::rx_delivery;
use cio_bench::{fmt_cycles, print_table};
use cio_sim::{CostModel, Cycles};

fn main() {
    let cost = CostModel::default();
    let frames = 64u32;
    let sizes = [
        1024usize,
        4 * 1024,
        8 * 1024,
        16 * 1024,
        32 * 1024,
        64 * 1024,
        128 * 1024,
    ];

    let mut rows = Vec::new();
    let mut crossover: Option<usize> = None;
    for &size in &sizes {
        let copy = rx_delivery(false, size, frames, cost.clone());
        let revoke = rx_delivery(true, size, frames, cost.clone());
        let c = copy.cycles_per_frame(u64::from(frames));
        let r = revoke.cycles_per_frame(u64::from(frames));
        if r < c && crossover.is_none() {
            crossover = Some(size);
        }
        rows.push(vec![
            (size / 1024).to_string() + " KiB",
            fmt_cycles(Cycles(c)),
            fmt_cycles(Cycles(r)),
            if r < c { "revoke" } else { "copy" }.to_string(),
            revoke.meter.pages_revoked.to_string(),
            copy.meter.bytes_copied.to_string(),
        ]);
    }

    print_table(
        "E7 — receive delivery: early copy vs. page revocation (cycles/delivery)",
        &[
            "payload",
            "copy cyc",
            "revoke cyc",
            "winner",
            "pages revoked",
            "bytes copied",
        ],
        &rows,
    );

    println!(
        "\nMeasured crossover: {}; analytic policy threshold (unshare+reshare vs copy): {} bytes.",
        crossover
            .map(|s| format!("{} KiB", s / 1024))
            .unwrap_or_else(|| "none in range".into()),
        revoke_threshold(&cost)
    );

    // Sensitivity: how the crossover moves with page-operation cost.
    let mut srows = Vec::new();
    for unshare in [200u64, 400, 600, 1_000, 2_000] {
        let mut c = cost.clone();
        c.page_unshare = Cycles(unshare);
        c.page_share = Cycles(unshare);
        let threshold = revoke_threshold(&c);
        srows.push(vec![
            unshare.to_string(),
            if threshold == usize::MAX {
                "never".into()
            } else {
                format!("{threshold} B")
            },
        ]);
    }
    print_table(
        "E7b — crossover sensitivity to per-page share/unshare cost",
        &["page op (cycles)", "revoke wins from"],
        &srows,
    );
    println!(
        "\nReading: revocation beats copying once payloads span enough pages to amortize \
         the fixed TLB shootdown, and the threshold tracks the platform's RMP-update \
         cost — the 'explore when this becomes faster than copies' question of §3.2, \
         answered as a policy constant derived from the cost model."
    );
}
