//! E16 — multi-queue scaling: aggregate throughput of the flow-steered
//! cio-ring dataplane at 1/2/4/8 queues across payload sizes.
//!
//! 32 concurrent RPC flows are RSS-steered across the queues; each queue
//! runs on its own virtual lane, so the world's clock advances by the
//! *busiest* queue per step instead of the sum — the simulated analogue of
//! one core per queue. The loop is closed and a request waits whole
//! `World::step` rounds, so elapsed time is rounds × cycles per round and
//! both are printed: more queues make a round cheaper, but the same
//! requests then need more of them. The 2-queue row is reported beside
//! the gated 4-queue one: it settles into a different lock-step orbit of
//! the closed loop (EXPERIMENTS E16), which no bar on the 4-queue row may
//! hide. Usage: `exp_multiqueue [--quick]`.

use cio::world::{BoundaryKind, WorldOptions, MAX_QUEUES};
use cio_bench::{bench_opts, fmt_cycles, multi_stream_download, print_table};
use cio_sim::Cycles;

const FLOWS: usize = 32;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_flow: u64 = if quick { 16 * 1024 } else { 128 * 1024 };
    let chunks: &[u32] = if quick {
        &[4 * 1024]
    } else {
        &[1024, 4 * 1024, 16 * 1024]
    };
    let queue_counts: &[usize] = &[1, 2, 4, MAX_QUEUES];

    let mut rows = Vec::new();
    let (mut speedup_2q_4k, mut speedup_4q_4k) = (0.0f64, 0.0f64);
    for &chunk in chunks {
        let mut base = 0.0f64;
        for &queues in queue_counts {
            let opts = WorldOptions {
                queues,
                ..bench_opts()
            };
            let (r, rounds) =
                multi_stream_download(BoundaryKind::L2CioRing, opts, FLOWS, per_flow, chunk)
                    .expect("E16 workload failed");
            if queues == 1 {
                base = r.gbps;
            }
            let speedup = r.gbps / base;
            if chunk == 4 * 1024 {
                match queues {
                    2 => speedup_2q_4k = speedup,
                    4 => speedup_4q_4k = speedup,
                    _ => {}
                }
            }
            rows.push(vec![
                queues.to_string(),
                chunk.to_string(),
                format!("{:.2}", r.gbps),
                fmt_cycles(r.elapsed),
                format!("{speedup:.2}x"),
                rounds.to_string(),
                fmt_cycles(Cycles(r.elapsed.get() / rounds)),
            ]);
        }
    }

    print_table(
        "E16 — multi-queue cio-ring scaling (32 flows, virtual time)",
        &[
            "queues",
            "payload B",
            "Gbit/s",
            "elapsed cyc",
            "speedup",
            "rounds",
            "cyc/round",
        ],
        &rows,
    );

    println!(
        "\nReading: each queue keeps the full §3.2 discipline — masked indices, \
         clamped lengths, per-queue pools — so scaling comes from flow steering \
         alone, with zero cross-queue negotiation. The symmetric RSS hash means \
         guest TX and host RX agree on placement without exchanging state."
    );
    println!(
        "\n4-queue speedup at 4 KiB: {speedup_4q_4k:.2}x (target: >= 2.5x); \
         2-queue: {speedup_2q_4k:.2}x (reported, not gated: EXPERIMENTS E16)"
    );
    assert!(
        speedup_4q_4k >= 2.5,
        "multi-queue scaling regressed: {speedup_4q_4k:.2}x < 2.5x"
    );
}
