//! Figure 5 — the design-space scatter, measured.
//!
//! The paper sketches compatibility vs. performance with TCB and
//! observability annotations. This binary measures all four axes on the
//! reproduction:
//!
//! * **performance** — streaming download Gbit/s and small-RPC round-trip
//!   latency on identical workloads;
//! * **TCB** — lines of this repository's code inside each design's
//!   application-trusted domain, counted by file from the design's
//!   transport and crossing (`cio-study::tcb`);
//! * **observability** — host-visible metadata bits per round trip during
//!   the latency workload;
//! * **compatibility** — a documented qualitative rank (what the design
//!   demands from existing software; the one axis that cannot be
//!   measured from inside the simulator).

use cio::world::BoundaryKind;
use cio_bench::{bench_opts, echo_latency, print_table, stream_download, ALL_BOUNDARIES};
use cio_study::tcb;

fn compatibility(kind: BoundaryKind) -> (&'static str, &'static str) {
    match kind {
        BoundaryKind::L5Host => ("high", "POSIX sockets; lift-and-shift apps"),
        BoundaryKind::L2VirtioUnhardened => ("high", "stock virtio drivers, no changes"),
        BoundaryKind::L2VirtioHardened => ("high", "stock virtio + kernel hardening"),
        BoundaryKind::L2CioRing => ("medium", "new driver; app unchanged"),
        BoundaryKind::DualBoundary => ("medium", "new driver + in-TEE compartments"),
        BoundaryKind::Tunneled => ("low", "needs a trusted gateway deployment"),
        BoundaryKind::Dda => ("medium", "needs TDISP-capable devices"),
    }
}

fn main() {
    let crates_dir = tcb::default_crates_dir();
    let tcb_reports = tcb::measure_all(&crates_dir);
    let tcb_for = |k: BoundaryKind| {
        tcb_reports
            .iter()
            .find(|r| r.design == k.to_string())
            .cloned()
    };

    let mut rows = Vec::new();
    for kind in ALL_BOUNDARIES {
        let stream = stream_download(kind, bench_opts(), 1 << 20, 16 * 1024)
            .unwrap_or_else(|e| panic!("{kind}: stream failed: {e}"));
        let (rtt, lat_run) = echo_latency(kind, bench_opts(), 256, 32)
            .unwrap_or_else(|e| panic!("{kind}: latency failed: {e}"));
        let t = tcb_for(kind).expect("tcb spec per design");
        let (compat, note) = compatibility(kind);
        let bits_per_rt = lat_run.obs_bits as f64 / 32.0;
        rows.push(vec![
            kind.to_string(),
            format!("{:.2}", stream.gbps),
            format!("{:.1}", rtt.to_nanos(bench_opts().cost.ghz) / 1000.0),
            t.app_trusted_loc.to_string(),
            t.semi_trusted_loc.to_string(),
            format!("{bits_per_rt:.0}"),
            format!("{compat}: {note}"),
        ]);
    }

    print_table(
        "Figure 5 (measured) — boundary designs: performance, TCB, observability, compatibility",
        &[
            "design",
            "stream Gbit/s",
            "RPC rtt (µs)",
            "app-TCB LoC",
            "semi-trusted LoC",
            "obs bits/op",
            "compatibility",
        ],
        &rows,
    );

    let transport = |k: BoundaryKind| tcb_for(k).expect("tcb spec per design").transport_loc;
    let (cio, virtio) = (
        transport(BoundaryKind::L2CioRing),
        transport(BoundaryKind::L2VirtioHardened),
    );
    println!(
        "\nTransport TCB (ring/queue + guest driver, by file): cio-ring {cio} LoC vs \
         virtio-hardened {virtio} LoC = {:.2}x — the safe-by-construction ring is the larger \
         one here: it carries batching, in-place and copy-early positioning and event-idx \
         that this tree's virtqueue never implemented (revocation is outside it: no design's device \
         runs it).",
        cio as f64 / virtio as f64
    );

    println!(
        "\nReading: the dual boundary adds only the compartment mechanism to the L5 design's \
         small app-TCB while keeping L2-class observability and near-cio-ring performance — \
         the paper's \"this work\" corner. virtio-hardened pays the retrofit tax; \
         virtio-unhardened is fast and compatible but fails the E10 attack matrix; the tunnel \
         buys minimum observability with crypto+gateway costs."
    );
}
