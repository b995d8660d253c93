//! §3.2's conclusions as regions of cost space (EXPERIMENTS E5–E9, E12,
//! E13, E15): one table, one row per conclusion.
//!
//! A row names a *scenario* — a function from one grid point (the
//! [`bench_opts`] world options with some cost axes moved) to the
//! [`Values`] it measures, built from the shared harness functions — the
//! row's "Reading:" sentence as a predicate over those values, and the
//! cost axes the conclusion is read along. Every reading is recorded as
//! holding at the default model: `exp_regions` runs each row over the full
//! grid of its axes, reports where it holds, and fails if it does not hold
//! at the default; the unit test below pins the headline cells there.

use crate::transport::{bench_ring_config, cio_oneway, cio_pair, frame_echo};
use crate::transport::{notify_bench, rx_delivery, TransportKind};
use crate::{bench_opts, echo_latency, fmt_cycles, stream_download};
use cio::policy::revoke_threshold;
use cio::storage::{StorageBoundary, StorageWorld};
use cio::world::BoundaryKind::{self, Dda, DualBoundary, L2CioRing, L2VirtioHardened, L5Host};
use cio::world::{World, WorldOptions, ECHO_PORT};
use cio_sim::Cycles;
use cio_tee::TeeKind;
use cio_vring::cioring::DataMode;

/// One axis of the cost grid: what it moves and the levels every row reads
/// it at, the default model's value among them.
#[derive(Clone, Copy)]
pub struct Axis {
    /// The `CostModel` field (or `WorldOptions::tee_kind`) the axis moves.
    pub name: &'static str,
    /// The grid's levels, ascending.
    pub levels: &'static [u64],
    set: fn(&mut WorldOptions, u64),
}

/// `vm_exit_roundtrip`, with `notify_host` (a doorbell is one exit).
pub const VM_EXIT: Axis = Axis {
    name: "vm_exit_roundtrip",
    levels: &[1_000, 3_500, 10_000],
    set: |o, v| (o.cost.vm_exit_roundtrip, o.cost.notify_host) = (Cycles(v), Cycles(v)),
};
/// `copy_bytes_per_cycle`.
pub const COPY: Axis = Axis {
    name: "copy_bytes_per_cycle",
    levels: &[1, 3, 16],
    set: |o, v| o.cost.copy_bytes_per_cycle = v,
};
/// `aead_bytes_per_cycle` (an integer constant: 0.5 is off the grid).
pub const AEAD: Axis = Axis {
    name: "aead_bytes_per_cycle",
    levels: &[1, 2, 4],
    set: |o, v| o.cost.aead_bytes_per_cycle = v,
};
/// `page_unshare`, with `page_share` (one RMP update either way).
pub const PAGE_OP: Axis = Axis {
    name: "page_unshare",
    levels: &[200, 600, 2_000],
    set: |o, v| (o.cost.page_unshare, o.cost.page_share) = (Cycles(v), Cycles(v)),
};
/// `tlb_shootdown`.
pub const TLB: Axis = Axis {
    name: "tlb_shootdown",
    levels: &[600, 1_200, 2_400],
    set: |o, v| o.cost.tlb_shootdown = Cycles(v),
};
/// `compartment_switch`.
pub const SWITCH: Axis = Axis {
    name: "compartment_switch",
    levels: &[20, 60, 600],
    set: |o, v| o.cost.compartment_switch = Cycles(v),
};
/// The TEE flavour a `World` runs in: 0 = confidential VM, 1 = enclave.
pub const TEE: Axis = Axis {
    name: "tee_kind",
    levels: &[0, 1],
    set: |o, v| o.tee_kind = [TeeKind::ConfidentialVm, TeeKind::Enclave][v as usize],
};

impl Axis {
    /// Index of the default model's level.
    pub fn default_level(&self) -> usize {
        let d = bench_opts();
        let is_default = |o: WorldOptions| o.cost == d.cost && o.tee_kind == d.tee_kind;
        let mut points = (0..self.levels.len()).map(|l| grid_point(&[*self], &[l]));
        points.position(is_default).expect("default on the grid")
    }
}

/// The grid point with `axes[i]` at its level `levels[i]` and every other
/// axis at the default model.
pub fn grid_point(axes: &[Axis], levels: &[usize]) -> WorldOptions {
    let mut opts = bench_opts();
    for (axis, &l) in axes.iter().zip(levels) {
        (axis.set)(&mut opts, axis.levels[l]);
    }
    opts
}

/// What a scenario measured: named cells in print order. A cell measured
/// at one size of a sweep is named `"<what> @<size>"`.
#[derive(Debug, Default, PartialEq)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    fn put(&mut self, name: impl Into<String>, value: impl Into<f64>) {
        self.0.push((name.into(), value.into()));
    }

    fn at(&self, what: &str, size: usize) -> f64 {
        self[&format!("{what} @{size}")]
    }
}

impl std::ops::Index<&str> for Values {
    type Output = f64;
    fn index(&self, name: &str) -> &f64 {
        let cell = self.0.iter().find(|(n, _)| n == name);
        &cell.unwrap_or_else(|| panic!("no cell {name:?}")).1
    }
}

/// A cell as the report prints it: whole numbers grouped like cycles,
/// anything else to two decimals.
pub fn fmt_value(v: f64) -> String {
    if v >= 0.0 && v.fract() == 0.0 {
        fmt_cycles(Cycles(v as u64))
    } else {
        format!("{v:.2}")
    }
}

/// One conclusion of one experiment.
pub struct Row {
    /// The EXPERIMENTS.md section (and table) the conclusion comes from.
    pub id: &'static str,
    /// The "Reading:" sentence [`Row::holds`] makes executable.
    pub reading: &'static str,
    /// The cost axes the conclusion is read along (at most 4, plus [`TEE`]).
    pub axes: &'static [Axis],
    /// Measures the experiment at one grid point.
    pub scenario: fn(&WorldOptions) -> Values,
    /// The reading, as a predicate over the scenario's values.
    pub holds: fn(&Values) -> bool,
}

const E5_SIZES: [usize; 4] = [64, 256, 1024, 1500];

fn hardening_tax(o: &WorldOptions) -> Values {
    use TransportKind::{CioRingCopy, CioRingZeroCopy, VirtioHardened, VirtioUnhardened};
    let mut v = Values::default();
    for size in E5_SIZES {
        for kind in [
            VirtioUnhardened,
            VirtioHardened,
            CioRingCopy,
            CioRingZeroCopy,
        ] {
            let r = frame_echo(kind, size, 256, o.cost.clone());
            let (cyc, m) = (r.cycles_per_frame(256) as f64, &r.meter);
            let cell = |what: &str| format!("{kind} {what} @{size}");
            let notifications = (m.notifications_sent + m.interrupts_received) as f64;
            v.put(cell("cyc/frame"), cyc);
            // Unhardened virtio runs first at every size.
            let ratio = cyc / v.at("virtio-unhardened cyc/frame", size);
            v.put(cell("Gbit/s"), r.gbps(o.cost.ghz));
            v.put(cell("vs unhardened"), ratio);
            v.put(cell("copies"), m.copies as f64);
            v.put(cell("validations"), m.validations as f64);
            v.put(cell("notifications"), notifications);
        }
    }
    v
}

const E6_SIZES: [usize; 5] = [16, 64, 256, 1024, 1500];

fn data_positioning(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    for size in E6_SIZES {
        for mode in [DataMode::Inline, DataMode::SharedArea] {
            let r = cio_oneway(mode, size, 512, o.cost.clone());
            let cell = |what: &str| format!("{mode:?} {what} @{size}");
            v.put(cell("cyc/transfer"), r.cycles_per_frame(512) as f64);
            v.put(cell("Gbit/s"), r.gbps(o.cost.ghz));
            v.put(cell("validations"), r.meter.validations as f64);
        }
    }
    v
}

const E7_KIB: [usize; 7] = [1, 4, 8, 16, 32, 64, 128];

fn revocation(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    let mut crossover = f64::INFINITY;
    for size in E7_KIB.map(|k| k << 10) {
        let copy = rx_delivery(false, size, 64, o.cost.clone());
        let revoke = rx_delivery(true, size, 64, o.cost.clone());
        let (c, r) = (copy.cycles_per_frame(64), revoke.cycles_per_frame(64));
        if r < c {
            crossover = crossover.min(size as f64);
        }
        let cell = |what: &str| format!("{what} @{size}");
        v.put(cell("copy cyc"), c as f64);
        v.put(cell("revoke cyc"), r as f64);
        v.put(cell("pages revoked"), revoke.meter.pages_revoked as f64);
        v.put(cell("bytes copied"), copy.meter.bytes_copied as f64);
    }
    v.put("measured crossover B", crossover);
    let threshold = match revoke_threshold(&o.cost) {
        usize::MAX => f64::INFINITY, // revocation never pays
        t => t as f64,
    };
    v.put("policy threshold B", threshold);
    v
}

fn notification(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    for (name, doorbell, burst, idle_polls) in [
        ("polling, busy bursts", false, 32, 0),
        ("doorbell, busy bursts", true, 32, 0),
        ("polling, sparse arrivals", false, 1, 2_000),
        ("doorbell, sparse arrivals", true, 1, 0),
    ] {
        let r = notify_bench(doorbell, burst, 8, idle_polls, o.cost.clone());
        v.put(format!("{name} cycles"), r.elapsed.get() as f64);
    }
    v
}

const E9_SIZES: [usize; 4] = [256, 1024, 4096, 16 << 10];

fn zerocopy_l5(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    for size in E9_SIZES {
        let mut rtt = [0.0; 2];
        for (i, arm) in ["zero-copy", "copied"].into_iter().enumerate() {
            // Only the app→stack copy differs: the guest TX ring's early
            // copy is the same in both arms.
            let mut opts = o.clone();
            opts.l5_app_copy = i == 1;
            let (t, run) = echo_latency(DualBoundary, opts, size, 16).expect("E9 echo");
            rtt[i] = t.get() as f64;
            let cell = |what: &str| format!("{arm} {what} @{size}");
            v.put(cell("RTT"), rtt[i]);
            v.put(cell("copies"), run.meter.copies as f64);
            v.put(cell("gate switches"), run.meter.compartment_switches as f64);
        }
        let saving = 100.0 * (rtt[1] - rtt[0]) / rtt[1];
        v.put(format!("saving % @{size}"), saving);
    }
    v
}

const E12_SIZES: [usize; 3] = [4 << 10, 16 << 10, 64 << 10];

fn storage(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    let boundaries = [StorageBoundary::BlockInTee, StorageBoundary::FileOnHost];
    let world = |b| StorageWorld::new(b, o.cost.clone()).expect("storage world");
    for (io, b) in E12_SIZES
        .into_iter()
        .flat_map(|io| boundaries.map(|b| (io, b)))
    {
        let (mut w, total) = (world(b), 256 << 10);
        let id = w.create("workload.dat").expect("create");
        let (t0, m0) = (w.tee().clock().now(), w.tee().meter().snapshot());
        for off in (0..total).step_by(io) {
            w.write(id, off as u64, &vec![0xAB; io]).expect("write");
        }
        for off in (0..total).step_by(io) {
            w.read(id, off as u64, io).expect("read");
        }
        let elapsed = w.tee().clock().since(t0);
        let m = w.tee().meter().snapshot().delta(&m0);
        let obs = w.recorder().summary();
        let typed = obs.by_kind.keys().filter(|k| !k.starts_with("blk."));
        let cell = |what: &str| format!("{b} {what} @{io}");
        v.put(cell("cycles"), elapsed.get() as f64);
        let gbps = cio_sim::gbps(2 * total as u64, elapsed, o.cost.ghz);
        v.put(cell("Gbit/s"), gbps);
        v.put(cell("exits"), m.host_transitions as f64);
        v.put(cell("AEAD bytes"), m.aead_bytes as f64);
        v.put(cell("host events"), obs.events as f64);
        v.put(cell("non-blk event kinds"), typed.count() as f64);
    }
    for b in boundaries {
        let mut w = world(b);
        let id = w.create("ledger").expect("create");
        w.write(id, 0, &[7; 20_000]).expect("write");
        for lba in 6..12 {
            w.host_tamper(lba, 13, 0x20).expect("tamper");
        }
        let read = w.read(id, 0, 20_000);
        let forged = read.as_ref().is_ok_and(|d| d.iter().any(|&x| x != 7));
        v.put(format!("{b} tamper detected"), u8::from(read.is_err()));
        v.put(format!("{b} forged data served"), u8::from(forged));
    }
    v
}

fn dda(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    for kind in [Dda, DualBoundary, L2VirtioHardened] {
        let stream = stream_download(kind, o.clone(), 1 << 20, 16 << 10).expect("E13 stream");
        let (rtt, run) = echo_latency(kind, o.clone(), 256, 32).expect("E13 echo");
        v.put(format!("{kind} stream Gbit/s"), stream.gbps);
        v.put(format!("{kind} RTT"), rtt.get() as f64);
        v.put(format!("{kind} obs bits/op"), run.obs_bits as f64 / 32.0);
        v.put(format!("{kind} AEAD bytes"), stream.meter.aead_bytes as f64);
    }
    for ops in [1u64, 10, 100, 1_000] {
        let mut w = World::new(Dda, o.clone()).expect("dda world");
        let setup = w.clock().now(); // the SPDM rounds are charged at build
        let c = w.connect(ECHO_PORT).expect("connect");
        w.establish(c, 20_000).expect("establish");
        for _ in 0..ops {
            w.send(c, &[0x42; 256]).expect("send");
            w.recv_exact(c, 256, 50_000).expect("echo");
        }
        let total = w.clock().now().get();
        v.put(format!("attestation cyc @{ops}"), setup.get() as f64);
        v.put(format!("total cyc @{ops}"), total as f64);
        v.put(format!("cyc/op incl. setup @{ops}"), (total / ops) as f64);
    }
    // The SPDM attestation at build passes; the device misbehaves after.
    let mut opts = o.clone();
    opts.dda_tamper = true;
    let mut w = World::new(Dda, opts).expect("the tampering device attests");
    let c = w.connect(ECHO_PORT).expect("connect");
    let flowed = u8::from(w.establish(c, 1_000).is_ok());
    v.put("traffic flowed from the compromised device", flowed);
    v
}

fn ablation(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    let mut free = o.cost.clone();
    free.validate_field = Cycles(0);
    let transfer = |c| cio_oneway(DataMode::SharedArea, 1500, 512, c).cycles_per_frame(512) as f64;
    let (with, without) = (transfer(o.cost.clone()), transfer(free));
    v.put("checks charged cyc/transfer", with);
    v.put("checks free cyc/transfer", without);
    v.put("checks % of the transfer", 100.0 * (with - without) / with);
    for batch in [1, 2, 4, 8, 16, 32] {
        let cyc = ring_run(o, 64, batch, batch, 256);
        v.put(format!("publish batch cyc/msg @{batch}"), cyc);
    }
    for slots in [8, 32, 128, 512] {
        let cyc = ring_run(o, slots, slots / 2, 1, 512);
        v.put(format!("ring slots cyc/msg @{slots}"), cyc);
    }
    v
}

/// Cycles per 1500 B message over `total` messages on a `slots`-slot
/// ring: the index is published every `publish_every` messages and the
/// consumer drains the ring after every `burst`.
fn ring_run(o: &WorldOptions, slots: u32, burst: u32, publish_every: u32, total: u32) -> f64 {
    let mut cfg = bench_ring_config(DataMode::SharedArea, 1600);
    (cfg.slots, cfg.area_size) = (slots, slots * 2048);
    let (mem, mut gp, mut hc, _hp, _gc) = cio_pair(cfg, o.cost.clone());
    let t0 = mem.clock().now();
    for i in 1..=total {
        gp.stage(&[0x44; 1500]).expect("stage");
        if i % publish_every == 0 {
            gp.publish().expect("publish");
        }
        if i % burst == 0 {
            while hc.consume().expect("consume").is_some() {}
        }
    }
    (mem.clock().since(t0).get() / u64::from(total)) as f64
}

const TLS_DESIGNS: [BoundaryKind; 3] = [DualBoundary, L2CioRing, L5Host];

fn tls_tax(o: &WorldOptions) -> Values {
    let mut v = Values::default();
    for (kind, size) in TLS_DESIGNS.into_iter().flat_map(|k| [(k, 256), (k, 4096)]) {
        let rtt = |app_tls| {
            let mut opts = o.clone();
            opts.app_tls = app_tls;
            echo_latency(kind, opts, size, 16).expect("cTLS echo")
        };
        let ((tls, run), (plain, _)) = (rtt(true), rtt(false));
        let (tls, plain) = (tls.get() as f64, plain.get() as f64);
        let cell = |what: &str| format!("{kind} {what} @{size}");
        v.put(cell("plaintext RTT"), plain);
        v.put(cell("cTLS RTT"), tls);
        v.put(cell("premium %"), 100.0 * (tls - plain) / plain);
        v.put(cell("AEAD bytes"), run.meter.aead_bytes as f64);
    }
    v
}

/// The table: one row per conclusion, in EXPERIMENTS.md order.
pub const ROWS: &[Row] = &[
    Row {
        id: "E5",
        reading: "the retrofit pays at least 2x unhardened virtio per frame; the cio ring costs \
                  less than the retrofit, and less again zero-copy — at every frame size",
        axes: &[VM_EXIT, COPY],
        scenario: hardening_tax,
        holds: |v| {
            let cyc = |kind: &str, s| v.at(&format!("{kind} cyc/frame"), s);
            E5_SIZES.iter().all(|&s| {
                cyc("virtio-hardened", s) >= 2.0 * cyc("virtio-unhardened", s)
                    && cyc("cio-ring (copy)", s) < cyc("virtio-hardened", s)
                    && cyc("cio-ring (zero-copy)", s) < cyc("cio-ring (copy)", s)
            })
        },
    },
    Row {
        id: "E6",
        reading: "inline data beats the shared area at every payload size, by a share of the \
                  transfer that shrinks as payloads grow",
        axes: &[COPY],
        scenario: data_positioning,
        holds: |v| {
            // Shared-area over inline cycles: above 1 at the largest size
            // and falling with size, so above 1 at every size.
            let ratio = |s| v.at("SharedArea cyc/transfer", s) / v.at("Inline cyc/transfer", s);
            ratio(1500) > 1.0 && E6_SIZES.windows(2).all(|w| ratio(w[1]) < ratio(w[0]))
        },
    },
    Row {
        id: "E7",
        reading: "copying wins a 1 KiB delivery and revocation wins from 64 KiB up",
        axes: &[PAGE_OP, TLB, COPY],
        scenario: revocation,
        holds: |v| {
            let revoke_wins =
                |kib: usize| v.at("revoke cyc", kib << 10) < v.at("copy cyc", kib << 10);
            !revoke_wins(1) && revoke_wins(64) && revoke_wins(128)
        },
    },
    Row {
        id: "E7b",
        reading: "the analytic policy threshold names the winner at every swept payload size",
        axes: &[PAGE_OP, TLB, COPY],
        scenario: revocation,
        holds: |v| {
            let revoke_wins = |s| v.at("revoke cyc", s) < v.at("copy cyc", s);
            let (sizes, t) = (E7_KIB.map(|k| k << 10), v["policy threshold B"]);
            sizes.iter().all(|&s| revoke_wins(s) == (s as f64 >= t))
        },
    },
    Row {
        id: "E8",
        reading: "polling beats a doorbell per burst while the consumer is kept busy; a doorbell \
                  beats idle polling when arrivals are sparse",
        axes: &[VM_EXIT],
        scenario: notification,
        holds: |v| {
            v["polling, busy bursts cycles"] < v["doorbell, busy bursts cycles"]
                && v["doorbell, sparse arrivals cycles"] < v["polling, sparse arrivals cycles"]
        },
    },
    Row {
        id: "E9",
        reading: "trusted-component-allocates saves RTT at every size, and more as messages grow",
        axes: &[COPY, SWITCH, TEE],
        scenario: zerocopy_l5,
        holds: |v| {
            let saving = |s| v.at("saving %", s);
            saving(256) > 0.0 && E9_SIZES.windows(2).all(|w| saving(w[1]) > saving(w[0]))
        },
    },
    Row {
        id: "E12",
        reading: "the block boundary takes no exits, shows the host only blk.* events and detects \
                  tampering; the file boundary is cheaper at every I/O size, but costs an exit \
                  and a typed event per call and serves the forged data",
        axes: &[AEAD, VM_EXIT, COPY],
        scenario: storage,
        holds: |v| {
            let detected = v["block-in-tee tamper detected"] == 1.0;
            let forged = v["file-on-host forged data served"] == 1.0;
            detected
                && forged
                && E12_SIZES.iter().all(|&s| {
                    let block = |what: &str| v.at(&format!("block-in-tee {what}"), s);
                    let file = |what: &str| v.at(&format!("file-on-host {what}"), s);
                    file("cycles") < block("cycles")
                        && file("host events") > file("exits")
                        && file("non-blk event kinds") > 0.0
                        && block("exits") == 0.0
                        && block("non-blk event kinds") == 0.0
                })
        },
    },
    Row {
        id: "E13",
        reading: "DDA matches or beats the dual boundary's RTT and stream throughput at under \
                  half its host-visible bits per op; SPDM setup amortizes within tens of ops \
                  (at 100, under 2x the 1000-op cost); a device compromised after attestation \
                  passes it, yet no corrupted frame reaches the application",
        axes: &[VM_EXIT, AEAD, COPY, TEE],
        scenario: dda,
        holds: |v| {
            let bits = |d: &str| v[&format!("{d} obs bits/op")];
            let per_op = |ops| v.at("cyc/op incl. setup", ops);
            v["dda RTT"] <= v["dual-boundary RTT"]
                && v["dda stream Gbit/s"] >= v["dual-boundary stream Gbit/s"]
                && bits("dda") < 0.5 * bits("dual-boundary").min(bits("virtio-hardened"))
                && per_op(100) < 2.0 * per_op(1_000)
                && v["traffic flowed from the compromised device"] == 0.0
        },
    },
    Row {
        id: "E15 checks",
        reading: "the mask + clamp discipline costs under 1% of a 1500 B transfer",
        axes: &[COPY],
        scenario: ablation,
        holds: |v| v["checks % of the transfer"] < 1.0,
    },
    Row {
        id: "E15 batching",
        reading: "staging a batch under one index publish saves cycles per message by batch 8, \
                  and ring size is flat within 1% from 8 to 512 slots at half-ring bursts",
        axes: &[COPY],
        scenario: ablation,
        holds: |v| {
            let cyc = [8, 32, 128, 512].map(|s| v.at("ring slots cyc/msg", s));
            let min = cyc.iter().copied().fold(f64::MAX, f64::min);
            let flat = cyc.iter().all(|&c| c <= 1.01 * min);
            flat && v.at("publish batch cyc/msg", 8) < v.at("publish batch cyc/msg", 1)
        },
    },
    Row {
        id: "E15 cTLS",
        reading: "the mandatory cTLS premium grows with payload on every design",
        axes: &[AEAD, VM_EXIT, COPY, TEE],
        scenario: tls_tax,
        holds: |v| {
            let premium = |d: &BoundaryKind, s| v.at(&format!("{d} premium %"), s);
            let grows = |d: &BoundaryKind| premium(d, 4096) > premium(d, 256);
            TLS_DESIGNS.iter().all(grows)
        },
    },
];

/// Readings that no longer hold at the default model, each with the
/// finding that flipped it. A flip is recorded here rather than by
/// editing its reading, and `exp_regions` and the pin test below fail on
/// any reading whose verdict differs from this list, either way.
pub const FLIPPED: &[(&str, &str)] = &[(
    "E13",
    "the host cuts and coalesces at the guest↔host frame limit, so a 16 KiB response \
     costs the dual boundary's ring 5 records, not 15, and the dual boundary streams \
     13.13 Gbit/s against DDA's 12.53 (was 12.24); DDA's guest drives the NIC itself, in \
     wire-size frames",
)];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every reading but the [`FLIPPED`] ones holds at the default model, and the headline cells
    /// read exactly as the per-experiment binaries this table replaced
    /// printed them (E9 excepted: its arms now differ only in the
    /// app→stack copy, and both pay the guest TX ring's early copy), until
    /// the TCP stack began to delay and piggyback its ACKs: the RTT, copy,
    /// stream and visibility cells of E9, E13 and E15 were re-recorded
    /// then (an echo crosses the ring as two frames, not six), and E9's
    /// 16 KiB cells again when the host began to cut and coalesce at the
    /// guest↔host frame limit (8.64 → 9.52 % saved, 512 → 256 gate
    /// switches: a 16 KiB message crosses as one segment), and E13's
    /// set-up-inclusive cells when neighbours became static (11 710 →
    /// 11 649 and 7 611 → 7 605 cycles per op at 100 and 1 000 ops: the
    /// first connect no longer waits for an ARP round trip). Each verdict
    /// is as [`FLIPPED`] records it. The verdicts are also the transport
    /// regressions once
    /// tested on their own: hardened virtio slower and copying more than
    /// unhardened, the cio ring faster than hardened virtio (E5), copy
    /// winning 1 KiB and revocation 64 KiB (E7), polling winning busy
    /// bursts and a doorbell sparse arrivals (E8).
    #[test]
    fn default_model_keeps_every_verdict_and_headline_cell() {
        let pins: &[(&str, &str, &str)] = &[
            ("E5", "virtio-unhardened cyc/frame @1500", "1_630"),
            ("E5", "virtio-hardened cyc/frame @1500", "6_084"),
            ("E5", "virtio-hardened vs unhardened @64", "6.19"),
            ("E5", "virtio-hardened copies @1500", "1_024"),
            ("E5", "virtio-unhardened copies @1500", "512"),
            ("E5", "virtio-hardened notifications @1500", "256"),
            ("E5", "cio-ring (copy) cyc/frame @1500", "2_526"),
            ("E5", "cio-ring (zero-copy) cyc/frame @1500", "1_986"),
            ("E5", "cio-ring (zero-copy) vs unhardened @64", "0.82"),
            ("E6", "Inline cyc/transfer @16", "221"),
            ("E6", "SharedArea cyc/transfer @16", "275"),
            ("E6", "Inline cyc/transfer @1500", "1_209"),
            ("E6", "SharedArea cyc/transfer @1500", "1_263"),
            ("E7", "copy cyc @32768", "22_109"),
            ("E7", "revoke cyc @32768", "21_946"),
            ("E7", "revoke cyc @16384", "11_685"),
            ("E7", "measured crossover B", "32_768"),
            ("E7", "policy threshold B", "32_512"),
            ("E8", "polling, busy bursts cycles", "111_560"),
            ("E8", "doorbell, sparse arrivals cycles", "31_680"),
            ("E9", "zero-copy RTT @256", "8_016"),
            ("E9", "copied RTT @256", "8_148"),
            ("E9", "zero-copy copies @256", "32"),
            ("E9", "copied copies @256", "48"),
            ("E9", "saving % @16384", "9.52"),
            ("E9", "zero-copy gate switches @16384", "256"),
            ("E12", "block-in-tee cycles @4096", "7_081_856"),
            ("E12", "file-on-host cycles @65536", "203_088"),
            ("E12", "file-on-host exits @4096", "128"),
            ("E12", "block-in-tee AEAD bytes @4096", "2_359_296"),
            ("E12", "block-in-tee tamper detected", "1"),
            ("E12", "file-on-host tamper detected", "0"),
            ("E12", "file-on-host forged data served", "1"),
            ("E13", "dda stream Gbit/s", "12.53"),
            ("E13", "dda RTT", "7_156"),
            ("E13", "dual-boundary RTT", "8_016"),
            ("E13", "virtio-hardened RTT", "9_814"),
            ("E13", "dda obs bits/op", "72"),
            ("E13", "attestation cyc @1", "200_000"),
            ("E13", "cyc/op incl. setup @100", "11_649"),
            ("E13", "cyc/op incl. setup @1000", "7_605"),
            ("E13", "traffic flowed from the compromised device", "0"),
            ("E15 checks", "checks charged cyc/transfer", "1_263"),
            ("E15 checks", "checks % of the transfer", "0.63"),
            ("E15 batching", "publish batch cyc/msg @1", "1_288"),
            ("E15 batching", "publish batch cyc/msg @8", "1_244"),
            ("E15 batching", "ring slots cyc/msg @8", "1_269"),
            ("E15 cTLS", "dual-boundary cTLS RTT @256", "8_016"),
            ("E15 cTLS", "l5-host plaintext RTT @4096", "16_872"),
            ("E15 cTLS", "cio-ring AEAD bytes @4096", "131_328"),
        ];
        let mut pinned = 0;
        for row in ROWS {
            let v = (row.scenario)(&bench_opts());
            let flipped = FLIPPED.iter().any(|&(id, _)| id == row.id);
            assert_eq!((row.holds)(&v), !flipped, "{}: {}", row.id, row.reading);
            for (id, cell, want) in pins.iter().filter(|(id, _, _)| *id == row.id) {
                assert_eq!(fmt_value(v[cell]), *want, "{id} {cell}");
                pinned += 1;
            }
        }
        assert_eq!(pinned, pins.len(), "every pin names a row");
    }

    #[test]
    fn every_axis_holds_the_default_model_and_rows_read_at_most_four() {
        for axis in [VM_EXIT, COPY, AEAD, PAGE_OP, TLB, SWITCH, TEE] {
            axis.default_level();
        }
        for row in ROWS {
            assert!(row.axes.iter().filter(|a| a.name != TEE.name).count() <= 4);
        }
    }
}
