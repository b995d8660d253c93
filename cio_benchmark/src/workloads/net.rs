//! `net_rr_64`, `net_bulk_16k`, `net_bulk_16k_par`: echo traffic through
//! the full dual-boundary world.
//!
//! The benchmark steps the world itself (instead of calling
//! `recv_exact`), which is how `world.steps_per_op` is counted and how
//! `send` / `step` / `recv_into` get their own spans.

use super::gen::{NetGen, Pool};
use super::{fatal, repeated_setup, stage_shares, Extra, Pass, Plan, Window, Workload};
use crate::spans::{Site, SpanLog};
use cio::world::{
    BatchPolicy, BoundaryKind, NotifyMode, NotifyPolicy, SessionId, SessionScratch, World,
    WorldOptions, ECHO_PORT,
};
use cio::{CioError, Transient};
use cio_host::fabric::LinkParams;
use cio_mem::CopyPolicy;
use cio_sim::Cycles;

/// Steps one op may take before it counts as timed out.
const MAX_STEPS_PER_OP: u64 = 200_000;
const ESTABLISH_STEPS: usize = 50_000;

/// Traffic shape of one network workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub queues: usize,
    pub flows: usize,
    pub payload: usize,
    pub parallel: usize,
    pub warmups: u64,
}

pub fn shape(workload: Workload) -> Shape {
    let bulk = |parallel| Shape {
        queues: 4,
        flows: 8,
        payload: 16 * 1024,
        parallel,
        warmups: 4,
    };
    match workload {
        Workload::NetRr64 => Shape {
            queues: 1,
            flows: 1,
            payload: 64,
            parallel: 0,
            warmups: 64,
        },
        Workload::NetBulk16k => bulk(0),
        Workload::NetBulk16kPar => bulk(2),
        other => unreachable!("{} is not a network workload", other.name()),
    }
}

/// The pinned reference profile of the network workloads: the paper's
/// full design on a same-rack loss-free link, doorbells with the
/// adaptive poll-vs-notify gate, adaptive batching up to 8 records,
/// in-place data positioning, application cTLS on, default rekey.
pub fn reference_options(shape: &Shape, traced: bool) -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(3_000),
            loss: 0.0,
        },
        notify: NotifyMode::Doorbell,
        notify_policy: NotifyPolicy::Adaptive,
        batch: BatchPolicy::Adaptive {
            max: 8,
            latency_cap: Cycles(50_000),
        },
        copy_policy: CopyPolicy::InPlace,
        app_tls: true,
        queues: shape.queues,
        parallel: shape.parallel,
        // The traced pass arms the program's existing telemetry and
        // flight recorder; neither advances the virtual clock.
        telemetry: traced,
        observe: traced,
        ..WorldOptions::default()
    }
}

pub const REFERENCE_BOUNDARY: BoundaryKind = BoundaryKind::DualBoundary;

struct Net {
    world: World,
    conns: Vec<SessionId>,
    shape: Shape,
    pool: Pool,
    gen: NetGen,
    rx: SessionScratch,
    /// Echo bytes accumulated per flow for the op in flight.
    acc: Vec<Vec<u8>>,
    offs: Vec<u32>,
    steps: u64,
}

impl Net {
    fn build(shape: Shape, seed: u64, traced: bool) -> Result<Net, String> {
        let mut world = World::builder(REFERENCE_BOUNDARY)
            .options(reference_options(&shape, traced))
            .build()
            .map_err(|e| fatal("world build", e))?;
        let mut conns = Vec::with_capacity(shape.flows);
        for _ in 0..shape.flows {
            conns.push(world.connect(ECHO_PORT).map_err(|e| fatal("connect", e))?);
        }
        for &c in &conns {
            world
                .establish(c, ESTABLISH_STEPS)
                .map_err(|e| fatal("attested handshake", e))?;
        }
        let mut net = Net {
            world,
            conns,
            shape,
            pool: Pool::new(seed),
            gen: NetGen::new(seed),
            rx: SessionScratch::with_capacity(2 * shape.payload),
            acc: (0..shape.flows)
                .map(|_| Vec::with_capacity(2 * shape.payload))
                .collect(),
            offs: vec![0; shape.flows],
            steps: 0,
        };
        let mut quiet = SpanLog::disabled();
        for _ in 0..shape.warmups {
            if !net.op(&mut quiet)? {
                return Err("warm-up echo returned wrong bytes".into());
            }
        }
        net.steps = 0;
        Ok(net)
    }

    fn step(&mut self, spans: &mut SpanLog) -> Result<(), String> {
        let s = spans.enter(Site::WorldStep);
        let r = self.world.step();
        spans.exit(s);
        self.steps += 1;
        r.map_err(|e| fatal("step", e))
    }

    /// One op: send a fresh payload window on every flow, then step the
    /// world until every echo is back. Returns whether every echo had
    /// the right length and bytes.
    fn op(&mut self, spans: &mut SpanLog) -> Result<bool, String> {
        let len = self.shape.payload;
        let start_steps = self.steps;
        for i in 0..self.conns.len() {
            self.offs[i] = self.gen.next_off(&self.pool, len);
            loop {
                let s = spans.enter(Site::WorldSend);
                let r = self
                    .world
                    .send(self.conns[i], self.pool.window(self.offs[i], len));
                spans.exit(s);
                match r {
                    Ok(_) => break,
                    // The record is sealed and buffered by TCP; later
                    // steps flush it. Sending again would duplicate it.
                    Err(CioError::Transient(Transient::AgainLater)) => break,
                    // Nothing was accepted: drain and retry.
                    Err(CioError::Transient(Transient::WouldBlock)) => {
                        if self.steps - start_steps > MAX_STEPS_PER_OP {
                            return Err("send stayed blocked".into());
                        }
                        self.step(spans)?;
                    }
                    Err(e) => return Err(fatal("send", e)),
                }
            }
        }

        for acc in &mut self.acc {
            acc.clear();
        }
        let mut pending = self.conns.len();
        loop {
            for i in 0..self.conns.len() {
                if self.acc[i].len() >= len {
                    continue;
                }
                let s = spans.enter(Site::WorldRecv);
                let r = self.world.recv_into(self.conns[i], &mut self.rx);
                spans.exit(s);
                if r.map_err(|e| fatal("recv", e))? > 0 {
                    self.acc[i].extend_from_slice(self.rx.as_slice());
                    if self.acc[i].len() >= len {
                        pending -= 1;
                    }
                }
            }
            if pending == 0 {
                break;
            }
            if self.steps - start_steps > MAX_STEPS_PER_OP {
                return Err("echo timed out".into());
            }
            self.step(spans)?;
        }
        Ok((0..self.conns.len())
            .all(|i| self.acc[i].as_slice() == self.pool.window(self.offs[i], len)))
    }
}

pub fn run(plan: &Plan, traced: bool) -> Result<Pass, String> {
    let shape = shape(plan.workload);
    let (mut net, setup_s) = repeated_setup(|| Net::build(shape, plan.seed, traced))?;
    let (clock, meter) = (net.world.clock().clone(), net.world.meter().clone());
    let window = Window::run(plan, traced, &clock, &meter, |spans| net.op(spans))?;

    let mut violations = Vec::new();
    if net.world.parallel_threads() != shape.parallel {
        violations.push("world did not start the requested worker threads".into());
    }
    let extra = Extra {
        steps: net.steps,
        ..Extra::default()
    };
    let shares = stage_shares(net.world.telemetry(), traced);
    Ok(window.finish(setup_s, extra, shares, violations))
}

/// The serial reference for `net_bulk_16k_par`: the first slice of the
/// same plan on the serial host. Serial == parallel is a correctness
/// check, not a metric: virtual cycles and the whole meter must match.
pub fn serial_first_slice(plan: &Plan) -> Result<(u64, cio_sim::MeterSnapshot), String> {
    let serial = Shape {
        parallel: 0,
        ..shape(plan.workload)
    };
    let mut net = Net::build(serial, plan.seed, false)?;
    let (clock, meter) = (net.world.clock().clone(), net.world.meter().clone());
    let (c0, m0) = (clock.now(), meter.snapshot());
    let mut quiet = SpanLog::disabled();
    for _ in 0..plan.units_per_slice() {
        if !net.op(&mut quiet)? {
            return Err("serial reference echo returned wrong bytes".into());
        }
    }
    Ok((clock.since(c0).get(), meter.snapshot().delta(&m0)))
}
