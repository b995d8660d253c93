//! `kv_ingest` and `kv_lookup`: sealed operations against the
//! confidential KV store (records in via cTLS, encrypted blocks out via
//! the batched block ring).

use super::gen::{kv_keys, kv_preload, KvGen, KvOp, Pool, KV_KEYS};
use super::{fatal, repeated_setup, stage_shares, Extra, Pass, Plan, Window, Workload};
use crate::spans::{Site, SpanLog};
use cio::kv::{KvConfig, KvWorld};
use cio_sim::{CostModel, Telemetry};
use cio_vring::cioring::NotifyPolicy;

/// The pinned reference profile of the KV workloads: batch-8 seal-in-slot
/// block ring, adaptive notify gate, 32-block segments, one lane over a
/// 1 024-block disk.
pub fn reference_config() -> KvConfig {
    KvConfig::batched(8)
        .with_notify(NotifyPolicy::Adaptive)
        .with_seg_blocks(32)
        .with_disk_blocks(1024)
}

/// Share of puts (percent) in the op mix.
pub fn put_pct(workload: Workload) -> usize {
    match workload {
        Workload::KvIngest => 95,
        Workload::KvLookup => 5,
        other => unreachable!("{} is not a KV workload", other.name()),
    }
}

struct Kv {
    world: KvWorld,
    telemetry: Telemetry,
    pool: Pool,
    keys: Vec<[u8; 8]>,
    /// What the benchmark last put under each key: the value's window.
    shadow: Vec<Option<(u32, u32)>>,
    out: Vec<u8>,
    extra: Extra,
}

impl Kv {
    fn build(seed: u64, traced: bool) -> Result<Kv, String> {
        let mut world = KvWorld::new(reference_config(), CostModel::default())
            .map_err(|e| fatal("kv world build", e))?;
        let telemetry = if traced {
            let t = Telemetry::new(world.tee().clock().clone(), world.config().queues);
            world.set_telemetry(t.clone());
            t
        } else {
            Telemetry::disabled()
        };
        let pool = Pool::new(seed);
        let mut kv = Kv {
            world,
            telemetry,
            keys: kv_keys(),
            shadow: vec![None; KV_KEYS],
            out: Vec::with_capacity(2 * super::gen::MAX_PAYLOAD),
            extra: Extra::default(),
            pool,
        };
        let mut quiet = SpanLog::disabled();
        for op in kv_preload(seed, &kv.pool) {
            if !kv.op(op, &mut quiet)? {
                return Err("preload put failed".into());
            }
        }
        kv.world.flush().map_err(|e| fatal("preload flush", e))?;
        kv.extra = Extra::default();
        Ok(kv)
    }

    /// One sealed operation followed by one host service round. Returns
    /// whether the outcome was right: a hit must return exactly the bytes
    /// last put; a miss is legal only once the log has wrapped (eviction).
    fn op(&mut self, op: KvOp, spans: &mut SpanLog) -> Result<bool, String> {
        let key = &self.keys[op.key as usize];
        let ok = if op.put {
            let value = self.pool.window(op.off, op.len as usize);
            let s = spans.enter(Site::KvPut);
            let r = self.world.put_sealed(key, value);
            spans.exit(s);
            r.map_err(|e| fatal("put_sealed", e))?;
            self.shadow[op.key as usize] = Some((op.off, op.len));
            self.extra.put_bytes += u64::from(op.len);
            true
        } else {
            // Blocks this get moved: the meter is the only public view of
            // them (two snapshots, tens of ns against a multi-us get).
            let before = self.world.meter().snapshot().blk_records;
            let s = spans.enter(Site::KvGet);
            let r = self.world.get_sealed_into(key, &mut self.out);
            spans.exit(s);
            let found = r.map_err(|e| fatal("get_sealed_into", e))?;
            self.extra.read_blocks += self.world.meter().snapshot().blk_records - before;
            self.extra.gets += 1;
            self.extra.hits += u64::from(found);
            match (found, self.shadow[op.key as usize]) {
                (true, Some((off, len))) => {
                    self.out.as_slice() == self.pool.window(off, len as usize)
                }
                (true, None) => false,
                (false, None) => true,
                (false, Some(_)) => self.world.wraps() > 0,
            }
        };
        let s = spans.enter(Site::KvService);
        let r = self.world.service();
        spans.exit(s);
        r.map_err(|e| fatal("service", e))?;
        Ok(ok)
    }
}

pub fn run(plan: &Plan, traced: bool) -> Result<Pass, String> {
    let (mut kv, setup_s) = repeated_setup(|| Kv::build(plan.seed, traced))?;
    let mut gen = KvGen::new(plan.seed, put_pct(plan.workload));
    let (clock, meter) = (kv.world.tee().clock().clone(), kv.world.meter().clone());
    let (flushes0, wraps0) = (kv.world.flushes(), kv.world.wraps());
    let mut window = Window::run(plan, traced, &clock, &meter, |spans| {
        let next = gen.next_op(&kv.pool);
        kv.op(next, spans)
    })?;

    // The final flush belongs to the window (its cycles and blocks are
    // real work the ops caused) but to no op and no slice.
    let s = window.spans.enter(Site::KvFlush);
    let r = kv.world.flush();
    window.spans.exit(s);
    r.map_err(|e| fatal("final flush", e))?;

    let extra = Extra {
        flushes: kv.world.flushes() - flushes0,
        wraps: kv.world.wraps() - wraps0,
        ..kv.extra
    };
    let shares = stage_shares(&kv.telemetry, traced);
    Ok(window.finish(setup_s, extra, shares, Vec::new()))
}
