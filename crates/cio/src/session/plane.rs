//! The E21 session-scale harness: 10k+ churning cTLS sessions over
//! RSS-sharded cio rings.
//!
//! [`SessionPlane`] is to the session control plane what the zero-alloc
//! harness is to the record dataplane: a standalone, deterministic rig
//! that drives the *real* components — [`ClientHandshake`] /
//! [`ServerHandshake`] key exchanges (server responses batched under one
//! ephemeral via [`ServerHandshake::respond_batch`], each step's X25519
//! ladders one `scalarmult_many` run), [`Channel`] records
//! sealed in slot and opened in place on per-shard cio rings, automatic
//! rekeying, and a generational [`SessionTable`] — at session counts the
//! full TCP world cannot reach in test time. A [`LoadGen`] supplies
//! arrivals, heavy-tailed record sizes, and churn; everything derives
//! from one seed, so two runs export byte-identical telemetry.
//!
//! The harness exists to make three claims measurable rather than
//! asserted: flow-table lookups stay O(1) from 100 to 10 000 live
//! sessions (`probes == lookups`, constant virtual cycles per lookup),
//! table memory is bounded by peak concurrency under continuous churn
//! (`capacity ≤ peak_live` while `created` grows), and p99 record RTT
//! holds an SLO while sessions churn underneath (from the per-shard
//! telemetry histograms).

use cio_ctls::{
    Channel, ClientHandshake, RecordScratch, ServerHandshake, ServerIdentity, SimHooks,
    RECORD_OVERHEAD,
};
use cio_mem::{GuestAddr, GuestMemory, GuestView, HostView, PAGE_SIZE};
use cio_netstack::rss::flow_hash;
use cio_netstack::Ipv4Addr;
use cio_sim::{Clock, CostModel, Cycles, Meter, SimRng, Stage, Telemetry};
use cio_tee::Measurement;
use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

use super::{LoadGen, LoadGenConfig, SessionId, SessionTable};
use crate::CioError;

/// The plane's attestation platform key (the model's root of trust).
const PLANE_KEY: [u8; 32] = [0x21; 32];
/// The image the plane's server side measures as.
const PLANE_IMAGE: &[u8] = b"cio-session-plane-v1";

/// Configuration for a [`SessionPlane`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlaneConfig {
    /// RSS shard count (power of two): one cio ring pair per shard.
    pub shards: usize,
    /// Workload shape: arrivals, churn, record sizes.
    pub load: LoadGenConfig,
    /// Per-session rekey interval (records per epoch); `None` disables
    /// rotation. Both channel directions rotate in lockstep at the same
    /// sequence numbers, so epochs are deterministic.
    pub rekey_interval: Option<u64>,
    /// How many ClientHellos the server amortizes under one ephemeral
    /// key per [`ServerHandshake::respond_batch`] call.
    pub handshake_batch: usize,
}

impl Default for SessionPlaneConfig {
    fn default() -> Self {
        SessionPlaneConfig {
            shards: 4,
            load: LoadGenConfig::default(),
            rekey_interval: Some(1 << 10),
            handshake_batch: 16,
        }
    }
}

/// One live session: both channel endpoints (the plane simulates client
/// and server sides of the echo), plus bookkeeping.
struct Session {
    client: Channel,
    server: Channel,
    records: u64,
}

/// One RSS shard's transport: a request ring (client produces, server
/// consumes) and an echo ring (server produces, client consumes), each
/// in its own shared-area guest memory, exactly the dataplane's layout.
struct ShardLane {
    req_tx: Producer<GuestView>,
    req_rx: Consumer<HostView>,
    echo_tx: Producer<HostView>,
    echo_rx: Consumer<GuestView>,
    /// Keeps the shard's memories (and their meters) alive.
    _req_mem: GuestMemory,
    _echo_mem: GuestMemory,
}

/// Evidence a [`SessionPlane`] run leaves behind (see module docs for
/// what each field proves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlaneReport {
    /// Ticks executed.
    pub ticks: u64,
    /// Sessions ever opened.
    pub created: u64,
    /// Sessions closed and reclaimed.
    pub reclaimed: u64,
    /// Sessions live at the end of the run.
    pub live: u64,
    /// Peak concurrent sessions (sum of per-shard peaks).
    pub peak_live: u64,
    /// Flow-table slots ever allocated — the memory-bound claim:
    /// `capacity ≤ peak_live` no matter how large `created` grows.
    pub capacity: u64,
    /// Hot-path flow-table lookups.
    pub lookups: u64,
    /// Slot probes those lookups performed (`== lookups` ⇔ O(1)).
    pub probes: u64,
    /// Virtual cycles charged per lookup (the modeled hot-path cost;
    /// constant across population by construction, asserted anyway).
    pub lookup_cycles: u64,
    /// Completed handshakes.
    pub handshakes: u64,
    /// `respond_batch` calls those handshakes were amortized into.
    pub handshake_batches: u64,
    /// Echo round trips completed.
    pub records_echoed: u64,
    /// Payload bytes echoed.
    pub bytes_echoed: u64,
    /// Highest key epoch any session reached (0 = never rekeyed).
    pub max_epoch: u64,
    /// Virtual time the run consumed.
    pub elapsed: Cycles,
}

/// The E21 harness. Construct, [`SessionPlane::run`] some ticks, then
/// read the [`SessionPlane::report`], [`SessionPlane::telemetry`] (p99
/// RTT histograms, session gauges), and [`SessionPlane::meter`].
pub struct SessionPlane {
    cfg: SessionPlaneConfig,
    clock: Clock,
    cost: CostModel,
    meter: Meter,
    telemetry: Telemetry,
    hooks: SimHooks,
    identity: ServerIdentity,
    table: SessionTable<Session>,
    lanes: Vec<ShardLane>,
    loadgen: LoadGen,
    /// Handshake entropy; independent stream from the loadgen's RNG so
    /// workload shape and key material don't perturb each other.
    rng: SimRng,
    /// Monotonic session sequence number; drives the synthetic flow
    /// 4-tuple whose RSS hash picks the shard.
    seq: u64,
    /// Reused buffers: live-id iteration, payload staging, plaintext and
    /// echo scratches. Steady state touches the heap only when a buffer
    /// grows past its high-water mark.
    ids: Vec<SessionId>,
    payload: Vec<u8>,
    plain: RecordScratch,
    echo: RecordScratch,
    started: Cycles,
    ticks: u64,
    handshakes: u64,
    handshake_batches: u64,
    records_echoed: u64,
    bytes_echoed: u64,
    max_epoch: u64,
}

impl SessionPlane {
    /// Builds the plane: per-shard ring pairs, telemetry domain, load
    /// generator.
    ///
    /// # Errors
    ///
    /// Ring construction errors (misconfigured geometry) — never for the
    /// default config.
    ///
    /// # Panics
    ///
    /// If `cfg.shards` is not a non-zero power of two (same contract as
    /// [`SessionTable::new`]).
    pub fn new(cfg: SessionPlaneConfig) -> Result<Self, CioError> {
        let clock = Clock::new();
        let cost = CostModel::default();
        let meter = Meter::new();
        let telemetry = Telemetry::new(clock.clone(), cfg.shards);
        telemetry.attach_meter(&meter);
        let hooks = SimHooks {
            clock: clock.clone(),
            cost: cost.clone(),
            meter: meter.clone(),
            telemetry: telemetry.clone(),
        };
        let mut lanes = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            lanes.push(ShardLane::new(&clock, &cost, &meter, &telemetry, shard)?);
        }
        let loadgen = LoadGen::new(cfg.load.clone());
        let rng = SimRng::seed_from(cfg.load.seed ^ 0x5e55_109f);
        let started = clock.now();
        Ok(SessionPlane {
            table: SessionTable::new(cfg.shards),
            identity: ServerIdentity {
                platform_key: PLANE_KEY,
                measurement: Measurement::of(PLANE_IMAGE),
            },
            cfg,
            clock,
            cost,
            meter,
            telemetry,
            hooks,
            lanes,
            loadgen,
            rng,
            seq: 0,
            ids: Vec::new(),
            payload: Vec::new(),
            plain: RecordScratch::new(),
            echo: RecordScratch::new(),
            started,
            ticks: 0,
            handshakes: 0,
            handshake_batches: 0,
            records_echoed: 0,
            bytes_echoed: 0,
            max_epoch: 0,
        })
    }

    /// The telemetry domain (RTT histograms per shard, session gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shared operation meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Runs `ticks` workload ticks: churn closes, (batched) handshake
    /// arrivals, then one echo round trip per live session.
    ///
    /// # Errors
    ///
    /// Transport/ring errors only — a per-session crypto failure
    /// quarantines that session (metered `session_failures`) instead of
    /// failing the run.
    pub fn run(&mut self, ticks: u64) -> Result<(), CioError> {
        for _ in 0..ticks {
            self.tick()?;
        }
        Ok(())
    }

    /// One workload tick.
    fn tick(&mut self) -> Result<(), CioError> {
        // 1. Churn: every live session draws its close decision, in
        //    deterministic (shard, slot) order.
        self.ids.clear();
        self.table.collect_ids(&mut self.ids);
        for i in 0..self.ids.len() {
            if self.loadgen.should_close() {
                self.close_session(self.ids[i]);
            }
        }

        // 2. Arrivals, handshaken in batches: the server amortizes one
        //    ephemeral key generation across each batch.
        let want = self.loadgen.arrivals(self.table.live() as usize);
        let mut opened = 0;
        while opened < want {
            let n = (want - opened).min(self.cfg.handshake_batch.max(1));
            self.open_batch(n)?;
            opened += n;
        }

        // 3. Data: one echo round trip per live session.
        self.ids.clear();
        self.table.collect_ids(&mut self.ids);
        for i in 0..self.ids.len() {
            self.pump_record(self.ids[i])?;
        }

        // 4. Publish session gauges (last-write-wins, per tick).
        self.telemetry.publish_sessions(
            self.table.shard_live(),
            self.table.shard_peak(),
            self.table.created(),
            self.table.reclaimed(),
            self.table.capacity() as u64,
        );
        self.ticks += 1;
        Ok(())
    }

    /// Opens `n` sessions through one batched server response; each side's
    /// X25519 work is one run ([`ClientHandshake::start_batch`],
    /// [`ServerHandshake::respond_batch`], [`ClientHandshake::finish_batch`]).
    fn open_batch(&mut self, n: usize) -> Result<(), CioError> {
        let entropies: Vec<[u8; 64]> = (0..n)
            .map(|_| {
                let mut entropy = [0u8; 64];
                self.rng.fill_bytes(&mut entropy);
                entropy
            })
            .collect();
        let (hellos, clients): (Vec<_>, Vec<_>) =
            ClientHandshake::start_batch(&entropies, Some(self.hooks.clone()))
                .into_iter()
                .unzip();
        let hellos: Vec<&[u8]> = hellos.iter().map(Vec::as_slice).collect();
        let mut server_entropy = [0u8; 64];
        self.rng.fill_bytes(&mut server_entropy);
        let responses = ServerHandshake::respond_batch(
            &hellos,
            &self.identity,
            server_entropy,
            Some(self.hooks.clone()),
        );
        self.handshake_batches += 1;
        let (server_hellos, conts): (Vec<_>, Vec<_>) = responses
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(CioError::Ctls)?;
        let finished = ClientHandshake::finish_batch(
            clients,
            &server_hellos,
            &PLANE_KEY,
            &self.identity.measurement,
        );
        for (cont, fin) in conts.into_iter().zip(finished) {
            let (fin, mut client) = fin.map_err(CioError::Ctls)?;
            let mut server = cont.verify_finished(&fin).map_err(CioError::Ctls)?;
            client.set_rekey_interval(self.cfg.rekey_interval);
            server.set_rekey_interval(self.cfg.rekey_interval);
            // The synthetic flow 4-tuple: a churning source port against
            // the service port, steered by the same RSS hash as the
            // dataplane.
            let port = 40_000u16.wrapping_add((self.seq % 20_000) as u16);
            let shard = flow_hash(
                (Ipv4Addr([10, 0, 0, 1]), port),
                (Ipv4Addr([10, 0, 0, 2]), 443),
            ) as usize
                & (self.cfg.shards - 1);
            self.seq += 1;
            self.table.insert(
                shard,
                Session {
                    client,
                    server,
                    records: 0,
                },
            );
            self.meter.sessions_opened(1);
            self.handshakes += 1;
        }
        Ok(())
    }

    fn close_session(&mut self, id: SessionId) {
        if let Ok(sess) = self.table.remove(id) {
            self.max_epoch = self.max_epoch.max(sess.client.tx_generation());
            self.meter.sessions_closed(1);
        }
    }

    /// One echo round trip for `id`: flow-table lookup, seal in slot on
    /// the request ring, open in place server-side, sealed echo back,
    /// open in place client-side, RTT recorded on the shard's histogram.
    fn pump_record(&mut self, id: SessionId) -> Result<(), CioError> {
        let size = self.loadgen.record_size();
        let t0 = self.clock.now();
        // The hot-path lookup: charged at the modeled cost, counted by
        // the table.
        self.clock.advance(self.cost.flow_lookup);
        let shard = self.table.shard_of(id);
        let Ok(sess) = self.table.get_mut(id) else {
            // Quarantined or stale mid-iteration; nothing to pump.
            return Ok(());
        };
        let lane = &mut self.lanes[shard];
        self.payload.clear();
        let tag = (id.index() as u64) ^ sess.records;
        self.payload
            .extend((0..size).map(|i| (tag as u8).wrapping_add(i as u8)));

        let ok = (|| -> Result<bool, CioError> {
            // Client → server.
            {
                let _span = self.telemetry.span(shard, Stage::GuestSend);
                let grant = lane.req_tx.reserve(size + RECORD_OVERHEAD)?;
                let n = lane.req_tx.with_slot_mut(&grant, |slot| {
                    sess.client.seal_into_slot(&self.payload, slot)
                })?;
                let n = match n {
                    Ok(n) => n,
                    Err(_) => return Ok(false),
                };
                lane.req_tx.commit(grant, n)?;
            }
            let opened = lane
                .req_rx
                .consume_in_place(|record| sess.server.open_in_slot(record, &mut self.plain))?;
            match opened {
                Some(Ok(())) => {}
                Some(Err(_)) | None => return Ok(false),
            }
            // Server → client echo.
            {
                let _span = self.telemetry.span(shard, Stage::Peer);
                let grant = lane.echo_tx.reserve(self.plain.len() + RECORD_OVERHEAD)?;
                let n = lane.echo_tx.with_slot_mut(&grant, |slot| {
                    sess.server.seal_into_slot(self.plain.as_slice(), slot)
                })?;
                let n = match n {
                    Ok(n) => n,
                    Err(_) => return Ok(false),
                };
                lane.echo_tx.commit(grant, n)?;
            }
            let echoed = lane
                .echo_rx
                .consume_in_place(|record| sess.client.open_in_slot(record, &mut self.echo))?;
            match echoed {
                Some(Ok(())) => {}
                Some(Err(_)) | None => return Ok(false),
            }
            Ok(self.echo.as_slice() == self.payload.as_slice())
        })()?;

        if ok {
            sess.records += 1;
            self.max_epoch = self.max_epoch.max(sess.client.tx_generation());
            self.records_echoed += 1;
            self.bytes_echoed += size as u64;
            self.telemetry.record_rtt(shard, self.clock.since(t0));
            self.telemetry.record_batch(shard, 1);
        } else {
            // Fail closed: the session is quarantined, its neighbours
            // keep running. An application casualty, not a boundary
            // violation — metered separately from `violations_detected`.
            let _ = self.table.remove(id);
            self.meter.session_failures(1);
        }
        Ok(())
    }

    /// The run's evidence.
    pub fn report(&self) -> SessionPlaneReport {
        SessionPlaneReport {
            ticks: self.ticks,
            created: self.table.created(),
            reclaimed: self.table.reclaimed(),
            live: self.table.live(),
            peak_live: self.table.peak_live(),
            capacity: self.table.capacity() as u64,
            lookups: self.table.lookups(),
            probes: self.table.probes(),
            lookup_cycles: self.cost.flow_lookup.get(),
            handshakes: self.handshakes,
            handshake_batches: self.handshake_batches,
            records_echoed: self.records_echoed,
            bytes_echoed: self.bytes_echoed,
            max_epoch: self.max_epoch,
            elapsed: self.clock.since(self.started),
        }
    }
}

impl ShardLane {
    fn new(
        clock: &Clock,
        cost: &CostModel,
        meter: &Meter,
        telemetry: &Telemetry,
        shard: usize,
    ) -> Result<Self, CioError> {
        let build = || -> Result<(CioRing, GuestMemory), CioError> {
            let cfg = RingConfig {
                mtu: 2048,
                mode: DataMode::SharedArea,
                ..RingConfig::default()
            };
            let area_pages = cfg.area_size as usize / PAGE_SIZE;
            let mem = GuestMemory::new(32 + area_pages, clock.clone(), cost.clone(), meter.clone());
            let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
            mem.share_range(GuestAddr(0), ring.ring_bytes())?;
            mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())?;
            Ok((ring, mem))
        };
        let (req_ring, req_mem) = build()?;
        let mut req_tx = Producer::new(req_ring.clone(), req_mem.guest())?;
        let mut req_rx = Consumer::new(req_ring, req_mem.host())?;
        let (echo_ring, echo_mem) = build()?;
        let mut echo_tx = Producer::new(echo_ring.clone(), echo_mem.host())?;
        let mut echo_rx = Consumer::new(echo_ring, echo_mem.guest())?;
        req_tx.set_telemetry(telemetry.clone(), shard);
        req_rx.set_telemetry(telemetry.clone(), shard);
        echo_tx.set_telemetry(telemetry.clone(), shard);
        echo_rx.set_telemetry(telemetry.clone(), shard);
        Ok(ShardLane {
            req_tx,
            req_rx,
            echo_tx,
            echo_rx,
            _req_mem: req_mem,
            _echo_mem: echo_mem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Arrival;

    fn quick_cfg(population: usize, churn: f64) -> SessionPlaneConfig {
        SessionPlaneConfig {
            shards: 4,
            load: LoadGenConfig {
                seed: 7,
                arrival: Arrival::Closed { population },
                churn,
                size_min: 32,
                size_max: 512,
                size_alpha: 1.2,
            },
            rekey_interval: Some(8),
            handshake_batch: 8,
        }
    }

    #[test]
    fn sustains_churning_population_with_o1_lookups() {
        let mut p = SessionPlane::new(quick_cfg(96, 0.05)).unwrap();
        p.run(20).unwrap();
        let r = p.report();
        assert_eq!(r.live, 96, "closed loop holds the population");
        assert!(r.created > 150, "churn creates well beyond peak: {r:?}");
        assert_eq!(r.probes, r.lookups, "direct-mapped lookups");
        assert!(
            r.capacity <= r.peak_live,
            "table memory bounded by peak concurrency: {r:?}"
        );
        assert_eq!(
            r.lookups, r.records_echoed,
            "every echo cost exactly one hot-path lookup"
        );
        assert!(r.max_epoch >= 1, "rekey-after-8 must have rotated: {r:?}");
        let snap = p.meter().snapshot();
        assert_eq!(snap.sessions_opened, r.created);
        assert_eq!(snap.sessions_closed + snap.session_failures, r.reclaimed);
        assert_eq!(snap.session_failures, 0, "honest run: no quarantines");
    }

    #[test]
    fn batched_handshakes_amortize_server_keygen() {
        let mut p = SessionPlane::new(quick_cfg(64, 0.0)).unwrap();
        p.run(1).unwrap();
        let r = p.report();
        assert_eq!(r.handshakes, 64);
        assert_eq!(r.handshake_batches, 8, "64 arrivals in batches of 8");
        let snap = p.meter().snapshot();
        // Per batch: 1 server keygen; per handshake: client keygen +
        // client shared-secret + server shared-secret = 3.
        assert_eq!(snap.x25519_ops, 8 + 3 * 64);
    }

    #[test]
    fn same_seed_exports_identical_telemetry() {
        let run = || {
            let mut p = SessionPlane::new(quick_cfg(48, 0.08)).unwrap();
            p.run(12).unwrap();
            (
                p.telemetry().prometheus_text(),
                p.telemetry().json_snapshot(),
                p.report(),
            )
        };
        let (a_prom, a_json, a_rep) = run();
        let (b_prom, b_json, b_rep) = run();
        assert_eq!(a_rep, b_rep);
        assert_eq!(a_prom, b_prom, "prometheus export must be byte-identical");
        assert_eq!(a_json, b_json, "json export must be byte-identical");
        assert!(a_json.contains("\"sessions\""), "gauges published");
    }

    #[test]
    fn rtt_histograms_populate_per_shard() {
        let mut p = SessionPlane::new(quick_cfg(64, 0.02)).unwrap();
        p.run(10).unwrap();
        let total: u64 = (0..4).map(|q| p.telemetry().rtt_histogram(q).count()).sum();
        assert_eq!(total, p.report().records_echoed);
        for q in 0..4 {
            let h = p.telemetry().rtt_histogram(q);
            assert!(h.count() > 0, "shard {q} starved — RSS steering broken?");
            assert!(h.p99() > 0);
        }
    }
}
