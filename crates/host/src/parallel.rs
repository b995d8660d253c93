//! Thread-per-queue parallel host execution.
//!
//! [`ParallelHost`] turns the virtual multiqueue schedule into wall-clock
//! parallelism. It is built by splitting a [`CioNetBackend`]: the fabric
//! port, the RSS mask and the `Admission` (`crate::backend`)
//! decision (gate state included) stay with the coordinator, each queue
//! lane becomes a self-contained `CioQueueWorker`, and the workers are
//! sharded over `T` persistent OS threads (thread `t` owns queues `t`,
//! `t + T`, ...). It implements [`Backend`]: to the world it is one more
//! host handle whose [`Backend::round`] happens to overlap in wall clock.
//!
//! Determinism is preserved by construction, not by luck:
//!
//! * **Virtual time.** Each queue keeps its own lane [`Clock`]; before a
//!   round the coordinator positions it at the lane's frontier (exactly
//!   what [`Lanes::begin`] does to the shared clock in the serial round)
//!   and afterwards folds the elapsed lane time back with
//!   [`Lanes::charge`]. The shared clock is never touched from a worker
//!   thread.
//! * **Admission.** Whether a queue is serviced this round is decided
//!   coordinator-side by the same `Admission` object the serial backend
//!   ran until the split, so skip decisions match round for round and a
//!   thread whose queues are all cold is never woken.
//! * **Fabric.** Workers never transmit: the fabric's loss PRNG draws in
//!   call order, so worker-side transmission would make loss depend on
//!   thread scheduling. Workers stamp frames with their lane clock and
//!   park them in an outbox; the coordinator flushes outboxes in
//!   ascending queue order via `transmit_at` — the serial draw order and
//!   delivery timestamps exactly.
//! * **Ingress.** The coordinator steers inbound frames by the same RSS
//!   hash as the serial backend and ships each queue's batch to its
//!   worker; the worker applies the one tail-drop rule at enqueue, when
//!   its backlog is in exactly the state serial ingress would have seen,
//!   so drop decisions match record for record.
//! * **Telemetry.** Each queue records into a private fork of the
//!   world's telemetry domain on its lane clock; after the barrier the
//!   coordinator absorbs forks in ascending queue order, so exports are
//!   byte-identical regardless of how threads interleaved.
//!
//! Synchronization is a pre-allocated mailbox per thread (mutex + two
//! condvars, command and completion slots): the steady-state round
//! trips no channels and allocates nothing for coordination, and every
//! container (steering batches, outbox frames) round-trips between
//! coordinator and worker so capacities are reused.

use crate::backend::{steer_ingress, Admission, Backend, CioNetBackend, HostQueue};
use crate::fabric::FabricPort;
use crate::mq::QueueLane;
use crate::worker::CioQueueWorker;
use crate::HostError;
use cio_sim::{Clock, Cycles, Lanes, Meter, MeterSnapshot, Telemetry};
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Containers that round-trip between the coordinator and one queue's
/// worker each round: steered inbound frames travel out full, flushed
/// outbox buffers travel out for recycling; the worker returns the
/// drained inbound container and a freshly stamped outbox.
///
/// The scalar fields carry the notification handshake: the coordinator
/// sets `admitted` to its admission verdict (`None`: a cold queue,
/// skipped without waking anything; `Some(door)`: run the lane, `door`
/// telling whether the guest rang since the last pass); the worker
/// reports back `moved` and its residual `backlog`, which feed the
/// coordinator-side admission exactly like the serial backend's own
/// bookkeeping.
#[derive(Default)]
struct LaneExchange {
    inbound: Vec<Vec<u8>>,
    outbox: Vec<(Cycles, Vec<u8>)>,
    admitted: Option<bool>,
    moved: usize,
    backlog: usize,
}

enum Cmd {
    /// One round of servicing: exchanges indexed by the thread's owned
    /// queues in ascending order.
    Service(Vec<LaneExchange>),
    Stop,
}

struct Done {
    moved: usize,
    lanes: Vec<LaneExchange>,
}

/// Pre-allocated rendezvous between the coordinator and one worker
/// thread. Slots are strict ping-pong (the coordinator never posts a
/// second command before taking the completion), so `Option` slots
/// cannot clobber in-flight work.
struct Mailbox {
    cmd: Mutex<Option<Cmd>>,
    cmd_ready: Condvar,
    done: Mutex<Option<Done>>,
    done_ready: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            cmd: Mutex::new(None),
            cmd_ready: Condvar::new(),
            done: Mutex::new(None),
            done_ready: Condvar::new(),
        }
    }
}

/// Locks a mailbox slot even if the peer thread panicked mid-hold: the
/// slot state (an `Option` write) is valid at every interleaving.
fn lock_slot<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct WorkerThread {
    mailbox: Arc<Mailbox>,
    join: Option<JoinHandle<()>>,
}

/// The coordinator side of thread-per-queue host execution: the
/// [`Backend`] a world built with `parallel(n)` runs.
pub struct ParallelHost {
    port: FabricPort,
    /// RSS steering mask (queue count - 1).
    mask: u32,
    /// The shared world clock (read-only here: lane time is folded back
    /// through [`Lanes::charge`]).
    clock: Clock,
    /// The world's telemetry domain, which the per-queue forks are
    /// absorbed into.
    telemetry: Telemetry,
    threads: Vec<WorkerThread>,
    /// Per-queue lane clocks, index = queue id.
    lane_clocks: Vec<Clock>,
    /// Per-queue telemetry forks, absorbed in queue order each round.
    forks: Vec<Telemetry>,
    /// Shared handles to each queue's traffic meter (the workers own the
    /// lanes, but meters are atomic and readable from the coordinator).
    queue_meters: Vec<Meter>,
    /// Per-queue steering buckets the fabric drains into.
    staged: Vec<Vec<Vec<u8>>>,
    /// Dispatch-time lane start positions (reposition targets).
    starts: Vec<Cycles>,
    /// Per-thread exchange sets, `None` while a round is in flight.
    exchanges: Vec<Option<Vec<LaneExchange>>>,
    /// The per-round admission decision, handed over by the serial
    /// backend at the split with its gate state.
    admission: Admission,
    /// Residual per-queue backlogs reported by the workers last round
    /// (the serial path's `!pending.is_empty()` work hint).
    backlogs: Vec<usize>,
}

impl ParallelHost {
    /// Splits `backend` and spawns `threads` persistent worker threads;
    /// thread `t` owns queues `t`, `t + threads`, ... Each queue gets a
    /// private lane clock, a telemetry fork bound to it, and a host view
    /// of the shared (lock-striped) guest memory charging that clock;
    /// ring endpoints are rebound mid-stream onto that view
    /// ([`Consumer::rebind`](cio_vring::cioring::Consumer::rebind)), so
    /// indices, pending frames, per-queue meters and admission state all
    /// carry over and the split is transparent to the guest.
    ///
    /// # Errors
    ///
    /// [`HostError::Worker`] unless `threads` is non-zero and divides the
    /// queue count, or if a thread cannot be spawned.
    pub fn new(backend: CioNetBackend, threads: usize) -> Result<Self, HostError> {
        let fbits = backend.frame_bits();
        let CioNetBackend {
            queues,
            port,
            recorder,
            clock,
            batch,
            admission,
            telemetry,
            ..
        } = backend;
        let mask = queues.mask();
        let lanes = queues.into_lanes();
        let nq = lanes.len();
        if threads == 0 || nq % threads != 0 {
            return Err(HostError::Worker(
                "worker count must be non-zero and divide the queue count",
            ));
        }
        let mem = admission.memory();
        let mut lane_clocks = Vec::with_capacity(nq);
        let mut forks = Vec::with_capacity(nq);
        let mut queue_meters = Vec::with_capacity(nq);
        let mut sharded: Vec<Vec<CioQueueWorker>> = (0..threads).map(|_| Vec::new()).collect();
        for (q, lane) in lanes.into_iter().enumerate() {
            let lane_clock = Clock::new();
            let fork = telemetry.fork(lane_clock.clone());
            let view = mem.with_clock(lane_clock.clone()).host();
            let HostQueue { tx, rx, pending } = lane.end;
            let mut tx = tx.rebind(view.clone());
            let mut rx = rx.rebind(view);
            tx.set_telemetry(fork.clone(), q);
            rx.set_telemetry(fork.clone(), q);
            queue_meters.push(lane.meter.clone());
            sharded[q % threads].push(CioQueueWorker::new(
                q,
                QueueLane {
                    end: HostQueue { tx, rx, pending },
                    meter: lane.meter,
                },
                batch,
                fbits,
                recorder.clone(),
                lane_clock.clone(),
                fork.clone(),
            ));
            lane_clocks.push(lane_clock);
            forks.push(fork);
        }
        let mut handles = Vec::with_capacity(threads);
        let mut exchanges = Vec::with_capacity(threads);
        for shard in sharded {
            let mailbox = Arc::new(Mailbox::new());
            let mb = Arc::clone(&mailbox);
            let owned = shard.len();
            let join = std::thread::Builder::new()
                .name("cio-queue-worker".into())
                .spawn(move || worker_loop(shard, &mb))
                .map_err(|_| HostError::Worker("could not spawn a host worker thread"))?;
            handles.push(WorkerThread {
                mailbox,
                join: Some(join),
            });
            exchanges.push(Some((0..owned).map(|_| LaneExchange::default()).collect()));
        }
        Ok(ParallelHost {
            port,
            mask,
            clock,
            telemetry,
            threads: handles,
            lane_clocks,
            forks,
            queue_meters,
            staged: (0..nq).map(|_| Vec::new()).collect(),
            starts: vec![Cycles::ZERO; nq],
            exchanges,
            admission,
            backlogs: vec![0; nq],
        })
    }
}

impl Backend for ParallelHost {
    /// One parallel host round, equivalent to the serial backend's:
    /// steer inbound frames, dispatch every admitted queue to its worker
    /// thread, then — in ascending queue order — fold lane time, flush
    /// stamped transmissions, and absorb telemetry.
    ///
    /// # Errors
    ///
    /// [`HostError::Worker`] if a worker thread died. Per-queue transport
    /// errors are swallowed exactly like the serial cio round (a wedged
    /// ring surfaces on the meter; the world keeps stepping).
    fn round(&mut self, lanes: &mut Lanes) -> Result<usize, HostError> {
        let staged = &mut self.staged;
        steer_ingress(&mut self.port, self.mask, |q, frame| staged[q].push(frame));
        let base = self.clock.now();
        let nthreads = self.threads.len();
        for t in 0..nthreads {
            let mut set = self.exchanges[t].take().expect("no round in flight");
            let mut any = false;
            for (i, ex) in set.iter_mut().enumerate() {
                let q = t + i * nthreads;
                let work = !self.staged[q].is_empty() || self.backlogs[q] > 0;
                ex.admitted = self.admission.admit(q, work);
                if ex.admitted.is_some() {
                    any = true;
                    std::mem::swap(&mut ex.inbound, &mut self.staged[q]);
                    let start = base.saturating_add(lanes.pending(q));
                    self.lane_clocks[q].reposition(start);
                    self.starts[q] = start;
                }
            }
            if any {
                let mb = &self.threads[t].mailbox;
                *lock_slot(&mb.cmd) = Some(Cmd::Service(set));
                mb.cmd_ready.notify_one();
                continue;
            }
            // Every queue on this thread skipped: the suppressed doorbell
            // saves a real Condvar wakeup, not just a virtual cycle
            // charge.
            self.exchanges[t] = Some(set);
        }
        let mut moved = 0;
        for t in 0..nthreads {
            if self.exchanges[t].is_none() {
                let done = wait_done(&self.threads[t])?;
                moved += done.moved;
                self.exchanges[t] = Some(done.lanes);
            }
        }
        for q in 0..self.backlogs.len() {
            let (t, i) = (q % nthreads, q / nthreads);
            let ex = &self.exchanges[t].as_ref().expect("round joined")[i];
            if ex.admitted.is_none() {
                continue;
            }
            lanes.charge(q, self.lane_clocks[q].now().saturating_sub(self.starts[q]));
            for (at, frame) in &ex.outbox {
                // Transmit errors are the guest's own fault (oversized
                // frame) and non-fatal, as in the serial round.
                let _ = self.port.transmit_at(frame, *at);
            }
            self.telemetry.absorb(&self.forks[q]);
            self.backlogs[q] = ex.backlog;
            self.admission.observe(q, ex.moved);
        }
        Ok(moved)
    }

    fn queue_meters(&self) -> Vec<MeterSnapshot> {
        self.queue_meters.iter().map(Meter::snapshot).collect()
    }

    fn idle_passes(&self) -> u64 {
        self.admission.idle_passes()
    }

    fn threads(&self) -> usize {
        self.threads.len()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Drop for ParallelHost {
    fn drop(&mut self) {
        for t in &mut self.threads {
            *lock_slot(&t.mailbox.cmd) = Some(Cmd::Stop);
            t.mailbox.cmd_ready.notify_one();
            if let Some(join) = t.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Waits for a thread's completion slot, detecting a dead worker rather
/// than blocking forever.
fn wait_done(t: &WorkerThread) -> Result<Done, HostError> {
    let mut slot = lock_slot(&t.mailbox.done);
    loop {
        if let Some(done) = slot.take() {
            return Ok(done);
        }
        let (s, timeout) = t
            .mailbox
            .done_ready
            .wait_timeout(slot, Duration::from_secs(5))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot = s;
        if timeout.timed_out() && t.join.as_ref().is_none_or(JoinHandle::is_finished) {
            // One last look: the thread may have posted and exited.
            if let Some(done) = slot.take() {
                return Ok(done);
            }
            return Err(HostError::Worker("a parallel host worker thread died"));
        }
    }
}

/// The worker thread body: waits for a round, services every owned
/// queue (enqueue with serial-identical tail-drop, then the shared
/// `service_cio_lane` routine on the lane clock), posts the completion.
fn worker_loop(mut workers: Vec<CioQueueWorker>, mb: &Mailbox) {
    loop {
        let cmd = {
            let mut slot = lock_slot(&mb.cmd);
            loop {
                if let Some(cmd) = slot.take() {
                    break cmd;
                }
                slot = mb
                    .cmd_ready
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match cmd {
            Cmd::Stop => return,
            Cmd::Service(mut set) => {
                let mut moved = 0;
                for (w, ex) in workers.iter_mut().zip(set.iter_mut()) {
                    let Some(door) = ex.admitted else {
                        // Cold adaptive lane: untouched (its flushed
                        // outbox is recycled on the next serviced pass).
                        continue;
                    };
                    w.recycle_outbox(std::mem::take(&mut ex.outbox));
                    w.enqueue(&mut ex.inbound);
                    // A wedged ring surfaces on the meter and counts as
                    // an empty pass, exactly like the serial round.
                    ex.moved = w.service(door).unwrap_or(0);
                    ex.outbox = w.take_outbox();
                    ex.backlog = w.backlog();
                    moved += ex.moved;
                }
                *lock_slot(&mb.done) = Some(Done { moved, lanes: set });
                mb.done_ready.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, LinkParams};
    use crate::observe::Recorder;
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_netstack::MacAddr;
    use cio_sim::{CostModel, Meter};
    use cio_vring::cioring::{
        CioRing, Consumer, DataMode, NotifyMode, NotifyPolicy, Producer, RingConfig,
    };

    /// A two-queue adaptive cio backend over event-idx rings (queue `q`'s
    /// guest->host ring header on page `2 * q`), its memory and clock.
    fn two_queue_backend() -> (CioNetBackend, GuestMemory, Clock) {
        let clock = Clock::new();
        let mem = GuestMemory::new(300, clock.clone(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 64,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 2048,
            area_size: 1 << 17,
            notify: NotifyMode::EventIdx,
            ..RingConfig::default()
        };
        let page = |p: u64| GuestAddr(p * PAGE_SIZE as u64);
        let mut pairs = Vec::new();
        for q in 0..2u64 {
            let ring = |r: u64| {
                let ring =
                    CioRing::new(cfg.clone(), page(2 * q + r), page(16 + 64 * q + 32 * r)).unwrap();
                mem.share_range(ring.prod_idx_addr(), ring.ring_bytes())
                    .unwrap();
                mem.share_range(ring.payload_addr(0), ring.area_bytes())
                    .unwrap();
                ring
            };
            pairs.push((
                Consumer::new(ring(0), mem.host()).unwrap(),
                Producer::new(ring(1), mem.host()).unwrap(),
            ));
        }
        let fabric = Fabric::new(clock.clone(), 7);
        let port = fabric.port(MacAddr([0xAA; 6]), 1500);
        let peer = fabric.port(MacAddr([0xBB; 6]), 1500);
        fabric.connect(&port, &peer, LinkParams::default()).unwrap();
        let mut backend =
            CioNetBackend::new(pairs, mem.host(), port, Recorder::new(), clock.clone()).unwrap();
        backend.set_notify_policy(NotifyPolicy::Adaptive);
        (backend, mem, clock)
    }

    #[test]
    fn both_hosts_fail_toward_service_on_an_unreadable_door_word() {
        // One admission decision, one answer: an idle adaptive queue goes
        // cold and is skipped; once its door word cannot be read (the
        // guest revoked the ring header) neither host may keep skipping
        // it on the strength of a word it could not see. Both admit the
        // pass as rung, meet the same fault on the ring, swallow it as a
        // wedged queue and account an empty pass — every round, while the
        // healthy sibling stays cold.
        let (serial, serial_mem, serial_clock) = two_queue_backend();
        let (split, parallel_mem, parallel_clock) = two_queue_backend();
        let mut hosts: [(Box<dyn Backend>, GuestMemory, Lanes); 2] = [
            (Box::new(serial), serial_mem, Lanes::new(serial_clock, 2)),
            (
                Box::new(ParallelHost::new(split, 2).unwrap()),
                parallel_mem,
                Lanes::new(parallel_clock, 2),
            ),
        ];
        let mut traces = Vec::new();
        for (host, mem, lanes) in &mut hosts {
            let mut trace = Vec::new();
            for round in 0..24 {
                if round == 12 {
                    // Both gates are cold by now; queue 1's header goes.
                    mem.unshare_range(GuestAddr(2 * PAGE_SIZE as u64), PAGE_SIZE)
                        .unwrap();
                }
                assert_eq!(host.round(lanes).unwrap(), 0);
                lanes.sync();
                trace.push(host.idle_passes());
            }
            traces.push(trace);
        }
        assert_eq!(traces[0], traces[1], "the hosts answered differently");
        let trace = &traces[0];
        assert_eq!(trace[11], trace[7], "idle queues must have gone cold");
        for round in 12..24 {
            assert_eq!(
                trace[round],
                trace[round - 1] + 1,
                "round {round}: the unreadable queue was skipped"
            );
        }
    }
}
