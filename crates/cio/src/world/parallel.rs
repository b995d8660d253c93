//! Thread-per-queue parallel host execution.
//!
//! [`ParallelHost`] turns the virtual multiqueue schedule into wall-clock
//! parallelism: the world's [`CioNetBackend`] is split
//! ([`CioNetBackend::split_parallel`]) into a coordinator-side
//! [`CioSteer`] (fabric port + RSS arithmetic) and one
//! [`CioQueueWorker`] per queue, and the workers are sharded over `T`
//! persistent OS threads (thread `t` owns queues `t`, `t + T`, ...).
//!
//! Determinism is preserved by construction, not by luck:
//!
//! * **Virtual time.** Each queue keeps its own lane [`Clock`]; before a
//!   round the coordinator positions it at the lane's frontier (exactly
//!   what [`Lanes::begin`] does to the shared clock in the serial
//!   multiqueue schedule) and afterwards folds the elapsed lane time
//!   back with [`Lanes::charge`]. The shared clock is never touched from
//!   a worker thread.
//! * **Fabric.** Workers never transmit: the fabric's loss PRNG draws in
//!   call order, so worker-side transmission would make loss depend on
//!   thread scheduling. Workers stamp frames with their lane clock and
//!   park them in an outbox; the coordinator flushes outboxes in
//!   ascending queue order via `transmit_at` — the serial draw order and
//!   delivery timestamps exactly.
//! * **Ingress.** The coordinator steers inbound frames by the same RSS
//!   hash as the serial backend and ships each queue's batch to its
//!   worker; the worker applies the pending-cap tail-drop at enqueue,
//!   when its backlog is in exactly the state serial ingress would have
//!   seen, so drop decisions match record for record.
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

use crate::CioError;
use cio_host::backend::{CioNetBackend, CioSteer, NotifyGate, WorkerCtx};
use cio_host::worker::CioQueueWorker;
use cio_mem::{GuestAddr, GuestMemory, HostView};
use cio_sim::{Clock, Cycles, Lanes, Meter, MeterSnapshot, Telemetry};
use cio_vring::cioring::{NotifyMode, NotifyPolicy};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Containers that round-trip between the coordinator and one queue's
/// worker each round: steered inbound frames travel out full, flushed
/// outbox buffers travel out for recycling; the worker returns the
/// drained inbound container and a freshly stamped outbox.
///
/// The scalar fields carry the notification handshake: the coordinator
/// sets `service` (whether to run this lane at all — a cold adaptive
/// queue is skipped without waking anything) and `door` (whether the
/// guest rang since the last pass); the worker reports back `moved` and
/// its residual `backlog`, which feed the coordinator-side
/// [`NotifyGate`] exactly like the serial backend's own bookkeeping.
#[derive(Default)]
struct LaneExchange {
    inbound: Vec<Vec<u8>>,
    outbox: Vec<(Cycles, Vec<u8>)>,
    service: bool,
    door: bool,
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

/// The coordinator side of thread-per-queue host execution. Owned by a
/// `World` built with `parallel(n)`; one `round` replaces the serial
/// ingress + per-queue servicing of the multiqueue schedule.
pub(super) struct ParallelHost {
    steer: CioSteer,
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
    queues: usize,
    /// Notification discipline (carried over from the serial backend at
    /// the split).
    policy: NotifyPolicy,
    /// Per-queue poll-vs-notify controllers — coordinator-side, exactly
    /// mirroring the serial backend's gates so skip decisions match
    /// round for round.
    gates: Vec<NotifyGate>,
    /// Doorbell-word address of each queue's guest->host ring (`None`
    /// unless that ring runs [`NotifyMode::EventIdx`]).
    door_addrs: Vec<Option<GuestAddr>>,
    /// Host view for the coordinator's uncharged door-word reads (the
    /// clear mirrors [`Consumer::take_doorbell`] byte for byte).
    ///
    /// [`Consumer::take_doorbell`]: cio_vring::cioring::Consumer::take_doorbell
    door_view: HostView,
    /// Residual per-queue backlogs reported by the workers last round
    /// (the serial path's `!pending.is_empty()` work hint).
    backlogs: Vec<usize>,
    /// Which queues were serviced this round (skip charging/flushing
    /// for the others).
    serviced: Vec<bool>,
    /// Which threads received a command this round (a thread whose
    /// queues all skipped is never woken — the suppressed doorbell
    /// saves a real Condvar wakeup, not just a virtual cycle charge).
    dispatched: Vec<bool>,
}

impl ParallelHost {
    /// Splits `backend` and spawns `threads` persistent worker threads;
    /// thread `t` owns queues `t`, `t + threads`, ... Each queue gets a
    /// private lane clock, a telemetry fork bound to it, and a host view
    /// of the shared (lock-striped) guest memory charging that clock.
    pub(super) fn new(
        backend: CioNetBackend,
        threads: usize,
        mem: &GuestMemory,
        telemetry: &Telemetry,
    ) -> Result<Self, CioError> {
        let mut lane_clocks = Vec::new();
        let mut forks = Vec::new();
        let policy = backend.notify_policy();
        let (steer, workers) = backend.split_parallel(|_q| {
            let clock = Clock::new();
            let fork = telemetry.fork(clock.clone());
            lane_clocks.push(clock.clone());
            forks.push(fork.clone());
            WorkerCtx {
                clock: clock.clone(),
                telemetry: fork,
                view: mem.with_clock(clock).host(),
            }
        });
        let queues = workers.len();
        let queue_meters: Vec<Meter> = workers.iter().map(CioQueueWorker::meter_handle).collect();
        let door_addrs: Vec<Option<GuestAddr>> = workers
            .iter()
            .map(|w| {
                let ring = w.tx_ring();
                (ring.config().notify == NotifyMode::EventIdx).then(|| ring.door_addr())
            })
            .collect();
        if threads == 0 || queues % threads != 0 {
            return Err(CioError::Fatal(
                "parallel worker count must be non-zero and divide the queue count",
            ));
        }
        // Shard workers: thread t owns queues t, t + threads, ...
        let mut sharded: Vec<Vec<CioQueueWorker>> = (0..threads).map(|_| Vec::new()).collect();
        for w in workers {
            sharded[w.queue() % threads].push(w);
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
                .map_err(|_| CioError::Fatal("could not spawn a host worker thread"))?;
            handles.push(WorkerThread {
                mailbox,
                join: Some(join),
            });
            exchanges.push(Some((0..owned).map(|_| LaneExchange::default()).collect()));
        }
        Ok(ParallelHost {
            steer,
            threads: handles,
            lane_clocks,
            forks,
            queue_meters,
            staged: (0..queues).map(|_| Vec::new()).collect(),
            starts: vec![Cycles::ZERO; queues],
            exchanges,
            queues,
            policy,
            gates: (0..queues).map(|_| NotifyGate::new()).collect(),
            door_addrs,
            door_view: mem.host(),
            backlogs: vec![0; queues],
            serviced: vec![true; queues],
            dispatched: vec![true; threads],
        })
    }

    /// Worker thread count.
    pub(super) fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Total empty service passes burned by the adaptive controllers
    /// while hot (the idle-spin audit trail E23 gates on).
    pub(super) fn idle_passes(&self) -> u64 {
        self.gates.iter().map(NotifyGate::idle_passes).sum()
    }

    /// Snapshot of every queue's traffic meter, index = queue id.
    pub(super) fn queue_meters(&self) -> Vec<MeterSnapshot> {
        self.queue_meters.iter().map(Meter::snapshot).collect()
    }

    /// One parallel host round, equivalent to the serial multiqueue
    /// schedule's `ingress` + per-queue `service_queue` sweep: steer
    /// inbound frames, dispatch every queue to its worker thread, then —
    /// in ascending queue order — fold lane time, flush stamped
    /// transmissions, and absorb telemetry.
    ///
    /// # Errors
    ///
    /// [`CioError::Fatal`] if a worker thread died. Per-queue transport
    /// errors are ignored exactly like the serial multiqueue schedule
    /// (a wedged ring surfaces on the meter; the world keeps stepping).
    pub(super) fn round(
        &mut self,
        lanes: &mut Lanes,
        telemetry: &Telemetry,
        clock: &Clock,
    ) -> Result<usize, CioError> {
        self.steer.drain_into(&mut self.staged);
        let base = clock.now();
        let nthreads = self.threads.len();
        for t in 0..nthreads {
            let mut set = self.exchanges[t].take().expect("no round in flight");
            let mut any = false;
            for (i, ex) in set.iter_mut().enumerate() {
                let q = t + i * nthreads;
                // Door check: read + clear the guest->host doorbell word
                // exactly like the serial backend's `take_doorbell`
                // (uncharged; an unreadable header fails toward service).
                let door = match self.door_addrs[q] {
                    Some(addr) => {
                        let rang = self.door_view.read_u32(addr).unwrap_or(1) != 0;
                        if rang {
                            let _ = self.door_view.write_u32(addr, 0);
                        }
                        rang
                    }
                    None => false,
                };
                let adaptive =
                    self.policy == NotifyPolicy::Adaptive && self.door_addrs[q].is_some();
                let work = !self.staged[q].is_empty() || self.backlogs[q] > 0;
                let service = !adaptive || self.gates[q].should_service(door, work);
                if !service {
                    self.gates[q].observe_skip();
                }
                ex.door = door;
                ex.service = service;
                self.serviced[q] = service;
                if service {
                    any = true;
                    std::mem::swap(&mut ex.inbound, &mut self.staged[q]);
                    let start = base.saturating_add(lanes.pending(q));
                    self.lane_clocks[q].reposition(start);
                    self.starts[q] = start;
                }
            }
            self.dispatched[t] = any;
            if any {
                let mb = &self.threads[t].mailbox;
                *lock_slot(&mb.cmd) = Some(Cmd::Service(set));
                mb.cmd_ready.notify_one();
            } else {
                // Every queue on this thread skipped: the suppressed
                // doorbell saves a real Condvar wakeup, not just a
                // virtual cycle charge.
                self.exchanges[t] = Some(set);
            }
        }
        let mut moved = 0;
        for t in 0..nthreads {
            if !self.dispatched[t] {
                continue;
            }
            let done = wait_done(&self.threads[t])?;
            moved += done.moved;
            self.exchanges[t] = Some(done.lanes);
        }
        for q in 0..self.queues {
            if !self.serviced[q] {
                continue;
            }
            let (t, i) = (q % nthreads, q / nthreads);
            lanes.charge(q, self.lane_clocks[q].now().saturating_sub(self.starts[q]));
            let set = self.exchanges[t].as_mut().expect("round joined");
            for (at, frame) in &set[i].outbox {
                // Transmit errors are the guest's own fault (oversized
                // frame) and non-fatal, as in the serial schedule.
                let _ = self.steer.port_mut().transmit_at(frame, *at);
            }
            telemetry.absorb(&self.forks[q]);
            self.backlogs[q] = set[i].backlog;
            if self.policy == NotifyPolicy::Adaptive && self.door_addrs[q].is_some() {
                self.gates[q].observe(set[i].moved);
            }
        }
        Ok(moved)
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
fn wait_done(t: &WorkerThread) -> Result<Done, CioError> {
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
            return Err(CioError::Fatal("a parallel host worker thread died"));
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
                    if !ex.service {
                        // Cold adaptive lane: untouched (its flushed
                        // outbox is recycled on the next serviced pass).
                        continue;
                    }
                    w.recycle_outbox(std::mem::take(&mut ex.outbox));
                    w.enqueue(&mut ex.inbound);
                    // Errors are ignored exactly like the serial
                    // multiqueue sweep: a wedged ring surfaces on the
                    // meter and the round completes.
                    ex.moved = w.service(ex.door).unwrap_or(0);
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
