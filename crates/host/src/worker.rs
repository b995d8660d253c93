//! Thread-per-queue host workers.
//!
//! A [`CioQueueWorker`] owns one cio queue end-to-end: the host-side ring
//! endpoints (rebound onto a view that charges the worker's private lane
//! clock), the queue's pending backlog, per-queue meter, a
//! telemetry fork, and a deferred-transmit outbox. Everything it needs on
//! the hot path is thread-private or striped per queue, so two workers
//! never contend: guest memory is lock-striped with ring arenas on
//! distinct stripes, the global [`cio_sim::Meter`] is atomic adds, and
//! the fabric is never touched from a worker at all.
//!
//! The servicing routine is [`service_cio_lane`] — the *same* function
//! the serial [`CioNetBackend`](crate::backend::CioNetBackend) runs — so
//! the parallel path cannot drift from the deterministic serial oracle.
//! The only difference is the [`FrameSink`]: instead of transmitting on
//! the fabric (whose shared loss PRNG would make draw order depend on
//! thread scheduling), a worker stamps each outbound frame with its lane
//! clock and parks it in the outbox; the coordinator flushes outboxes in
//! ascending queue order with [`FabricPort::transmit_at`], reproducing
//! the serial order and timestamps exactly.
//!
//! [`FabricPort::transmit_at`]: crate::fabric::FabricPort::transmit_at

use crate::backend::{enqueue_capped, service_cio_lane, CioLaneCtx, FrameSink, HostQueue};
use crate::mq::QueueLane;
use crate::observe::Recorder;
use crate::HostError;
use cio_sim::{Clock, Cycles, Telemetry};
use cio_vring::cioring::BatchPolicy;

/// Deferred sink: outbound frames are stamped with the lane clock and
/// buffered for the coordinator to flush in queue order.
struct OutboxSink<'a> {
    outbox: &'a mut Vec<(Cycles, Vec<u8>)>,
    outpool: &'a mut Vec<Vec<u8>>,
}

impl FrameSink for OutboxSink<'_> {
    fn send(&mut self, now: Cycles, frame: &[u8]) {
        let mut buf = self.outpool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.outbox.push((now, buf));
    }
}

/// One queue of a split [`CioNetBackend`](crate::backend::CioNetBackend),
/// packaged to run on its own OS thread.
///
/// Built by [`ParallelHost::new`](crate::parallel::ParallelHost::new).
/// Per round, the worker loop: finds the worker's lane clock
/// repositioned at the lane frontier, [`enqueue`](Self::enqueue)s the
/// frames the coordinator steered to this queue, calls
/// [`service`](Self::service), and afterwards hands over
/// [`take_outbox`](Self::take_outbox) (getting the flushed container
/// back via [`recycle_outbox`](Self::recycle_outbox) so steady state
/// allocates nothing).
pub(crate) struct CioQueueWorker {
    q: usize,
    lane: QueueLane<HostQueue>,
    batch: BatchPolicy,
    fbits: u32,
    recorder: Recorder,
    clock: Clock,
    telemetry: Telemetry,
    outbox: Vec<(Cycles, Vec<u8>)>,
    outpool: Vec<Vec<u8>>,
}

impl CioQueueWorker {
    pub(crate) fn new(
        q: usize,
        lane: QueueLane<HostQueue>,
        batch: BatchPolicy,
        fbits: u32,
        recorder: Recorder,
        clock: Clock,
        telemetry: Telemetry,
    ) -> Self {
        CioQueueWorker {
            q,
            lane,
            batch,
            fbits,
            recorder,
            clock,
            telemetry,
            outbox: Vec::new(),
            outpool: Vec::new(),
        }
    }

    /// Accepts the frames the coordinator steered to this queue under
    /// the one tail-drop rule ([`enqueue_capped`]): the worker sees the
    /// queue's true backlog, so drop decisions match the serial schedule
    /// exactly. The input vector is drained but keeps its capacity.
    pub(crate) fn enqueue(&mut self, frames: &mut Vec<Vec<u8>>) {
        for frame in frames.drain(..) {
            enqueue_capped(&mut self.lane.end.pending, frame);
        }
    }

    /// Frames still pending delivery to the guest (the coordinator's
    /// work hint for the admission decision).
    pub(crate) fn backlog(&self) -> usize {
        self.lane.end.pending.len()
    }

    /// Services this queue once (guest->net drain into the outbox,
    /// net->guest delivery of the pending backlog), charging all virtual
    /// time to the worker's lane clock. `door` reports whether the
    /// coordinator observed (and cleared) the guest's doorbell for this
    /// queue since the last pass — event-idx spurious-wakeup accounting.
    ///
    /// # Errors
    ///
    /// Transport errors a malicious guest can provoke on its own queue
    /// (the worker loop swallows them exactly like the serial round).
    pub(crate) fn service(&mut self, door: bool) -> Result<usize, HostError> {
        let ctx = CioLaneCtx {
            batch: self.batch,
            fbits: self.fbits,
            recorder: &self.recorder,
            clock: &self.clock,
            telemetry: &self.telemetry,
            door,
        };
        let mut sink = OutboxSink {
            outbox: &mut self.outbox,
            outpool: &mut self.outpool,
        };
        service_cio_lane(&mut self.lane, self.q, &ctx, &mut sink)
    }

    /// Takes the stamped outbound frames accumulated by
    /// [`service`](Self::service), leaving an empty outbox behind.
    pub(crate) fn take_outbox(&mut self) -> Vec<(Cycles, Vec<u8>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Returns a flushed outbox container so its frame buffers (and the
    /// container itself) are reused next round.
    pub(crate) fn recycle_outbox(&mut self, mut flushed: Vec<(Cycles, Vec<u8>)>) {
        for (_, buf) in flushed.drain(..) {
            self.outpool.push(buf);
        }
        if self.outbox.capacity() < flushed.capacity() {
            self.outbox = flushed;
        }
    }
}

// Compile-time audit: a worker (rings, pools, recorder handle, clock,
// telemetry fork) must be movable to its OS thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CioQueueWorker>();
};
