//! The round: the one schedule [`World::step`] runs for every design,
//! queue count and host.
//!
//! per-queue guest poll on its lane → one host round → peer → per-session
//! flush on the session's lane → lane barrier → idle quantum.
//!
//! Each queue is one virtual core on both sides of the boundary: guest
//! poll, host servicing and session flushing for queue `q` accumulate on
//! lane `q` of the world's [`Lanes`](cio_sim::Lanes), and the barrier
//! advances the shared clock by the busiest lane — the wall clock of `n`
//! cores finishing the round in parallel. A one-queue world is the same
//! code at one lane, where a lane *is* the shared clock (see
//! [`cio_sim::Lanes`]): there is no serial twin of this function. Which
//! host runs the middle step — none, virtio, cio, or cio on worker
//! threads — is the [`Backend`](cio_host::Backend)'s business, error
//! policy included.

use super::guest::{Call, Crossing};
use super::{PeerNode, World};
use crate::CioError;
use cio_netstack::NetDevice;
use cio_sim::{Cycles, Stage};

/// Minimum virtual-time progress per [`World::step`]: a round in which
/// nothing charged the clock idles for this long.
const STEP_QUANTUM: Cycles = Cycles(5_000);

impl World {
    /// Advances the whole world one scheduling round (see the
    /// module docs of `world/round.rs` for the schedule).
    ///
    /// # Errors
    ///
    /// Propagates fatal transport errors (adversarial corruption surfaces
    /// as detected violations, not errors, unless the design cannot
    /// contain it).
    pub fn step(&mut self) -> Result<(), CioError> {
        let result = self.round();
        // Session housekeeping runs every round: fully-drained sockets
        // release their slots, and the per-shard session gauges publish
        // (a no-op on a disabled telemetry handle).
        self.release_drained();
        self.telemetry.publish_sessions(
            self.conns.shard_live(),
            self.conns.shard_peak(),
            self.conns.created(),
            self.conns.reclaimed(),
            self.conns.capacity() as u64,
        );
        // The SLO watchdog consumes the telemetry RTT histograms
        // incrementally; it runs after the host round absorbed its lanes,
        // so every host sees identical cumulative bucket states.
        if let Some(w) = &mut self.watchdog {
            w.pump(&self.telemetry, &self.meter, self.clock.now());
        }
        result
    }

    fn round(&mut self) -> Result<(), CioError> {
        let t0 = self.clock.now();
        for q in 0..self.opts.queues {
            let base = self.lanes.begin(q);
            // The span lives strictly inside the lane region, where the
            // clock is positioned at this lane's local frontier.
            let polled = {
                let _poll = self.telemetry.span(q, Stage::GuestPoll);
                // Driving the stack is no socket call: in the TEE it is the
                // guest's own poll loop, on L5 the host's housekeeping.
                let iface = &mut self.guest.iface;
                iface.device_mut().select_rx_queue(Some(q));
                let r = ring_full_is_backpressure(iface.poll());
                iface.device_mut().select_rx_queue(None);
                r
            };
            self.lanes.end(q, base);
            polled?;
        }
        // Fabric ingress, steering and per-queue servicing, each queue on
        // its lane. Peer servicing charges no guest cycles (the fabric
        // models latency by timestamp), so it runs un-laned.
        self.backend.round(&mut self.lanes)?;
        {
            let _peer = self.telemetry.span(0, Stage::Peer);
            self.poll_peer();
        }
        // Sweep live sessions in deterministic (shard, slot) order through
        // a reusable id buffer — a quarantine mid-sweep removes the
        // session, and later ids simply skip the vacated slot. A session's
        // lane is its shard, read off the handle: no lookup.
        let mut ids = std::mem::take(&mut self.flush_ids);
        ids.clear();
        self.conns.collect_ids(&mut ids);
        let mut result = Ok(());
        for &id in &ids {
            let lane = self.conns.shard_of(id);
            let base = self.lanes.begin(lane);
            let flushed = self.flush_conn(id);
            self.lanes.end(lane, base);
            if let Err(e) = flushed {
                result = Err(e);
                break;
            }
        }
        self.flush_ids = ids;
        result?;
        self.lanes.sync();
        if self.clock.now() == t0 {
            self.clock.advance(STEP_QUANTUM);
            self.telemetry.attribute(0, Stage::Idle, STEP_QUANTUM);
        }
        Ok(())
    }

    /// Releases the netstack slot (and ephemeral port) of every closed
    /// session whose TCP connection has fully drained; handles that have
    /// not quiesced yet stay queued for later rounds. For the in-TEE
    /// stacks release is local socket bookkeeping (nothing crossed,
    /// nothing charged); where the stack is host software even this
    /// freeing call — every attempt of it — is an observable world
    /// switch, one more `close` to the host.
    fn release_drained(&mut self) {
        let mut i = 0;
        while i < self.draining.len() {
            let h = self.draining[i];
            let released = match self.guest.crossing {
                Crossing::None | Crossing::Compartment(_) => {
                    self.guest.iface.tcp_release(h).is_ok()
                }
                Crossing::Host(_) => self
                    .cross(Call::Close, 0, |iface| iface.tcp_release(h))
                    .is_ok(),
            };
            if released {
                self.draining.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn poll_peer(&mut self) {
        match &mut self.peer {
            PeerNode::Direct(p) => p.poll(),
            PeerNode::Tunnel { gw_port, gw, peer } => {
                while let Some(blob) = gw_port.receive() {
                    gw.ingress(&blob);
                }
                gw.egress_each(|blob| {
                    let _ = gw_port.transmit(blob);
                });
                peer.poll();
            }
        }
    }

    /// Runs `n` steps.
    ///
    /// # Errors
    ///
    /// As [`World::step`].
    pub fn run(&mut self, n: usize) -> Result<(), CioError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }
}

/// A device ring that fills while the guest stack flushes is
/// backpressure, not a fault: the segments stay in TCP's retransmission
/// queue, the host drains the ring later in the same step, and the world
/// keeps stepping.
fn ring_full_is_backpressure(
    polled: Result<usize, cio_netstack::NetError>,
) -> Result<usize, cio_netstack::NetError> {
    match polled {
        Err(cio_netstack::NetError::DeviceFull) => Ok(0),
        other => other,
    }
}
