//! The round: the one schedule [`World::step`] runs for every design,
//! queue count and host.
//!
//! per-queue guest poll on its lane → one host round → peer → per-session
//! flush on the session's lane → lane barrier → idle.
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
//!
//! **Idle.** A round in which nothing moved — neither stack received or
//! sent a frame, the host moved none, no session flushed or received a
//! byte — has nothing left to do before the fabric delivers its next
//! frame, so it ends there: the clock jumps to [`Fabric::next_due`], but
//! never more than [`STEP_QUANTUM`] past the round's start. The cap is
//! what the clock alone drives (TCP retransmission and TIME-WAIT, the
//! adaptive batch's latency cap): those fire at most one quantum late.
//! The verdict is built from counts the stages return; the jump is
//! booked to [`Stage::Idle`].
//!
//! [`Fabric::next_due`]: cio_host::fabric::Fabric::next_due

use super::guest::{Call, Crossing};
use super::{PeerNode, World};
use crate::CioError;
use cio_netstack::NetDevice;
use cio_sim::{Cycles, Stage};

/// The longest a round that moved nothing idles: its end is the fabric's
/// next delivery or this long after the round began, whichever is first.
pub(super) const STEP_QUANTUM: Cycles = Cycles(5_000);

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
        result
    }

    fn round(&mut self) -> Result<(), CioError> {
        let t0 = self.clock.now();
        let sent_before = self.guest.iface.frames_sent();
        // Frames either stack received or sent and the host moved, bytes
        // the sessions flushed or received: zero means nothing moved.
        let mut moved = 0;
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
            moved += polled?;
        }
        // Fabric ingress, steering and per-queue servicing, each queue on
        // its lane. Peer servicing charges no guest cycles (the fabric
        // models latency by timestamp), so it runs un-laned.
        moved += self.backend.round(&mut self.lanes)?;
        {
            let _peer = self.telemetry.span(0, Stage::Peer);
            moved += self.poll_peer();
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
            match flushed {
                Ok(bytes) => moved += bytes,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.flush_ids = ids;
        result?;
        self.lanes.sync();
        moved += (self.guest.iface.frames_sent() - sent_before) as usize;
        if moved == 0 {
            self.idle_until_due(t0);
        }
        Ok(())
    }

    /// Ends a round that moved nothing at the fabric's next delivery,
    /// capped at one [`STEP_QUANTUM`] past the round's start `t0` (see the
    /// module docs). A round that already charged past that point idles
    /// not at all. The wait is every lane's, so it goes on the shared
    /// clock, after the barrier.
    fn idle_until_due(&mut self, t0: Cycles) {
        let cap = t0.saturating_add(STEP_QUANTUM);
        let end = self.fabric.next_due().map_or(cap, |due| due.min(cap));
        let idle = end.saturating_sub(self.clock.now());
        if idle > Cycles::ZERO {
            self.clock.advance(idle);
            self.telemetry.attribute(0, Stage::Idle, idle);
        }
    }

    /// Releases the netstack slot (and ephemeral port) of every closed
    /// session whose TCP connection has fully drained; handles that have
    /// not quiesced yet stay queued for later rounds. For the in-TEE
    /// stacks release is local socket bookkeeping (nothing crossed,
    /// nothing charged); where the stack is host software even this
    /// freeing call — every attempt of it — is an observable world
    /// switch, one more `close` to the host. That crossing charges the
    /// shared clock outside any lane region, which is exact: a host
    /// crossing means the one-queue L5 design, and one lane is the clock.
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

    /// Drives the peer (through its gateway, when tunneled); returns the
    /// frames moved on the peer's side of the fabric.
    fn poll_peer(&mut self) -> usize {
        match &mut self.peer {
            PeerNode::Direct(p) => p.poll(),
            PeerNode::Tunnel { gw_port, gw, peer } => {
                let (mut moved, mut blob) = (0, Vec::new());
                while gw_port.receive(&mut blob) {
                    gw.ingress(&blob);
                    moved += 1;
                }
                gw.egress_each(|blob| {
                    let _ = gw_port.transmit(blob);
                    moved += 1;
                });
                moved + peer.poll()
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
