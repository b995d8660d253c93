//! Connection glue: the application API ([`World::connect`] /
//! [`World::send`] / the `recv` family / [`World::close`]) over the
//! session table, and the per-session stream pump the round's flush sweep
//! runs. Every socket call goes through `World::cross` (see `guest`),
//! which is where a design's crossing is charged and observed.
//!
//! A session's lane is its RSS queue, fixed at connect; everything done
//! on a session's behalf runs on that lane, at every queue count — one
//! lane being the shared clock (see [`cio_sim::Lanes`]).

use super::guest::{Call, Crossing};
use super::speer::{FeedResult, SecureStream};
use super::{sid_bits, ConnState, World, GUEST_IP, PEER_IP, SEND_HIGH_WATER};
use crate::session::{SessionError, SessionId, SessionScratch};
use crate::{CioError, Transient};
use cio_ctls::SimHooks;
use cio_netstack::rss;
use cio_netstack::stack::SocketHandle;
use cio_sim::{EventKind, Stage};

impl World {
    fn raw_send(&mut self, handle: SocketHandle, bytes: &[u8]) -> Result<(), CioError> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.cross(Call::Send, bytes.len(), |iface| {
            iface.tcp_send(handle, bytes)
        })
    }

    // ---------- Application API ----------

    /// Opens a session to the peer service on `port` ([`ECHO_PORT`](super::ECHO_PORT)
    /// or [`RPC_PORT`](super::RPC_PORT)). With `app_tls` the cTLS handshake starts as soon as
    /// TCP establishes; use [`World::establish`] to drive it.
    ///
    /// The returned [`SessionId`] is generational: it stays valid until
    /// [`World::close`] (or a fail-closed quarantine) reclaims the slot,
    /// after which every use returns [`CioError::Session`] — a reissued
    /// slot is unreachable through a stale handle.
    ///
    /// # Errors
    ///
    /// Stack/transport errors.
    pub fn connect(&mut self, port: u16) -> Result<SessionId, CioError> {
        let handle = self.cross(Call::Connect, 0, |iface| iface.tcp_connect(PEER_IP, port))?;
        let (outbox, stream) = if self.opts.app_tls {
            let mut entropy = [0u8; 64];
            self.rng.fill_bytes(&mut entropy);
            let hooks = SimHooks {
                clock: self.clock.clone(),
                cost: self.opts.cost.clone(),
                meter: self.meter.clone(),
                telemetry: self.telemetry.clone(),
            };
            let (hello, mut stream) = SecureStream::client(entropy, Some(hooks));
            stream.set_batch_policy(self.opts.batch);
            stream.set_rekey_interval(self.opts.rekey_interval);
            (hello, stream)
        } else {
            let mut stream = SecureStream::plain();
            stream.set_batch_policy(self.opts.batch);
            (Vec::new(), stream)
        };
        // The connection's lane is its RSS queue: the same symmetric hash
        // the device and backend steer with, so all of this flow's work
        // lands on one virtual core (lane 0 when there is one queue — the
        // mask is zero — which is every design but the cio-ring pair).
        let local_port = self.guest.iface.tcp_local_port(handle)?;
        let hash = rss::flow_hash((GUEST_IP, local_port), (PEER_IP, port));
        let lane = (hash as usize) & (self.opts.queues - 1);
        // The session's shard is its lane: insert issues the generational
        // handle and the lane is recoverable from the handle's low bits.
        let id = self.conns.insert(
            lane,
            ConnState {
                handle,
                stream,
                outbox,
                app_in: Vec::new(),
                feed_scratch: FeedResult::default(),
                lane,
                epoch_seen: 0,
            },
        );
        self.meter.sessions_opened(1);
        self.telemetry
            .record(lane, EventKind::SessionOpen, sid_bits(id), 0);
        Ok(id)
    }

    fn conn_mut(&mut self, c: SessionId) -> Result<&mut ConnState, CioError> {
        Ok(self.conns.get_mut(c)?)
    }

    /// Fail-closed per-session teardown: a hostile or corrupt record on
    /// one stream kills *that session* — the slot is reclaimed, the TCP
    /// connection begins draining, and the failure is metered — while
    /// every other session on the shard keeps running. The stale handle
    /// then answers [`SessionError::Closed`] instead of touching a
    /// reissued slot.
    fn quarantine(&mut self, id: SessionId) {
        if let Ok(conn) = self.conns.remove(id) {
            let _ = self.cross(Call::Close, 0, |iface| iface.tcp_close(conn.handle));
            self.draining.push(conn.handle);
            self.meter.session_failures(1);
            self.telemetry
                .record(conn.lane, EventKind::SessionQuarantine, sid_bits(id), 0);
        }
    }

    /// Pumps received bytes through one session's stream and flushes its
    /// pending protocol bytes; returns how many bytes it flushed and
    /// received (zero: the session was idle). A stream-layer failure (bad
    /// tag, broken handshake) quarantines the session instead of failing
    /// the world's step: per-session fail-closed, not fail-everything.
    pub(super) fn flush_conn(&mut self, id: SessionId) -> Result<usize, CioError> {
        let Ok(conn) = self.conns.get(id) else {
            return Ok(0); // closed earlier in this same round
        };
        let (lane, handle) = (conn.lane, conn.handle);
        let has_outbox = !conn.outbox.is_empty();
        let _flush = self.telemetry.span(lane, Stage::AppFlush);
        let mut flushed = 0;
        // Only push protocol bytes once TCP is up.
        if has_outbox && self.cross(Call::Poll, 0, |iface| iface.tcp_established(handle))? {
            let mut out = match self.conns.get_mut(id) {
                Ok(conn) => std::mem::take(&mut conn.outbox),
                Err(_) => return Ok(0),
            };
            self.raw_send(handle, &out)?;
            flushed = out.len();
            // Hand the drained buffer back so steady-state flushing
            // reuses its capacity instead of reallocating every round.
            out.clear();
            if let Ok(conn) = self.conns.get_mut(id) {
                conn.outbox = out;
            }
        }
        // Read into the world's reusable scratch (taken for the duration
        // so the borrow checker sees a local): a steady-state flush
        // allocates nothing per connection.
        let mut data = std::mem::take(&mut self.recv_scratch);
        data.clear();
        let received = self.cross(Call::Recv, 0, |iface| {
            iface.tcp_recv_into(handle, &mut data)
        });
        if received.is_ok() && !data.is_empty() {
            self.feed_conn(id, lane, &data);
        }
        self.recv_scratch = data;
        Ok(flushed + received?)
    }

    /// Feeds bytes received on `id` through its stream, quarantining the
    /// session if the stream rejects them.
    fn feed_conn(&mut self, id: SessionId, lane: usize, data: &[u8]) {
        let healthy = {
            let Ok(conn) = self.conns.get_mut(id) else {
                return;
            };
            let was_handshaking = conn.stream.is_handshaking();
            let _open = self.telemetry.span(lane, Stage::RxOpen);
            match conn.stream.feed_into(data, &mut conn.feed_scratch) {
                Ok(()) => {
                    if was_handshaking && conn.stream.is_open() {
                        self.telemetry
                            .record(lane, EventKind::HandshakeOk, sid_bits(id), 0);
                    }
                    if !conn.feed_scratch.app_data.is_empty() {
                        self.telemetry.record(
                            lane,
                            EventKind::OpenOk,
                            conn.feed_scratch.app_data.len() as u64,
                            0,
                        );
                    }
                    if let Some(ep) = conn.stream.tx_epoch() {
                        if ep > conn.epoch_seen {
                            conn.epoch_seen = ep;
                            self.telemetry
                                .record(lane, EventKind::SessionRekey, sid_bits(id), ep);
                        }
                    }
                    conn.app_in.extend_from_slice(&conn.feed_scratch.app_data);
                    conn.outbox.extend_from_slice(&conn.feed_scratch.to_send);
                    true
                }
                Err(_) => {
                    // A broken handshake and a bad record on an open
                    // stream are different forensic facts, so they are
                    // different event kinds.
                    let kind = if was_handshaking {
                        EventKind::HandshakeFail
                    } else {
                        EventKind::OpenFail
                    };
                    self.telemetry.record(lane, kind, sid_bits(id), 0);
                    false
                }
            }
        };
        if !healthy {
            self.quarantine(id);
        }
    }

    /// Drives the world until the session is fully established (TCP +
    /// cTLS when enabled).
    ///
    /// # Errors
    ///
    /// [`CioError::Timeout`] after `max_steps`;
    /// [`CioError::Session`]`(`[`SessionError::Closed`]`)` if a hostile
    /// host poisoned the handshake and the session was quarantined
    /// mid-establishment (fail closed, never half-open).
    pub fn establish(&mut self, c: SessionId, max_steps: usize) -> Result<(), CioError> {
        for _ in 0..max_steps {
            self.step()?;
            let handle = self.conns.get(c)?.handle;
            let tcp_up = self.cross(Call::Poll, 0, |iface| iface.tcp_established(handle))?;
            let s = self.conns.get(c)?;
            if tcp_up && s.stream.is_open() && s.outbox.is_empty() {
                return Ok(());
            }
        }
        Err(CioError::Timeout("connection establishment"))
    }

    /// Sends application data (sealed when cTLS is on); returns the bytes
    /// accepted.
    ///
    /// Backpressure is *not* a fault: when the connection's unsent backlog
    /// is over the high-water mark the call returns
    /// [`CioError::Transient`]`(`[`Transient::WouldBlock`]`)` with nothing
    /// consumed — step the world and retry. A device ring that fills
    /// mid-write is not even that: TCP already holds the sealed record and
    /// flushes it on later steps, so the call reports the bytes as
    /// accepted (retrying would duplicate them) and only the
    /// `backpressure_again` meter and a `Backpressure` timeline event show
    /// it happened. The §3.2 "errors are fatal" principle is reserved for
    /// host-facing interface faults.
    ///
    /// # Errors
    ///
    /// [`CioError::Transient`]`(`[`Transient::WouldBlock`]`)` for
    /// backpressure;
    /// [`CioError::Session`]`(`[`SessionError::Handshaking`]`)` before
    /// the handshake completes; stale handles return the other
    /// [`SessionError`] variants; stream/transport errors otherwise.
    pub fn send(&mut self, c: SessionId, data: &[u8]) -> Result<usize, CioError> {
        // One O(1) flow-table lookup opens every send: counted by the
        // table itself and charged at the cost model's `flow_lookup` on the
        // session's lane, where everything else done for it runs.
        let s = self.conns.get_mut(c)?;
        let (handle, lane) = (s.handle, s.lane);
        self.lanes.charge(lane, self.opts.cost.flow_lookup);
        if s.stream.is_handshaking() {
            return Err(CioError::Session(SessionError::Handshaking));
        }
        // The backlog probe is the app reading its own socket bookkeeping
        // — no boundary is crossed, so nothing is charged; where the stack
        // is host software there is no such bookkeeping to read.
        let backlog = match self.guest.crossing {
            Crossing::None | Crossing::Compartment(_) => {
                self.guest.iface.tcp_send_backlog(handle)?
            }
            Crossing::Host(_) => 0,
        };
        if backlog > SEND_HIGH_WATER {
            self.meter.backpressure_wouldblock(1);
            self.telemetry
                .record(lane, EventKind::Backpressure, 0, backlog as u64);
            return Err(CioError::Transient(Transient::WouldBlock));
        }
        let base = self.lanes.begin(lane);
        // Seal into the world's reusable scratch (taken for the duration
        // so the borrow checker sees a local) — steady-state sends
        // allocate nothing.
        let mut scratch = std::mem::take(&mut self.seal_scratch);
        let result = {
            // Span scoped inside the lane window (clock is lane-local).
            let _send = self.telemetry.span(lane, Stage::GuestSend);
            let result = (|| {
                {
                    let _seal = self.telemetry.span(lane, Stage::TxSeal);
                    self.conn_mut(c)?.stream.seal_into(data, &mut scratch)?;
                }
                self.raw_send(handle, scratch.as_slice())
            })();
            result
        };
        self.seal_scratch = scratch;
        self.lanes.end(lane, base);
        match result {
            Ok(()) => {
                self.telemetry
                    .record(lane, EventKind::SealOk, data.len() as u64, 1);
                Ok(data.len())
            }
            // A saturated device queue is backpressure, but the record is
            // accepted: TCP keeps it buffered and flushing resumes on
            // later steps.
            Err(CioError::Net(cio_netstack::NetError::DeviceFull)) => {
                self.meter.backpressure_again(1);
                self.telemetry
                    .record(lane, EventKind::Backpressure, 1, backlog as u64);
                Ok(data.len())
            }
            Err(e) => {
                self.telemetry
                    .record(lane, EventKind::SealFail, data.len() as u64, 0);
                Err(e)
            }
        }
    }

    /// Appends whatever application bytes have arrived on `c` to
    /// `scratch` without clearing it (the accumulation primitive under
    /// the receive family).
    fn drain_into(&mut self, c: SessionId, scratch: &mut SessionScratch) -> Result<(), CioError> {
        // Data may have arrived during steps; outboxes were pumped there.
        // Like `send`, the receive side opens with one O(1) flow-table
        // lookup, charged on the session's lane.
        let s = self.conns.get_mut(c)?;
        self.lanes.charge(s.lane, self.opts.cost.flow_lookup);
        scratch.buf.extend_from_slice(&s.app_in);
        s.app_in.clear();
        Ok(())
    }

    /// Takes decrypted application bytes received so far into the
    /// caller's reusable scratch (cleared first); returns the byte count.
    ///
    /// This is the hot-path receive: a steady-state consumer holds one
    /// [`SessionScratch`] and neither side of the exchange allocates
    /// after warmup.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles.
    pub fn recv_into(
        &mut self,
        c: SessionId,
        scratch: &mut SessionScratch,
    ) -> Result<usize, CioError> {
        scratch.buf.clear();
        self.drain_into(c, scratch)?;
        Ok(scratch.buf.len())
    }

    /// Takes decrypted application bytes received so far.
    ///
    /// Allocating convenience over [`World::recv_into`]; hot paths should
    /// hold a [`SessionScratch`] and use the `_into` form.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles.
    pub fn recv(&mut self, c: SessionId) -> Result<Vec<u8>, CioError> {
        let mut scratch = SessionScratch::new();
        self.recv_into(c, &mut scratch)?;
        Ok(scratch.buf)
    }

    /// Drives the world until `want` application bytes arrive on `c`,
    /// accumulating into the caller's reusable scratch (cleared first);
    /// returns the byte count.
    ///
    /// # Errors
    ///
    /// [`CioError::Timeout`] after `max_steps`; [`CioError::Session`] if
    /// the session closes (or is quarantined) before `want` bytes arrive.
    pub fn recv_exact_into(
        &mut self,
        c: SessionId,
        want: usize,
        max_steps: usize,
        scratch: &mut SessionScratch,
    ) -> Result<usize, CioError> {
        scratch.buf.clear();
        for _ in 0..max_steps {
            self.drain_into(c, scratch)?;
            if scratch.buf.len() >= want {
                return Ok(scratch.buf.len());
            }
            self.step()?;
        }
        self.drain_into(c, scratch)?;
        if scratch.buf.len() >= want {
            return Ok(scratch.buf.len());
        }
        Err(CioError::Timeout("recv_exact"))
    }

    /// Drives the world until `want` application bytes arrive on `c`.
    ///
    /// Allocating convenience over [`World::recv_exact_into`].
    ///
    /// # Errors
    ///
    /// As [`World::recv_exact_into`].
    pub fn recv_exact(
        &mut self,
        c: SessionId,
        want: usize,
        max_steps: usize,
    ) -> Result<Vec<u8>, CioError> {
        let mut scratch = SessionScratch::new();
        self.recv_exact_into(c, want, max_steps, &mut scratch)?;
        Ok(scratch.buf)
    }

    /// Closes a session: TCP FIN goes out, the stream is dropped, and the
    /// session slot is reclaimed immediately — any copy of the handle is
    /// now stale and answers [`CioError::Session`]. The TCP handle joins
    /// the drain queue and its socket slot is released once the
    /// connection quiesces, so both table and socket memory stay bounded
    /// by peak concurrency under churn.
    ///
    /// # Errors
    ///
    /// [`CioError::Session`] for stale/forged handles; transport errors.
    pub fn close(&mut self, c: SessionId) -> Result<(), CioError> {
        let conn = self.conns.remove(c).map_err(CioError::from)?;
        self.meter.sessions_closed(1);
        self.telemetry
            .record(conn.lane, EventKind::SessionClose, sid_bits(c), 0);
        let closed = self.cross(Call::Close, 0, |iface| iface.tcp_close(conn.handle));
        // A full device ring is backpressure, as for a send: the FIN is
        // queued in TCP and leaves on a later step.
        match closed {
            Ok(()) | Err(CioError::Net(cio_netstack::NetError::DeviceFull)) => {}
            Err(e) => return Err(e),
        }
        self.draining.push(conn.handle);
        Ok(())
    }
}
