//! TCP: connection state machine, retransmission, reassembly, flow control.
//!
//! The implementation covers what the reproduction's experiments exercise:
//! three-way handshake (active and passive), bidirectional data transfer
//! with out-of-order reassembly, cumulative ACKs, peer flow control,
//! retransmission on timeout with bounded retries, RST handling, and the
//! full close choreography (FIN-WAIT-1/2, CLOSE-WAIT, LAST-ACK, CLOSING,
//! TIME-WAIT). Congestion control is a fixed window — the experiments
//! measure interface costs on a lossless or lightly lossy fabric, not WAN
//! dynamics — and options (SACK, timestamps, window scaling) are omitted.
//!
//! A [`Connection`] is sans-io: it consumes parsed segments via
//! [`Connection::on_segment_in_place`], queues segments in an outbox read
//! with [`Connection::peek_outbox`] / [`Connection::pop_outbox`], and is
//! clocked by [`Connection::on_tick`]. The [`crate::stack::Interface`]
//! wires connections to IP/Ethernet.
//!
//! Application bytes live in two rings and nowhere else. The send ring
//! holds unacknowledged then unsent data; in-flight segments, queued
//! segments and retransmissions are `(seq, len)` ranges into it, and a
//! range leaves the ring only when its whole segment is cumulatively
//! acknowledged. The receive ring holds in-order data until the
//! application reads it, and out-of-order data waits in a window-sized
//! reassembly area (see `Reassembly`). In steady state no path allocates.

use crate::wire::{tcp_flags, RingSlices, TcpHeader, TcpSegment};
use crate::NetError;
use cio_sim::{Clock, Cycles};
use std::collections::VecDeque;

/// Wrapping "less than" on sequence numbers.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Wrapping "less than or equal".
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// TCP connection states (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// Passive open, waiting for SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Active close: FIN sent, awaiting ACK.
    FinWait1,
    /// FIN ACKed, awaiting peer FIN.
    FinWait2,
    /// Peer FIN received, app not yet closed.
    CloseWait,
    /// Simultaneous close: both FINs in flight.
    Closing,
    /// Passive close: our FIN sent after CLOSE-WAIT.
    LastAck,
    /// Quiet period after close.
    TimeWait,
}

/// Tuning parameters for a connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment payload size.
    pub mss: usize,
    /// Our receive window / fixed send window cap.
    pub window: u16,
    /// Retransmission timeout.
    pub rto: Cycles,
    /// Retransmissions before the connection aborts.
    pub max_retries: u32,
    /// TIME-WAIT duration.
    pub time_wait: Cycles,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            window: 65_535,
            rto: Cycles(3_000_000), // 1 ms at 3 GHz
            max_retries: 8,
            time_wait: Cycles(6_000_000),
        }
    }
}

/// Sequence space a segment occupies: its payload plus SYN and FIN.
fn seq_len(len: u32, flags: u8) -> u32 {
    len + u32::from(flags & tcp_flags::SYN != 0) + u32::from(flags & tcp_flags::FIN != 0)
}

/// The `len` bytes at `off` of a byte ring.
fn ring_range(ring: &VecDeque<u8>, off: usize, len: usize) -> RingSlices<'_> {
    let (a, b) = ring.as_slices();
    if off >= a.len() {
        (&b[off - a.len()..off - a.len() + len], &[])
    } else if off + len <= a.len() {
        (&a[off..off + len], &[])
    } else {
        (&a[off..], &b[..off + len - a.len()])
    }
}

/// Most disjoint out-of-order byte ranges a connection holds. A segment
/// that would open one more is dropped; the sender retransmits it.
const OOO_RANGES: usize = 8;

/// Out-of-order received bytes, bounded by the receive window whatever
/// the sender forges: an area of the window's size rounded up to a power
/// of two, addressed by sequence number modulo its size (the size divides
/// 2^32, so the mapping survives sequence wrap), and the sorted, merged
/// sequence ranges `[start, end)` it holds — at most [`OOO_RANGES`] of
/// them. Allocated on the connection's first out-of-order segment and
/// never regrown.
#[derive(Default)]
struct Reassembly {
    area: Vec<u8>,
    ranges: Vec<(u32, u32)>,
}

impl Reassembly {
    /// Stores `payload`, which starts at `seq` and ends inside the window
    /// of `window` bytes (the caller trims it), merging its range with any
    /// it overlaps or touches; a segment that would open a range past
    /// [`OOO_RANGES`] is dropped.
    fn insert(&mut self, seq: u32, payload: &[u8], window: usize) {
        if self.area.is_empty() {
            self.area = vec![0; window.next_power_of_two()];
            self.ranges = Vec::with_capacity(OOO_RANGES);
        }
        let end = seq.wrapping_add(payload.len() as u32);
        // Ranges [i, j) overlap or touch the new one: every range before i
        // ends before `seq`, every range from j on starts after `end`.
        let i = self.ranges.partition_point(|&(_, e)| seq_lt(e, seq));
        let j = i + self.ranges[i..].partition_point(|&(s, _)| seq_le(s, end));
        if i == j && self.ranges.len() == OOO_RANGES {
            return;
        }
        let (mut start, mut stop) = (seq, end);
        if i < j {
            if seq_lt(self.ranges[i].0, start) {
                start = self.ranges[i].0;
            }
            if seq_lt(stop, self.ranges[j - 1].1) {
                stop = self.ranges[j - 1].1;
            }
            self.ranges.drain(i..j);
        }
        self.ranges.insert(i, (start, stop));
        let mask = self.area.len() - 1;
        for (k, &b) in payload.iter().enumerate() {
            self.area[(seq as usize + k) & mask] = b;
        }
    }

    /// Moves every byte now contiguous with `rcv_nxt` onto `ring` and
    /// forgets the ranges `rcv_nxt` has passed; returns the new `rcv_nxt`.
    fn drain_to(&mut self, mut rcv_nxt: u32, ring: &mut VecDeque<u8>) -> u32 {
        let passed = self
            .ranges
            .iter()
            .take_while(|&&(start, _)| seq_le(start, rcv_nxt))
            .count();
        let mask = self.area.len().wrapping_sub(1);
        for &(_, end) in &self.ranges[..passed] {
            if seq_lt(rcv_nxt, end) {
                let from = rcv_nxt as usize;
                let len = end.wrapping_sub(rcv_nxt) as usize;
                ring.extend((from..from + len).map(|k| self.area[k & mask]));
                rcv_nxt = end;
            }
        }
        self.ranges.drain(..passed);
        rcv_nxt
    }

    /// Out-of-order bytes held.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.ranges
            .iter()
            .map(|&(s, e)| e.wrapping_sub(s) as usize)
            .sum()
    }
}

/// An in-flight segment awaiting acknowledgement: `len` send-ring bytes
/// from `seq`, not a copy of them.
#[derive(Debug, Clone)]
struct InFlight {
    seq: u32,
    len: u32,
    flags: u8,
    sent_at: Cycles,
    retries: u32,
}

/// A segment queued for the wire: its header, and how many send-ring
/// bytes from `hdr.seq` it carries.
#[derive(Debug, Clone)]
struct Queued {
    hdr: TcpHeader,
    len: u32,
}

/// A sans-io TCP connection.
pub struct Connection {
    state: State,
    local_port: u16,
    remote_port: u16,
    cfg: TcpConfig,
    clock: Clock,

    // Send state.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u16,
    /// Unacknowledged, then unsent, application bytes.
    send_ring: VecDeque<u8>,
    /// Sequence number of the first byte of `send_ring`.
    ring_seq: u32,
    /// Bytes at the tail of `send_ring` not yet cut into segments.
    unsent: usize,
    in_flight: VecDeque<InFlight>,
    fin_queued: bool,

    // Receive state.
    rcv_nxt: u32,
    recv_ring: VecDeque<u8>,
    ooo: Reassembly,
    peer_fin: bool,

    outbox: VecDeque<Queued>,
    time_wait_until: Option<Cycles>,
    error: Option<NetError>,
}

impl Connection {
    fn base(local_port: u16, remote_port: u16, iss: u32, clock: Clock, cfg: TcpConfig) -> Self {
        Connection {
            state: State::Closed,
            local_port,
            remote_port,
            cfg,
            clock,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            send_ring: VecDeque::new(),
            // Data starts after the SYN.
            ring_seq: iss.wrapping_add(1),
            unsent: 0,
            in_flight: VecDeque::new(),
            fin_queued: false,
            rcv_nxt: 0,
            recv_ring: VecDeque::new(),
            ooo: Reassembly::default(),
            peer_fin: false,
            outbox: VecDeque::new(),
            time_wait_until: None,
            error: None,
        }
    }

    /// Active open: emits the SYN.
    pub fn connect(
        local_port: u16,
        remote_port: u16,
        iss: u32,
        clock: Clock,
        cfg: TcpConfig,
    ) -> Self {
        let mut c = Self::base(local_port, remote_port, iss, clock, cfg);
        c.state = State::SynSent;
        c.emit(iss, 0, tcp_flags::SYN, 0, true);
        c.snd_nxt = iss.wrapping_add(1);
        c
    }

    /// Passive open.
    pub fn listen(local_port: u16, iss: u32, clock: Clock, cfg: TcpConfig) -> Self {
        let mut c = Self::base(local_port, 0, iss, clock, cfg);
        c.state = State::Listen;
        c
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// The remote port (0 while listening).
    pub fn remote_port(&self) -> u16 {
        self.remote_port
    }

    /// Terminal error, if the connection aborted.
    pub fn error(&self) -> Option<NetError> {
        self.error
    }

    /// Bytes of application data ready to read.
    pub fn readable(&self) -> usize {
        self.recv_ring.len()
    }

    /// Bytes queued by [`send`](Self::send) but not yet emitted as
    /// segments (the unsent backlog; excludes in-flight data).
    pub fn send_backlog(&self) -> usize {
        self.unsent
    }

    /// Whether the peer closed its direction and all data was drained.
    pub fn peer_closed(&self) -> bool {
        self.peer_fin && self.recv_ring.is_empty() && self.ooo.ranges.is_empty()
    }

    fn recv_window(&self) -> u16 {
        let used = self.recv_ring.len().min(usize::from(self.cfg.window));
        self.cfg.window - used as u16
    }

    /// Queues a segment carrying `len` send-ring bytes from `seq`; `track`
    /// also records it as in flight (anything that occupies sequence space).
    fn emit(&mut self, seq: u32, ack: u32, flags: u8, len: u32, track: bool) {
        let hdr = TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack,
            flags,
            window: self.recv_window(),
        };
        self.outbox.push_back(Queued { hdr, len });
        if track {
            self.in_flight.push_back(InFlight {
                seq,
                len,
                flags,
                sent_at: self.clock.now(),
                retries: 0,
            });
        }
    }

    fn emit_ack(&mut self) {
        let (snd_nxt, rcv_nxt) = (self.snd_nxt, self.rcv_nxt);
        self.emit(snd_nxt, rcv_nxt, tcp_flags::ACK, 0, false);
    }

    fn bytes_in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Queues application data for transmission.
    ///
    /// # Errors
    ///
    /// [`NetError::BadState`] unless established or CLOSE-WAIT.
    pub fn send(&mut self, data: &[u8]) -> Result<(), NetError> {
        match self.state {
            State::Established | State::CloseWait => {
                self.send_ring.extend(data);
                self.unsent += data.len();
                self.pump_output();
                Ok(())
            }
            _ => Err(NetError::BadState),
        }
    }

    /// Appends up to `max` bytes of in-order received data to `out`;
    /// returns how many.
    ///
    /// Draining the ring reopens the receive window, so a window-update
    /// ACK is emitted when data was consumed on a synchronized connection
    /// (otherwise a peer stalled on zero window would never resume).
    pub fn recv_into(&mut self, out: &mut Vec<u8>, max: usize) -> usize {
        let n = max.min(self.recv_ring.len());
        let (a, b) = ring_range(&self.recv_ring, 0, n);
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        self.recv_ring.drain(..n);
        if n > 0
            && matches!(
                self.state,
                State::Established | State::FinWait1 | State::FinWait2 | State::CloseWait
            )
        {
            self.emit_ack();
        }
        n
    }

    /// [`recv_into`](Self::recv_into) a fresh `Vec`.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.recv_into(&mut out, max);
        out
    }

    /// Initiates close of our send direction.
    ///
    /// # Errors
    ///
    /// [`NetError::BadState`] if there is no open connection.
    pub fn close(&mut self) -> Result<(), NetError> {
        match self.state {
            State::Established => {
                self.fin_queued = true;
                self.state = State::FinWait1;
                self.pump_output();
                Ok(())
            }
            State::CloseWait => {
                self.fin_queued = true;
                self.state = State::LastAck;
                self.pump_output();
                Ok(())
            }
            State::SynSent | State::Listen => {
                self.state = State::Closed;
                Ok(())
            }
            _ => Err(NetError::BadState),
        }
    }

    /// Cuts unsent data (and a queued FIN) into segments, respecting the
    /// peer window, our fixed window cap, and the MSS.
    fn pump_output(&mut self) {
        loop {
            let window = u32::from(self.snd_wnd.min(self.cfg.window));
            let in_flight = self.bytes_in_flight();
            let room = window.saturating_sub(in_flight) as usize;
            if self.unsent == 0 || room == 0 {
                break;
            }
            let take = room.min(self.cfg.mss).min(self.unsent);
            let flags = tcp_flags::ACK | tcp_flags::PSH;
            let (seq, ack) = (self.snd_nxt, self.rcv_nxt);
            self.emit(seq, ack, flags, take as u32, true);
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            self.unsent -= take;
        }
        if self.fin_queued && self.unsent == 0 {
            self.fin_queued = false;
            let (seq, ack) = (self.snd_nxt, self.rcv_nxt);
            self.emit(seq, ack, tcp_flags::FIN | tcp_flags::ACK, 0, true);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
        }
    }

    /// The next segment to put on the wire, left queued: its header and
    /// its payload where it lies in the send ring. Call
    /// [`pop_outbox`](Self::pop_outbox) once the segment is on the wire.
    pub fn peek_outbox(&self) -> Option<(TcpHeader, RingSlices<'_>)> {
        let q = self.outbox.front()?;
        let payload = match q.len {
            0 => (&[][..], &[][..]),
            len => {
                let off = q.hdr.seq.wrapping_sub(self.ring_seq) as usize;
                ring_range(&self.send_ring, off, len as usize)
            }
        };
        Some((q.hdr, payload))
    }

    /// Dequeues the segment [`peek_outbox`](Self::peek_outbox) returned.
    pub fn pop_outbox(&mut self) {
        self.outbox.pop_front();
    }

    /// Takes the next segment to put on the wire as an owned copy.
    pub fn poll_outbox(&mut self) -> Option<TcpSegment> {
        let (hdr, (a, b)) = self.peek_outbox()?;
        let payload = [a, b].concat();
        self.pop_outbox();
        Some(TcpSegment { hdr, payload })
    }

    fn process_ack(&mut self, ack: u32, window: u16) {
        if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
            self.snd_una = ack;
            // Whole segments only: a retransmission re-sends the original
            // bytes, so a partly acknowledged segment stays in the ring.
            let mut released = 0;
            while let Some(front) = self.in_flight.front() {
                let end = front.seq.wrapping_add(seq_len(front.len, front.flags));
                if !seq_le(end, ack) {
                    break;
                }
                released += front.len;
                self.in_flight.pop_front();
            }
            if released > 0 {
                self.send_ring.drain(..released as usize);
                self.ring_seq = self.ring_seq.wrapping_add(released);
                // A copy of a released segment still waiting for the wire
                // has nothing left to carry, and the peer has its bytes.
                let ring_seq = self.ring_seq;
                self.outbox
                    .retain(|q| q.len == 0 || !seq_lt(q.hdr.seq, ring_seq));
            }
        }
        self.snd_wnd = window;
        self.pump_output();
    }

    fn accept_data(&mut self, mut seq: u32, mut payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        // Trim any prefix we already have.
        if seq_lt(seq, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            if skip >= payload.len() {
                return; // pure duplicate
            }
            payload = &payload[skip..];
            seq = self.rcv_nxt;
        }
        let window = usize::from(self.cfg.window);
        let offset = seq.wrapping_sub(self.rcv_nxt) as usize;
        if offset >= window {
            return; // outside our window entirely
        }
        if offset == 0 {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
            self.recv_ring.extend(payload);
            // Drain what the gap was holding back.
            self.rcv_nxt = self.ooo.drain_to(self.rcv_nxt, &mut self.recv_ring);
        } else {
            // Whatever lies past the window's end is dropped, not held.
            let fits = payload.len().min(window - offset);
            self.ooo.insert(seq, &payload[..fits], window);
        }
    }

    fn enter_time_wait(&mut self) {
        self.state = State::TimeWait;
        self.time_wait_until = Some(Cycles(self.clock.now().get() + self.cfg.time_wait.get()));
    }

    fn reset(&mut self, err: NetError) {
        self.state = State::Closed;
        self.error = Some(err);
        self.send_ring.clear();
        self.unsent = 0;
        self.in_flight.clear();
        self.outbox.clear();
    }

    /// Feeds one owned segment into the state machine
    /// ([`on_segment_in_place`](Self::on_segment_in_place) on its parts).
    ///
    /// # Errors
    ///
    /// As [`on_segment_in_place`](Self::on_segment_in_place).
    pub fn on_segment(&mut self, seg: &TcpSegment) -> Result<(), NetError> {
        self.on_segment_in_place(&seg.hdr, &seg.payload)
    }

    /// Feeds one parsed segment into the state machine: its header and
    /// its payload wherever the caller holds it (in-order bytes are copied
    /// once, into the receive ring).
    ///
    /// # Errors
    ///
    /// [`NetError::Reset`] when the segment resets the connection.
    pub fn on_segment_in_place(&mut self, seg: &TcpHeader, payload: &[u8]) -> Result<(), NetError> {
        if seg.flags & tcp_flags::RST != 0 {
            if self.state != State::Listen && self.state != State::Closed {
                self.reset(NetError::Reset);
                return Err(NetError::Reset);
            }
            return Ok(());
        }

        match self.state {
            State::Closed => Ok(()),
            State::Listen => {
                if seg.flags & tcp_flags::SYN != 0 {
                    self.remote_port = seg.src_port;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_wnd = seg.window;
                    self.state = State::SynRcvd;
                    let (iss, rcv_nxt) = (self.iss, self.rcv_nxt);
                    self.emit(iss, rcv_nxt, tcp_flags::SYN | tcp_flags::ACK, 0, true);
                    self.snd_nxt = self.iss.wrapping_add(1);
                }
                Ok(())
            }
            State::SynSent => {
                if seg.flags & (tcp_flags::SYN | tcp_flags::ACK) == tcp_flags::SYN | tcp_flags::ACK
                {
                    if seg.ack != self.iss.wrapping_add(1) {
                        return Err(NetError::Malformed);
                    }
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.process_ack(seg.ack, seg.window);
                    self.state = State::Established;
                    self.emit_ack();
                } else if seg.flags & tcp_flags::SYN != 0 {
                    // Simultaneous open.
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_wnd = seg.window;
                    self.state = State::SynRcvd;
                    let (iss, rcv_nxt) = (self.iss, self.rcv_nxt);
                    self.emit(iss, rcv_nxt, tcp_flags::SYN | tcp_flags::ACK, 0, true);
                }
                Ok(())
            }
            State::SynRcvd => {
                if seg.flags & tcp_flags::ACK != 0 && seg.ack == self.snd_nxt {
                    self.process_ack(seg.ack, seg.window);
                    self.state = State::Established;
                    // The ACK may carry data already.
                    self.segment_data_and_fin(seg, payload);
                }
                Ok(())
            }
            State::Established
            | State::FinWait1
            | State::FinWait2
            | State::CloseWait
            | State::Closing
            | State::LastAck
            | State::TimeWait => {
                if seg.flags & tcp_flags::ACK != 0 {
                    self.process_ack(seg.ack, seg.window);
                }
                self.segment_data_and_fin(seg, payload);
                self.advance_close_states();
                Ok(())
            }
        }
    }

    /// Handles payload bytes and FIN for synchronized states.
    fn segment_data_and_fin(&mut self, seg: &TcpHeader, payload: &[u8]) {
        let had = self.rcv_nxt;
        self.accept_data(seg.seq, payload);
        let mut should_ack = !payload.is_empty();

        if seg.flags & tcp_flags::FIN != 0 && !self.peer_fin {
            let fin_seq = seg.seq.wrapping_add(payload.len() as u32);
            if fin_seq == self.rcv_nxt {
                self.peer_fin = true;
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                should_ack = true;
                match self.state {
                    State::Established => self.state = State::CloseWait,
                    State::FinWait1 => {
                        // FIN+ACK combined handled in advance_close_states;
                        // here we only note the FIN.
                    }
                    State::FinWait2 => self.enter_time_wait(),
                    _ => {}
                }
            } else {
                should_ack = true; // out-of-order FIN: ack what we have
            }
        }
        if self.rcv_nxt != had || should_ack {
            self.emit_ack();
        }
    }

    /// State transitions that depend on our FIN being acknowledged.
    fn advance_close_states(&mut self) {
        let fin_acked = self.in_flight.is_empty() && self.unsent == 0;
        match self.state {
            State::FinWait1 => {
                if fin_acked && self.peer_fin {
                    self.enter_time_wait();
                } else if fin_acked {
                    self.state = State::FinWait2;
                } else if self.peer_fin {
                    self.state = State::Closing;
                }
            }
            State::Closing if fin_acked => {
                self.enter_time_wait();
            }
            State::LastAck if fin_acked => {
                self.state = State::Closed;
            }
            _ => {}
        }
    }

    /// Clock-driven processing: retransmissions and TIME-WAIT expiry.
    pub fn on_tick(&mut self) {
        if let Some(t) = self.time_wait_until {
            if self.clock.now() >= t {
                self.state = State::Closed;
                self.time_wait_until = None;
            }
        }
        let now = self.clock.now();
        let mut hdr = TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: 0,
            ack: self.rcv_nxt,
            flags: 0,
            window: self.recv_window(),
        };
        let mut abort = false;
        for u in &mut self.in_flight {
            if now.get().saturating_sub(u.sent_at.get()) >= self.cfg.rto.get() {
                if u.retries >= self.cfg.max_retries {
                    abort = true;
                    break;
                }
                u.retries += 1;
                u.sent_at = now;
                (hdr.seq, hdr.flags) = (u.seq, u.flags);
                self.outbox.push_back(Queued { hdr, len: u.len });
            }
        }
        if abort {
            self.reset(NetError::Reset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// Delivers all pending segments in both directions until quiescent.
    fn settle(a: &mut Connection, b: &mut Connection) {
        for _ in 0..64 {
            let mut moved = false;
            while let Some(seg) = a.poll_outbox() {
                let _ = b.on_segment(&seg);
                moved = true;
            }
            while let Some(seg) = b.poll_outbox() {
                let _ = a.on_segment(&seg);
                moved = true;
            }
            if !moved {
                return;
            }
        }
        panic!("connections did not quiesce");
    }

    fn established_pair(clock: &Clock) -> (Connection, Connection) {
        let mut client = Connection::connect(40000, 80, 1000, clock.clone(), cfg());
        let mut server = Connection::listen(80, 9000, clock.clone(), cfg());
        settle(&mut client, &mut server);
        assert_eq!(client.state(), State::Established);
        assert_eq!(server.state(), State::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let clock = Clock::new();
        let (_c, _s) = established_pair(&clock);
    }

    #[test]
    fn data_transfer_both_directions() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"hello server").unwrap();
        settle(&mut c, &mut s);
        assert_eq!(s.recv(100), b"hello server");
        s.send(b"hello client").unwrap();
        settle(&mut c, &mut s);
        assert_eq!(c.recv(100), b"hello client");
    }

    #[test]
    fn large_transfer_segments_at_mss() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        c.send(&data).unwrap();
        // Exchange and drain: the receiver must consume to reopen its
        // window, or the sender stalls at one window's worth.
        let mut received = Vec::new();
        for _ in 0..500 {
            settle(&mut c, &mut s);
            received.extend(s.recv(usize::MAX));
            if received.len() == data.len() {
                break;
            }
        }
        assert_eq!(received, data);
    }

    #[test]
    fn out_of_order_reassembly() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"AAAA").unwrap();
        let seg1 = c.poll_outbox().unwrap();
        c.send(b"BBBB").unwrap();
        let seg2 = c.poll_outbox().unwrap();
        // Deliver out of order.
        s.on_segment(&seg2).unwrap();
        assert_eq!(s.readable(), 0, "gap holds data back");
        s.on_segment(&seg1).unwrap();
        assert_eq!(s.recv(100), b"AAAABBBB");
    }

    #[test]
    fn hostile_sequence_numbers_hold_at_most_a_window() {
        let clock = Clock::new();
        let (c, mut s) = established_pair(&clock);
        let window = usize::from(cfg().window);
        let base = s.rcv_nxt;
        // Byte `k` of the stream the forged segments claim to carry.
        let stream = |k: usize| (k % 251) as u8;
        let ports = (c.local_port(), s.local_port());
        let deliver = |s: &mut Connection, off: usize, len: usize| {
            let hdr = TcpHeader {
                src_port: ports.0,
                dst_port: ports.1,
                seq: base.wrapping_add(off as u32),
                ack: s.snd_nxt,
                flags: tcp_flags::ACK | tcp_flags::PSH,
                window: 65_535,
            };
            let payload: Vec<u8> = (off..off + len).map(stream).collect();
            s.on_segment_in_place(&hdr, &payload).unwrap();
            s.outbox.clear(); // the duplicate ACKs are not under test
            assert!(s.ooo.held() <= window, "held {} bytes", s.ooo.held());
            assert!(s.ooo.ranges.len() <= OOO_RANGES);
        };
        // Sparse segments each open a range; past the cap they are dropped.
        for k in 0..1_000 {
            deliver(&mut s, 2 + 50 * k, 10);
        }
        assert_eq!(s.ooo.held(), OOO_RANGES * 10);
        // 10 000 overlapping segments, each 7 bytes past the last and none
        // at `rcv_nxt`: they merge into one range, trimmed at the window's
        // end, and those starting past it are dropped.
        for k in 0..10_000 {
            deliver(&mut s, 1 + 7 * k, 1460);
        }
        assert_eq!(s.readable(), 0, "the gap holds everything back");
        assert_eq!(s.ooo.held(), window - 1);
        // The gap fills: the whole window reassembles, in order.
        deliver(&mut s, 0, 1);
        let got = s.recv(usize::MAX);
        assert_eq!(got.len(), window);
        assert!(got.iter().enumerate().all(|(k, &b)| b == stream(k)));
        assert!(s.ooo.ranges.is_empty());
    }

    #[test]
    fn duplicate_and_overlapping_segments() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"12345678").unwrap();
        let seg = c.poll_outbox().unwrap();
        s.on_segment(&seg).unwrap();
        s.on_segment(&seg).unwrap(); // exact duplicate
        assert_eq!(s.recv(100), b"12345678");
        // Overlapping: manufacture a segment re-sending the tail + new data.
        let mut overlap = seg.clone();
        overlap.hdr.seq = seg.hdr.seq.wrapping_add(4);
        overlap.payload = b"5678EXTRA".to_vec();
        s.on_segment(&overlap).unwrap();
        assert_eq!(s.recv(100), b"EXTRA");
    }

    #[test]
    fn retransmission_on_loss() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"lost data").unwrap();
        let _dropped = c.poll_outbox().unwrap(); // the fabric eats it
        clock.advance(Cycles(cfg().rto.get() + 1));
        c.on_tick();
        let retrans = c.poll_outbox().expect("retransmission");
        s.on_segment(&retrans).unwrap();
        assert_eq!(s.recv(100), b"lost data");
    }

    #[test]
    fn send_ring_holds_a_segment_until_it_is_cumulatively_acked() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        let mss = cfg().mss;
        let data: Vec<u8> = (0..3 * mss).map(|i| (i % 251) as u8).collect();
        c.send(&data).unwrap();
        assert_eq!(c.send_backlog(), 0, "all three segments fit the window");
        let first = c.poll_outbox().unwrap();
        let second = c.poll_outbox().unwrap();
        let third = c.poll_outbox().unwrap();
        assert_eq!(first.payload, &data[..mss]);

        // The first segment is lost; the other two arrive out of order and
        // are acknowledged only with duplicate ACKs for the gap.
        s.on_segment(&second).unwrap();
        s.on_segment(&third).unwrap();
        settle(&mut c, &mut s);
        assert_eq!(c.send_ring.len(), 3 * mss, "nothing cumulatively acked");
        assert_eq!(c.in_flight.len(), 3);

        // An ACK that lands inside the first segment releases none of it:
        // the retransmission still has to carry the original bytes.
        let partial = TcpHeader {
            src_port: s.local_port(),
            dst_port: c.local_port(),
            seq: c.rcv_nxt,
            ack: first.hdr.seq.wrapping_add(10),
            flags: tcp_flags::ACK,
            window: 65_535,
        };
        c.on_segment_in_place(&partial, &[]).unwrap();
        assert_eq!(c.send_ring.len(), 3 * mss);

        clock.advance(Cycles(cfg().rto.get() + 1));
        c.on_tick();
        let again = c.poll_outbox().expect("retransmission");
        assert_eq!(again.hdr.seq, first.hdr.seq);
        assert_eq!(again.payload, first.payload, "same bytes, from the ring");

        // It fills the gap; the cumulative ACK releases all three at once.
        s.on_segment(&again).unwrap();
        settle(&mut c, &mut s);
        assert!(c.send_ring.is_empty());
        assert!(c.in_flight.is_empty());
        assert_eq!(s.recv(usize::MAX), data);
    }

    #[test]
    fn an_ack_drops_queued_copies_of_the_segments_it_releases() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"acked while a retransmission waits").unwrap();
        let seg = c.poll_outbox().unwrap();
        s.on_segment(&seg).unwrap();
        // The retransmission timer fires before the ACK gets back, and the
        // copy it queued is still waiting for the wire when it does.
        clock.advance(Cycles(cfg().rto.get() + 1));
        c.on_tick();
        assert!(c.peek_outbox().is_some());
        let ack = s.poll_outbox().unwrap();
        c.on_segment(&ack).unwrap();
        assert!(c.send_ring.is_empty());
        assert!(
            c.peek_outbox().is_none(),
            "a queued segment must not outlive its bytes"
        );
    }

    #[test]
    fn retries_exhaust_to_reset() {
        let clock = Clock::new();
        let (mut c, _s) = established_pair(&clock);
        c.send(b"never acked").unwrap();
        for _ in 0..cfg().max_retries + 2 {
            while c.poll_outbox().is_some() {}
            clock.advance(Cycles(cfg().rto.get() + 1));
            c.on_tick();
        }
        assert_eq!(c.state(), State::Closed);
        assert_eq!(c.error(), Some(NetError::Reset));
    }

    #[test]
    fn active_close_full_choreography() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.close().unwrap();
        assert_eq!(c.state(), State::FinWait1);
        settle(&mut c, &mut s);
        assert_eq!(s.state(), State::CloseWait);
        assert!(s.peer_closed());
        s.close().unwrap();
        assert_eq!(s.state(), State::LastAck);
        settle(&mut c, &mut s);
        assert_eq!(s.state(), State::Closed);
        assert_eq!(c.state(), State::TimeWait);
        clock.advance(Cycles(cfg().time_wait.get() + 1));
        c.on_tick();
        assert_eq!(c.state(), State::Closed);
        assert!(c.error().is_none());
    }

    #[test]
    fn data_before_close_is_delivered() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.send(b"final words").unwrap();
        c.close().unwrap();
        settle(&mut c, &mut s);
        assert_eq!(s.recv(100), b"final words");
        assert!(s.peer_closed());
    }

    #[test]
    fn simultaneous_close() {
        let clock = Clock::new();
        let (mut c, mut s) = established_pair(&clock);
        c.close().unwrap();
        s.close().unwrap();
        // Both FINs cross on the wire.
        let fc = c.poll_outbox().unwrap();
        let fs = s.poll_outbox().unwrap();
        c.on_segment(&fs).unwrap();
        s.on_segment(&fc).unwrap();
        settle(&mut c, &mut s);
        for conn in [&c, &s] {
            assert!(
                matches!(conn.state(), State::TimeWait | State::Closed),
                "state {:?}",
                conn.state()
            );
        }
    }

    #[test]
    fn rst_tears_down() {
        let clock = Clock::new();
        let (mut c, s) = established_pair(&clock);
        let rst = TcpHeader {
            src_port: s.local_port(),
            dst_port: c.local_port(),
            seq: 0,
            ack: 0,
            flags: tcp_flags::RST,
            window: 0,
        };
        assert_eq!(c.on_segment_in_place(&rst, &[]), Err(NetError::Reset));
        assert_eq!(c.state(), State::Closed);
        let _ = s;
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let clock = Clock::new();
        let mut small = cfg();
        small.window = 1000;
        let mut c = Connection::connect(40000, 80, 1, clock.clone(), cfg());
        let mut s = Connection::listen(80, 2, clock.clone(), small);
        settle(&mut c, &mut s);
        // Peer advertises 1000; sending 5000 must stall until drained.
        c.send(&vec![0xAB; 5000]).unwrap();
        settle(&mut c, &mut s);
        assert!(s.readable() <= 1000);
        let mut total = s.recv(usize::MAX).len();
        while total < 5000 {
            settle(&mut c, &mut s);
            let got = s.recv(usize::MAX);
            assert!(got.iter().all(|&b| b == 0xAB));
            total += got.len();
        }
        assert_eq!(total, 5000);
    }

    #[test]
    fn seq_arithmetic_wraps() {
        assert!(seq_lt(u32::MAX, 1));
        assert!(seq_lt(u32::MAX - 5, u32::MAX));
        assert!(!seq_lt(1, u32::MAX));
        assert!(seq_le(7, 7));
    }

    #[test]
    fn send_in_wrong_state_rejected() {
        let clock = Clock::new();
        let mut l = Connection::listen(80, 1, clock, cfg());
        assert_eq!(l.send(b"x"), Err(NetError::BadState));
    }
}
