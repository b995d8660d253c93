//! The interface layer: glues the device, IPv4 and TCP together.
//!
//! An [`Interface`] owns one [`NetDevice`] and multiplexes TCP sockets
//! over it. Everything is poll-driven: [`Interface::poll`] drains received
//! frames, advances TCP timers, and flushes outbound segments — matching
//! the paper's no-notifications default at every layer.
//!
//! A byte crosses the interface with one copy each way. Outbound, every
//! segment — data, control and RST alike — is built in the interface's one
//! frame buffer: headers written in place, payload copied straight out of
//! the connection's send ring, checksummed where it lies, and handed to
//! the device as a slice. Inbound, the frame the device returned is parsed
//! in place and a TCP payload is copied straight into the connection's
//! receive ring. Anything that is not IPv4 carrying TCP is dropped at the
//! demux.
//!
//! Neighbours are static: every frame goes to [`InterfaceConfig::neighbour`],
//! resolved by nobody at run time. In a confidential VM the host owns the
//! L2 fabric, so a resolution protocol would let it write the guest's
//! next hop with every frame it forges.

use crate::device::NetDevice;
use crate::tcp::{Connection, State, TcpConfig};
use crate::wire::{
    tcp_flags, EthHeader, EtherType, IpProto, Ipv4Addr, Ipv4Header, MacAddr, RingSlices, TcpHeader,
    ETH_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN,
};
use crate::NetError;
use cio_sim::{Clock, SimRng};
use std::collections::HashSet;

/// IP TTL of every packet the interface sends.
const TTL: u8 = 64;

/// Seed of the interface's deterministic ISS and ephemeral-port stream.
const SEED: u64 = 7;

/// Static configuration of one interface.
#[derive(Debug, Clone)]
pub struct InterfaceConfig {
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    /// The MAC every frame is addressed to: the other end of the link.
    pub neighbour: MacAddr,
    /// TCP tuning.
    pub tcp: TcpConfig,
}

impl InterfaceConfig {
    /// A config with defaults for the given address. The neighbour is the
    /// broadcast address, which the other end of a point-to-point link
    /// accepts whatever its own MAC.
    pub fn new(ip: Ipv4Addr) -> Self {
        InterfaceConfig {
            ip,
            neighbour: MacAddr::BROADCAST,
            tcp: TcpConfig::default(),
        }
    }
}

/// Handle to a TCP socket owned by an [`Interface`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub usize);

struct TcpSock {
    conn: Connection,
    remote_ip: Ipv4Addr,
    /// Set once the handle has been returned by [`Interface::tcp_accept`]
    /// (or created by connect); embryonic server sockets are false.
    accepted: bool,
}

/// The half of an interface below the sockets: device, configuration, and
/// the one buffer every outbound frame is built in. Its own struct so the
/// TCP flush can transmit while it walks the socket table.
struct Link<D: NetDevice> {
    dev: D,
    cfg: InterfaceConfig,
    frame: Vec<u8>,
    /// The buffer every inbound frame is received into.
    rx: Vec<u8>,
    /// Frames the device has taken, ever.
    tx_frames: u64,
}

impl<D: NetDevice> Link<D> {
    /// Whether `dst` is on our subnet, the only destinations a
    /// point-to-point link reaches.
    fn route(&self, dst: Ipv4Addr) -> Result<(), NetError> {
        if self.cfg.ip.same_subnet(&dst) {
            Ok(())
        } else {
            Err(NetError::Unreachable)
        }
    }

    /// Builds one TCP/IPv4 frame to the neighbour in the frame buffer and
    /// transmits it.
    fn send_tcp(
        &mut self,
        dst: Ipv4Addr,
        hdr: &TcpHeader,
        payload: RingSlices,
    ) -> Result<(), NetError> {
        let len = TCP_HDR_LEN + payload.0.len() + payload.1.len();
        let frame = &mut self.frame;
        frame.clear();
        EthHeader {
            dst: self.cfg.neighbour,
            src: self.dev.mac(),
            ethertype: EtherType::Ipv4,
        }
        .emit(frame);
        Ipv4Header {
            src: self.cfg.ip,
            dst,
            proto: IpProto::Tcp,
            ttl: TTL,
        }
        .emit(len, frame);
        hdr.emit(self.cfg.ip, dst, payload, frame);
        debug_assert_eq!(frame.len(), ETH_HDR_LEN + IPV4_HDR_LEN + len);
        self.dev.transmit(frame)?;
        self.tx_frames += 1;
        Ok(())
    }
}

/// A network interface with a TCP socket API.
pub struct Interface<D: NetDevice> {
    link: Link<D>,
    clock: Clock,
    rng: SimRng,
    tcp: Vec<Option<TcpSock>>,
    /// TCP ports with a live listener.
    listening: HashSet<u16>,
    next_ephemeral: u16,
}

impl<D: NetDevice> Interface<D> {
    /// Creates an interface over a device.
    pub fn new(dev: D, cfg: InterfaceConfig, clock: Clock) -> Self {
        Interface {
            link: Link {
                dev,
                cfg,
                frame: Vec::new(),
                rx: Vec::new(),
                tx_frames: 0,
            },
            clock,
            rng: SimRng::seed_from(SEED),
            tcp: Vec::new(),
            listening: HashSet::new(),
            next_ephemeral: 49152,
        }
    }

    /// Our address.
    pub fn ip(&self) -> Ipv4Addr {
        self.link.cfg.ip
    }

    /// Our MAC.
    pub fn mac(&self) -> MacAddr {
        self.link.dev.mac()
    }

    /// Frames handed to the device so far, data and control alike (a
    /// frame the device refused is not counted).
    pub fn frames_sent(&self) -> u64 {
        self.link.tx_frames
    }

    /// Direct access to the device (diagnostics).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.link.dev
    }

    // ---------- TCP ----------

    fn alloc_handle(&mut self, mut sock: TcpSock) -> SocketHandle {
        // A segment may be as large as the device's MTU allows.
        sock.conn.set_device_mtu(self.link.dev.mtu());
        for (i, slot) in self.tcp.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(sock);
                return SocketHandle(i);
            }
        }
        self.tcp.push(Some(sock));
        SocketHandle(self.tcp.len() - 1)
    }

    fn sock(&mut self, h: SocketHandle) -> Result<&mut TcpSock, NetError> {
        self.tcp
            .get_mut(h.0)
            .and_then(|s| s.as_mut())
            .ok_or(NetError::BadSocket)
    }

    /// Opens a TCP connection; returns once the SYN is queued (poll to
    /// completion with [`Interface::tcp_established`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] without a route to `dst_ip`;
    /// [`NetError::Exhausted`] if no ephemeral ports remain.
    pub fn tcp_connect(
        &mut self,
        dst_ip: Ipv4Addr,
        dst_port: u16,
    ) -> Result<SocketHandle, NetError> {
        // Every way to fail comes before the socket exists: once a slot
        // and a port are taken, the caller gets the handle that owns them.
        self.link.route(dst_ip)?;
        let local_port = self.alloc_ephemeral()?;
        let iss = self.rng.next_u64() as u32;
        let conn = Connection::connect(
            local_port,
            dst_port,
            iss,
            self.clock.clone(),
            self.link.cfg.tcp.clone(),
        );
        let h = self.alloc_handle(TcpSock {
            conn,
            remote_ip: dst_ip,
            accepted: true,
        });
        // The SYN is queued. A full device keeps it there for the next
        // poll and a lossy one leaves it to the retransmission timer; the
        // connection completes on this handle either way.
        let _ = self.flush_tcp();
        Ok(h)
    }

    /// Starts listening on `port`; inbound connections are created on
    /// demand and surfaced through [`Interface::tcp_accept`].
    pub fn tcp_listen(&mut self, port: u16) {
        self.listening.insert(port);
    }

    /// Returns the next established inbound connection on `port`, if any.
    pub fn tcp_accept(&mut self, port: u16) -> Option<SocketHandle> {
        for (i, slot) in self.tcp.iter_mut().enumerate() {
            if let Some(s) = slot {
                if !s.accepted
                    && s.conn.local_port() == port
                    && s.conn.state() == State::Established
                {
                    s.accepted = true;
                    return Some(SocketHandle(i));
                }
            }
        }
        None
    }

    fn alloc_ephemeral(&mut self) -> Result<u16, NetError> {
        for _ in 0..16384 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 49152 } else { p + 1 };
            let in_use = self.tcp.iter().flatten().any(|s| s.conn.local_port() == p);
            if !in_use {
                return Ok(p);
            }
        }
        Err(NetError::Exhausted)
    }

    /// Whether a connection has reached ESTABLISHED.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for dead handles.
    pub fn tcp_established(&mut self, h: SocketHandle) -> Result<bool, NetError> {
        Ok(self.sock(h)?.conn.state() == State::Established)
    }

    /// The connection's local port (used e.g. to compute its RSS queue).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for dead handles.
    pub fn tcp_local_port(&mut self, h: SocketHandle) -> Result<u16, NetError> {
        Ok(self.sock(h)?.conn.local_port())
    }

    /// Bytes accepted by [`tcp_send`](Self::tcp_send) but not yet emitted
    /// as segments — the unsent backlog a caller can use for backpressure.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for dead handles.
    pub fn tcp_send_backlog(&mut self, h: SocketHandle) -> Result<usize, NetError> {
        Ok(self.sock(h)?.conn.send_backlog())
    }

    /// Sends application data.
    ///
    /// # Errors
    ///
    /// Propagates connection-state and routing errors.
    pub fn tcp_send(&mut self, h: SocketHandle, data: &[u8]) -> Result<(), NetError> {
        self.sock(h)?.conn.send(data)?;
        self.flush_tcp()
    }

    fn recv_up_to(
        &mut self,
        h: SocketHandle,
        max: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize, NetError> {
        let sock = self.sock(h)?;
        if let Some(e) = sock.conn.error() {
            return Err(e);
        }
        let n = sock.conn.recv_into(out, max);
        // The read may have queued a window update. A full device keeps
        // it for the next poll and a lossy one drops it; neither may fail
        // a read whose bytes already left the receive ring.
        let _ = self.flush_tcp();
        Ok(n)
    }

    /// Appends everything received so far to `out` (one copy, out of the
    /// connection's receive ring); returns how many bytes that was.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`]; a peer reset surfaces as [`NetError::Reset`].
    pub fn tcp_recv_into(&mut self, h: SocketHandle, out: &mut Vec<u8>) -> Result<usize, NetError> {
        self.recv_up_to(h, usize::MAX, out)
    }

    /// Receives up to `max` bytes into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// As [`tcp_recv_into`](Self::tcp_recv_into).
    pub fn tcp_recv(&mut self, h: SocketHandle, max: usize) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::new();
        self.recv_up_to(h, max, &mut out)?;
        Ok(out)
    }

    /// Whether the peer has closed and all data is drained.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for dead handles.
    pub fn tcp_peer_closed(&mut self, h: SocketHandle) -> Result<bool, NetError> {
        Ok(self.sock(h)?.conn.peer_closed())
    }

    /// Closes our direction.
    ///
    /// # Errors
    ///
    /// Propagates state errors.
    pub fn tcp_close(&mut self, h: SocketHandle) -> Result<(), NetError> {
        self.sock(h)?.conn.close()?;
        self.flush_tcp()
    }

    /// Releases a handle (the connection must be closed or aborted).
    ///
    /// # Errors
    ///
    /// [`NetError::BadState`] if the connection is still live.
    pub fn tcp_release(&mut self, h: SocketHandle) -> Result<(), NetError> {
        let sock = self.sock(h)?;
        match sock.conn.state() {
            State::Closed | State::TimeWait => {
                self.tcp[h.0] = None;
                Ok(())
            }
            _ => Err(NetError::BadState),
        }
    }

    // ---------- Data path ----------

    /// One poll iteration: receive + timers + transmit. Returns the number
    /// of frames processed (useful for quiescence loops).
    ///
    /// # Errors
    ///
    /// Device-level errors only; malformed inbound traffic is dropped, as a
    /// stack must.
    pub fn poll(&mut self) -> Result<usize, NetError> {
        // A failed frame loses the buffer, and the next poll grows another.
        let (mut processed, mut frame) = (0, std::mem::take(&mut self.link.rx));
        while self.link.dev.receive(&mut frame) {
            processed += 1;
            self.handle_frame(&frame)?;
        }
        self.link.rx = frame;
        for s in self.tcp.iter_mut().flatten() {
            s.conn.on_tick();
        }
        self.flush_tcp()?;
        Ok(processed)
    }

    /// Parses one received frame where it lies and hands a TCP segment
    /// for our address to [`handle_tcp`](Self::handle_tcp); drops the rest.
    fn handle_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let Ok((eth, l3)) = EthHeader::parse(frame) else {
            return Ok(());
        };
        if eth.dst != self.link.dev.mac() && !eth.dst.is_broadcast() {
            return Ok(());
        }
        if eth.ethertype != EtherType::Ipv4 {
            return Ok(());
        }
        match Ipv4Header::parse(l3) {
            Ok((ip, l4)) if ip.dst == self.link.cfg.ip && ip.proto == IpProto::Tcp => {
                self.handle_tcp(&ip, l4)
            }
            _ => Ok(()),
        }
    }

    fn handle_tcp(&mut self, ip: &Ipv4Header, l4: &[u8]) -> Result<(), NetError> {
        let Ok((seg, payload)) = TcpHeader::parse(ip.src, ip.dst, l4) else {
            return Ok(());
        };
        // Demux: exact 4-tuple first; otherwise a SYN to a listening port
        // spawns a fresh embryonic connection (backlog semantics).
        let mut target: Option<usize> = None;
        for (i, slot) in self.tcp.iter().enumerate() {
            if let Some(s) = slot {
                if s.conn.local_port() == seg.dst_port
                    && s.conn.remote_port() == seg.src_port
                    && s.remote_ip == ip.src
                    && s.conn.state() != State::Listen
                {
                    target = Some(i);
                    break;
                }
            }
        }
        if target.is_none()
            && self.listening.contains(&seg.dst_port)
            && seg.flags & tcp_flags::SYN != 0
        {
            let iss = self.rng.next_u64() as u32;
            let conn = Connection::listen(
                seg.dst_port,
                iss,
                self.clock.clone(),
                self.link.cfg.tcp.clone(),
            );
            let h = self.alloc_handle(TcpSock {
                conn,
                remote_ip: ip.src,
                accepted: false,
            });
            target = Some(h.0);
        }
        let Some(i) = target else {
            // No socket: emit RST for non-RST segments.
            if seg.flags & tcp_flags::RST == 0 {
                let rst = TcpHeader {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    seq: seg.ack,
                    ack: seg.seq.wrapping_add(payload.len() as u32),
                    flags: tcp_flags::RST | tcp_flags::ACK,
                    window: 0,
                };
                self.link.send_tcp(ip.src, &rst, (&[], &[]))?;
            }
            return Ok(());
        };
        let sock = self.tcp[i].as_mut().expect("slot checked above");
        // Resets surface via error(). What the segment queued leaves in
        // `poll`'s one flush, after every frame of the poll was handled.
        let _ = sock.conn.on_segment_in_place(&seg, payload);
        Ok(())
    }

    /// Puts every queued segment of every socket on the wire, each built
    /// in the link's frame buffer from the header in the outbox and the
    /// payload in the send ring.
    ///
    /// A segment leaves its outbox only once the device took it: on
    /// [`NetError::DeviceFull`] it and everything behind it stay queued
    /// for the next flush. Any other failure loses that one segment, as a
    /// lossy wire would.
    fn flush_tcp(&mut self) -> Result<(), NetError> {
        for s in self.tcp.iter_mut().flatten() {
            while let Some((hdr, payload)) = s.conn.peek_outbox() {
                let sent = self.link.send_tcp(s.remote_ip, &hdr, payload);
                if sent == Err(NetError::DeviceFull) {
                    return sent;
                }
                s.conn.pop_outbox();
                sent?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PairDevice;
    use cio_sim::Cycles;
    use std::collections::HashMap;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pair() -> (Interface<PairDevice>, Interface<PairDevice>) {
        pair_on(&Clock::new())
    }

    fn pair_on(clock: &Clock) -> (Interface<PairDevice>, Interface<PairDevice>) {
        let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 1500);
        let a = Interface::new(da, InterfaceConfig::new(IP_A), clock.clone());
        let b = Interface::new(db, InterfaceConfig::new(IP_B), clock.clone());
        (a, b)
    }

    fn settle(a: &mut Interface<PairDevice>, b: &mut Interface<PairDevice>) {
        for _ in 0..256 {
            let n = a.poll().unwrap() + b.poll().unwrap();
            if n == 0 && a.link.dev.pending() == 0 && b.link.dev.pending() == 0 {
                return;
            }
        }
        panic!("interfaces did not settle");
    }

    #[test]
    fn tcp_connect_send_recv_close() {
        let (mut a, mut b) = pair();
        b.tcp_listen(80);
        let cli = a.tcp_connect(IP_B, 80).unwrap();
        settle(&mut a, &mut b);
        assert!(a.tcp_established(cli).unwrap());
        let srv = b.tcp_accept(80).expect("inbound connection");
        assert!(b.tcp_established(srv).unwrap());

        a.tcp_send(cli, b"GET /index").unwrap();
        settle(&mut a, &mut b);
        assert_eq!(b.tcp_recv(srv, 100).unwrap(), b"GET /index");

        b.tcp_send(srv, b"200 OK").unwrap();
        settle(&mut a, &mut b);
        assert_eq!(a.tcp_recv(cli, 100).unwrap(), b"200 OK");

        a.tcp_close(cli).unwrap();
        settle(&mut a, &mut b);
        assert!(b.tcp_peer_closed(srv).unwrap());
        b.tcp_close(srv).unwrap();
        settle(&mut a, &mut b);
        assert_eq!(b.sock(srv).unwrap().conn.state(), State::Closed);
        b.tcp_release(srv).unwrap();
        assert_eq!(b.tcp_recv(srv, 1), Err(NetError::BadSocket));
    }

    #[test]
    fn tcp_bulk_transfer() {
        let (mut a, mut b) = pair();
        b.tcp_listen(9000);
        let cli = a.tcp_connect(IP_B, 9000).unwrap();
        settle(&mut a, &mut b);
        let srv = b.tcp_accept(9000).expect("inbound connection");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31) as u8).collect();
        // Stream in chunks, draining as we go.
        let mut received = Vec::new();
        for chunk in data.chunks(10_000) {
            a.tcp_send(cli, chunk).unwrap();
            settle(&mut a, &mut b);
            received.extend(b.tcp_recv(srv, usize::MAX).unwrap());
            settle(&mut a, &mut b);
        }
        received.extend(b.tcp_recv(srv, usize::MAX).unwrap());
        assert_eq!(received, data);
        let _ = srv;
    }

    #[test]
    fn a_full_device_delays_segments_instead_of_dropping_them() {
        let clock = Clock::new();
        let (mut a, mut b) = pair_on(&clock);
        b.tcp_listen(9000);
        let cli = a.tcp_connect(IP_B, 9000).unwrap();
        settle(&mut a, &mut b);
        let srv = b.tcp_accept(9000).expect("inbound connection");
        // A few frames of room each way: data segments one way, ACKs and
        // window updates the other, all through a device that is mostly
        // full.
        a.link.dev.capacity = 4;
        b.link.dev.capacity = 2;

        // Fill the device, and keep sending: the stack takes every byte.
        let data: Vec<u8> = (0..120_000u32).map(|i| (i * 31) as u8).collect();
        let mut refused = 0;
        for chunk in data.chunks(8_000) {
            match a.tcp_send(cli, chunk) {
                Ok(()) => {}
                Err(NetError::DeviceFull) => refused += 1,
                Err(e) => panic!("send: {e}"),
            }
        }
        assert!(refused > 0, "the burst never filled the device");

        // Drain and poll. A poll may find the device full again; whatever
        // it could not send stays queued for the next one.
        let mut received = Vec::new();
        for _ in 0..10_000 {
            for polled in [b.poll(), a.poll()] {
                assert!(matches!(polled, Ok(_) | Err(NetError::DeviceFull)));
            }
            b.tcp_recv_into(srv, &mut received).unwrap();
            if received.len() == data.len() {
                break;
            }
        }
        assert_eq!(received, data, "every byte, in order");
        // The clock never moved, so no retransmission timer can have fired:
        // the bytes arrived because nothing was dropped.
        assert_eq!(clock.now(), Cycles(0));
    }

    #[test]
    fn a_refused_first_flush_neither_fails_nor_leaks_the_connect() {
        let (mut a, mut b) = pair();
        b.tcp_listen(9000);
        // A device with no room at all: the SYN is refused.
        a.link.dev.capacity = 0;
        let cli = a
            .tcp_connect(IP_B, 9000)
            .expect("backpressure is not failure");
        assert_eq!(a.sock(cli).unwrap().conn.state(), State::SynSent);
        assert_eq!(a.poll(), Err(NetError::DeviceFull), "still full");
        // Room for one frame at a time is enough to finish the handshake.
        a.link.dev.capacity = 1;
        for _ in 0..64 {
            for polled in [a.poll(), b.poll()] {
                assert!(matches!(polled, Ok(_) | Err(NetError::DeviceFull)));
            }
        }
        assert!(a.tcp_established(cli).unwrap(), "connects once it drains");
        assert!(b.tcp_accept(9000).is_some());

        // A host that keeps the device full at connect time must not be
        // able to drain the socket table or the ephemeral range.
        let (mut a, _b) = pair();
        a.link.dev.capacity = 0;
        for _ in 0..1_000 {
            let h = a
                .tcp_connect(IP_B, 9000)
                .expect("handle despite a full device");
            assert_eq!(a.tcp_close(h), Err(NetError::DeviceFull));
            a.tcp_release(h).unwrap();
        }
        assert!(a.tcp.len() <= 1, "socket table grew to {}", a.tcp.len());
        assert_eq!(a.tcp.iter().flatten().count(), 0, "ports still held");

        // A connect that cannot succeed fails before it holds anything.
        let unroutable = Ipv4Addr::new(192, 168, 7, 7);
        assert_eq!(a.tcp_connect(unroutable, 9000), Err(NetError::Unreachable));
        assert_eq!(a.tcp.iter().flatten().count(), 0);
    }

    /// A cable end that loses the first transmission of every `k`-th data
    /// segment, and checks every retransmission against what was first
    /// sent at that sequence number.
    struct Lossy {
        inner: PairDevice,
        k: usize,
        first_sent: HashMap<u32, Vec<u8>>,
        dropped: usize,
        retransmitted: usize,
    }

    impl NetDevice for Lossy {
        fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
            let (_, l3) = EthHeader::parse(frame).unwrap();
            if let Ok((ip, l4)) = Ipv4Header::parse(l3) {
                let (tcp, payload) = TcpHeader::parse(ip.src, ip.dst, l4).unwrap();
                if let Some(first) = self.first_sent.get(&tcp.seq) {
                    assert_eq!(payload, first, "retransmission of seq {}", tcp.seq);
                    self.retransmitted += 1;
                } else if !payload.is_empty() {
                    self.first_sent.insert(tcp.seq, payload.to_vec());
                    if self.first_sent.len().is_multiple_of(self.k) {
                        self.dropped += 1;
                        return Ok(());
                    }
                }
            }
            self.inner.transmit(frame)
        }
        fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
            self.inner.receive(frame)
        }
        fn mac(&self) -> MacAddr {
            self.inner.mac()
        }
        fn mtu(&self) -> usize {
            self.inner.mtu()
        }
    }

    #[test]
    fn retransmissions_carry_the_original_bytes_over_a_lossy_link() {
        let clock = Clock::new();
        let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 1500);
        let lossy = Lossy {
            inner: da,
            k: 5,
            first_sent: HashMap::new(),
            dropped: 0,
            retransmitted: 0,
        };
        let mut a = Interface::new(lossy, InterfaceConfig::new(IP_A), clock.clone());
        let mut b = Interface::new(db, InterfaceConfig::new(IP_B), clock.clone());
        b.tcp_listen(9000);
        let cli = a.tcp_connect(IP_B, 9000).unwrap();
        while a.poll().unwrap() + b.poll().unwrap() > 0 {}
        let srv = b.tcp_accept(9000).expect("inbound connection");

        let data: Vec<u8> = (0..150_000u32).map(|i| (i * 17) as u8).collect();
        let mut chunks = data.chunks(9_000);
        let mut received = Vec::new();
        for _ in 0..10_000 {
            if a.tcp_send_backlog(cli).unwrap() == 0 {
                if let Some(chunk) = chunks.next() {
                    a.tcp_send(cli, chunk).unwrap();
                }
            }
            let moved = a.poll().unwrap() + b.poll().unwrap();
            let got = b.tcp_recv_into(srv, &mut received).unwrap();
            if received.len() == data.len() {
                break;
            }
            if moved + got == 0 {
                // Stalled on a lost segment: let its timer fire.
                clock.advance(Cycles(a.link.cfg.tcp.rto.get() + 1));
            }
        }
        assert_eq!(received, data, "the stream arrives intact and in order");
        let link = &a.link.dev;
        assert!(link.dropped >= 15, "lost {} segments", link.dropped);
        assert!(link.retransmitted >= link.dropped);
    }

    /// A cable end that records the destination MAC and TCP flags of
    /// every frame it takes.
    struct Tap {
        inner: PairDevice,
        sent: Vec<(MacAddr, u8)>,
    }

    impl NetDevice for Tap {
        fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
            self.inner.transmit(frame)?;
            let (eth, l3) = EthHeader::parse(frame).unwrap();
            let (ip, l4) = Ipv4Header::parse(l3).unwrap();
            let (tcp, _) = TcpHeader::parse(ip.src, ip.dst, l4).unwrap();
            self.sent.push((eth.dst, tcp.flags));
            Ok(())
        }
        fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
            self.inner.receive(frame)
        }
        fn mac(&self) -> MacAddr {
            self.inner.mac()
        }
        fn mtu(&self) -> usize {
            self.inner.mtu()
        }
    }

    #[test]
    fn every_frame_goes_to_the_configured_neighbour() {
        let clock = Clock::new();
        let mac_b = MacAddr([0xB; 6]);
        let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), mac_b], 1500);
        let cfg = InterfaceConfig {
            neighbour: mac_b,
            ..InterfaceConfig::new(IP_A)
        };
        let tap = Tap {
            inner: da,
            sent: Vec::new(),
        };
        let mut a = Interface::new(tap, cfg, clock.clone());
        let mut host = db.clone();
        let mut b = Interface::new(db, InterfaceConfig::new(IP_B), clock);
        let exchange = |a: &mut Interface<Tap>, b: &mut Interface<PairDevice>| {
            for _ in 0..16 {
                a.poll().unwrap();
                b.poll().unwrap();
            }
        };
        b.tcp_listen(80);
        let cli = a.tcp_connect(IP_B, 80).unwrap();
        exchange(&mut a, &mut b);
        let srv = b.tcp_accept(80).expect("inbound connection");
        a.tcp_send(cli, b"to the neighbour").unwrap();
        exchange(&mut a, &mut b);
        assert_eq!(b.tcp_recv(srv, 100).unwrap(), b"to the neighbour");
        // Nobody listens on A's port 4444: A answers B's SYN with a RST.
        let refused = b.tcp_connect(IP_A, 4444).unwrap();
        exchange(&mut a, &mut b);
        assert_eq!(b.tcp_recv(refused, 1), Err(NetError::Reset));
        a.tcp_close(cli).unwrap();
        exchange(&mut a, &mut b);
        // A SYN from off our subnet, which only the fabric's owner can
        // send, is refused through the neighbour too, and the poll that
        // read it does not fail.
        let far = Ipv4Addr::new(192, 168, 7, 7);
        let mut syn = Vec::new();
        EthHeader {
            dst: MacAddr([0xA; 6]),
            src: mac_b,
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut syn);
        Ipv4Header {
            src: far,
            dst: IP_A,
            proto: IpProto::Tcp,
            ttl: TTL,
        }
        .emit(TCP_HDR_LEN, &mut syn);
        let hdr = TcpHeader {
            src_port: 1,
            dst_port: 4444,
            seq: 1,
            ack: 0,
            flags: tcp_flags::SYN,
            window: 0,
        };
        hdr.emit(far, IP_A, (&[], &[]), &mut syn);
        host.transmit(&syn).unwrap();
        assert_eq!(a.poll(), Ok(1));

        let sent = &a.link.dev.sent;
        assert_eq!(
            sent.last().map(|&(_, f)| f),
            Some(tcp_flags::RST | tcp_flags::ACK)
        );
        let has = |flag: u8| sent.iter().any(|&(_, f)| f & flag != 0);
        assert!(has(tcp_flags::SYN) && has(tcp_flags::RST) && has(tcp_flags::FIN));
        assert!(sent.iter().all(|&(dst, _)| dst == mac_b), "{sent:?}");
    }

    #[test]
    fn connection_to_closed_port_resets() {
        let (mut a, mut b) = pair();
        let cli = a.tcp_connect(IP_B, 4444).unwrap(); // nobody listening
        settle(&mut a, &mut b);
        assert_eq!(a.tcp_recv(cli, 1), Err(NetError::Reset));
    }

    #[test]
    fn two_parallel_connections_same_port() {
        let (mut a, mut b) = pair();
        b.tcp_listen(81);
        let c1 = a.tcp_connect(IP_B, 81).unwrap();
        let c2 = a.tcp_connect(IP_B, 81).unwrap();
        settle(&mut a, &mut b);
        let s1 = b.tcp_accept(81).expect("first");
        let s2 = b.tcp_accept(81).expect("second");
        assert!(b.tcp_accept(81).is_none());
        a.tcp_send(c1, b"one").unwrap();
        a.tcp_send(c2, b"two").unwrap();
        settle(&mut a, &mut b);
        // Map accepted handles to payloads by remote port.
        let r1 = b.tcp_recv(s1, 10).unwrap();
        let r2 = b.tcp_recv(s2, 10).unwrap();
        let mut got = vec![r1, r2];
        got.sort();
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
    }
}
