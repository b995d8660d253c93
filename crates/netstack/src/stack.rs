//! The interface layer: glues devices, ARP, IPv4, UDP, and TCP together.
//!
//! An [`Interface`] owns one [`NetDevice`] and multiplexes sockets over it.
//! Everything is poll-driven: [`Interface::poll`] drains received frames,
//! advances TCP timers, and flushes outbound segments — matching the
//! paper's no-notifications default at every layer.
//!
//! A byte crosses the interface with one copy each way. Outbound, every
//! packet is built in the interface's one frame buffer — headers written
//! in place, TCP payload copied straight out of the connection's send
//! ring, checksummed where it lies — and handed to the device as a slice.
//! Inbound, the frame the device returned is parsed in place and a TCP
//! payload is copied straight into the connection's receive ring.

use crate::arp::ArpCache;
use crate::device::NetDevice;
use crate::tcp::{Connection, State, TcpConfig};
use crate::udp::{Datagram, UdpSocket};
use crate::wire::{
    tcp_flags, EthHeader, EtherType, IcmpEcho, IpProto, Ipv4Addr, Ipv4Header, MacAddr, RingSlices,
    TcpHeader, UdpHeader, ETH_HDR_LEN, ICMP_ECHO_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN, UDP_HDR_LEN,
};
use crate::NetError;
use cio_sim::{Clock, SimRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Static configuration of one interface.
#[derive(Debug, Clone)]
pub struct InterfaceConfig {
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    /// Gateway for off-subnet traffic (None = subnet-local only).
    pub gateway: Option<Ipv4Addr>,
    /// TCP tuning.
    pub tcp: TcpConfig,
    /// Deterministic seed (ISS, ephemeral ports).
    pub seed: u64,
    /// IP TTL for generated packets.
    pub ttl: u8,
}

impl InterfaceConfig {
    /// A config with defaults for the given address.
    pub fn new(ip: Ipv4Addr) -> Self {
        InterfaceConfig {
            ip,
            gateway: None,
            tcp: TcpConfig::default(),
            seed: 7,
            ttl: 64,
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

/// The half of an interface below the sockets: device, ARP, routing, and
/// the one buffer every outbound frame is built in. Its own struct so the
/// TCP flush can transmit while it walks the socket table.
struct Link<D: NetDevice> {
    dev: D,
    cfg: InterfaceConfig,
    arp: ArpCache,
    /// Built frames waiting for ARP resolution (destination MAC still
    /// blank) with their next-hop IP, oldest first.
    pending: VecDeque<(Ipv4Addr, Vec<u8>)>,
    frame: Vec<u8>,
    /// Frames the device has taken, ever.
    tx_frames: u64,
}

impl<D: NetDevice> Link<D> {
    fn next_hop(&self, dst: Ipv4Addr) -> Result<Ipv4Addr, NetError> {
        if self.cfg.ip.same_subnet(&dst) {
            Ok(dst)
        } else {
            self.cfg.gateway.ok_or(NetError::Unreachable)
        }
    }

    /// Builds one IPv4 frame in the frame buffer — Ethernet and IPv4
    /// headers, then the `transport_len` bytes `transport` appends — and
    /// transmits it, or parks it behind an ARP request for its next hop.
    fn send_ipv4(
        &mut self,
        dst: Ipv4Addr,
        proto: IpProto,
        transport_len: usize,
        transport: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        if transport_len > self.dev.mtu().saturating_sub(IPV4_HDR_LEN) {
            return Err(NetError::TooLarge);
        }
        let hop = self.next_hop(dst)?;
        let mac = self.arp.lookup(hop);
        let frame = &mut self.frame;
        frame.clear();
        EthHeader {
            dst: mac.unwrap_or_default(),
            src: self.dev.mac(),
            ethertype: EtherType::Ipv4,
        }
        .emit(frame);
        Ipv4Header {
            src: self.cfg.ip,
            dst,
            proto,
            ttl: self.cfg.ttl,
        }
        .emit(transport_len, frame);
        transport(frame);
        debug_assert_eq!(frame.len(), ETH_HDR_LEN + IPV4_HDR_LEN + transport_len);
        match mac {
            Some(_) => self.dev.transmit(frame)?,
            None => {
                // Request first: a device that refuses the request has
                // taken nothing, so the frame stays with the caller (TCP
                // keeps it queued) instead of being parked once per retry.
                self.dev.transmit(&self.arp.request_frame(hop))?;
                self.pending.push_back((hop, frame.clone()));
            }
        }
        self.tx_frames += 1;
        Ok(())
    }

    fn send_tcp(
        &mut self,
        dst: Ipv4Addr,
        hdr: &TcpHeader,
        payload: RingSlices,
    ) -> Result<(), NetError> {
        let (src, len) = (self.cfg.ip, TCP_HDR_LEN + payload.0.len() + payload.1.len());
        self.send_ipv4(dst, IpProto::Tcp, len, |out| {
            hdr.emit(src, dst, payload, out);
        })
    }

    /// Transmits every parked frame whose next hop has resolved, oldest
    /// first. A frame leaves the queue only once the device took it: on
    /// [`NetError::DeviceFull`] it and everything behind it stay parked
    /// for the next poll. Any other failure loses that one frame, as a
    /// lossy wire would, and ends the pass.
    fn drain_pending(&mut self) -> Result<(), NetError> {
        let mut sent = Ok(());
        self.pending.retain_mut(|(hop, frame)| {
            let Some(mac) = self.arp.lookup(*hop).filter(|_| sent.is_ok()) else {
                return true;
            };
            frame[..6].copy_from_slice(&mac.0);
            sent = self.dev.transmit(frame);
            self.tx_frames += u64::from(sent.is_ok());
            sent == Err(NetError::DeviceFull)
        });
        sent
    }
}

/// A network interface with a socket API.
pub struct Interface<D: NetDevice> {
    link: Link<D>,
    clock: Clock,
    rng: SimRng,
    udp: HashMap<u16, UdpSocket>,
    tcp: Vec<Option<TcpSock>>,
    /// TCP ports with a live listener.
    listening: HashSet<u16>,
    /// Echo replies received, for [`Interface::ping_reply`].
    ping_replies: Vec<(Ipv4Addr, u16, u16)>,
    next_ephemeral: u16,
}

impl<D: NetDevice> Interface<D> {
    /// Creates an interface over a device.
    pub fn new(dev: D, cfg: InterfaceConfig, clock: Clock) -> Self {
        let arp = ArpCache::new(dev.mac(), cfg.ip);
        let rng = SimRng::seed_from(cfg.seed);
        Interface {
            link: Link {
                dev,
                cfg,
                arp,
                pending: VecDeque::new(),
                frame: Vec::new(),
                tx_frames: 0,
            },
            clock,
            rng,
            udp: HashMap::new(),
            tcp: Vec::new(),
            listening: HashSet::new(),
            ping_replies: Vec::new(),
            next_ephemeral: 49152,
        }
    }

    /// Sends an ICMP echo request.
    ///
    /// # Errors
    ///
    /// Routing/MTU errors.
    pub fn ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) -> Result<(), NetError> {
        let echo = IcmpEcho {
            is_request: true,
            ident,
            seq,
        };
        let payload = b"cio-ping";
        let len = ICMP_ECHO_HDR_LEN + payload.len();
        self.link
            .send_ipv4(dst, IpProto::Icmp, len, |out| echo.emit(payload, out))
    }

    /// Takes a received echo reply matching `ident`, if any.
    pub fn ping_reply(&mut self, ident: u16) -> Option<(Ipv4Addr, u16)> {
        let pos = self.ping_replies.iter().position(|(_, i, _)| *i == ident)?;
        let (src, _, seq) = self.ping_replies.remove(pos);
        Some((src, seq))
    }

    /// Our address.
    pub fn ip(&self) -> Ipv4Addr {
        self.link.cfg.ip
    }

    /// Our MAC.
    pub fn mac(&self) -> MacAddr {
        self.link.dev.mac()
    }

    /// Frames handed to the device so far, data, control and ARP alike
    /// (a frame the device refused is not counted).
    pub fn frames_sent(&self) -> u64 {
        self.link.tx_frames
    }

    /// Direct access to the device (diagnostics).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.link.dev
    }

    // ---------- UDP ----------

    /// Binds a UDP port.
    ///
    /// # Errors
    ///
    /// [`NetError::Exhausted`] if the port is already bound.
    pub fn udp_bind(&mut self, port: u16) -> Result<(), NetError> {
        if self.udp.contains_key(&port) {
            return Err(NetError::Exhausted);
        }
        self.udp.insert(port, UdpSocket::new());
        Ok(())
    }

    /// Sends a UDP datagram from `src_port` (which need not be bound).
    ///
    /// # Errors
    ///
    /// Routing and MTU errors.
    pub fn udp_send(
        &mut self,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let hdr = UdpHeader { src_port, dst_port };
        let (src, len) = (self.link.cfg.ip, UDP_HDR_LEN + payload.len());
        self.link.send_ipv4(dst_ip, IpProto::Udp, len, |out| {
            hdr.emit(src, dst_ip, payload, out);
        })
    }

    /// Receives a datagram on a bound port.
    pub fn udp_recv(&mut self, port: u16) -> Option<Datagram> {
        self.udp.get_mut(&port).and_then(|s| s.pop())
    }

    // ---------- TCP ----------

    fn alloc_handle(&mut self, sock: TcpSock) -> SocketHandle {
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
        self.link.next_hop(dst_ip)?;
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

    /// Current TCP state (diagnostics).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for dead handles.
    pub fn tcp_state(&mut self, h: SocketHandle) -> Result<State, NetError> {
        Ok(self.sock(h)?.conn.state())
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
        let mut processed = 0;
        while let Some(frame) = self.link.dev.receive() {
            processed += 1;
            self.handle_frame(&frame)?;
        }
        for s in self.tcp.iter_mut().flatten() {
            s.conn.on_tick();
        }
        // Parked frames whose hop has resolved go first: they are older
        // than anything still in an outbox. (Checked here: polls are hot
        // and the queue is almost always empty.)
        if !self.link.pending.is_empty() {
            self.link.drain_pending()?;
        }
        self.flush_tcp()?;
        Ok(processed)
    }

    /// Parses one received frame where it lies and dispatches it.
    fn handle_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let Ok((eth, l3)) = EthHeader::parse(frame) else {
            return Ok(()); // drop
        };
        if eth.dst != self.link.dev.mac() && !eth.dst.is_broadcast() {
            return Ok(());
        }
        match eth.ethertype {
            EtherType::Arp => {
                // Resolution may unblock parked frames; `poll` drains
                // them once the receive loop is done.
                if let Some(reply) = self.link.arp.handle(l3) {
                    self.link.dev.transmit(&reply)?;
                    self.link.tx_frames += 1;
                }
            }
            EtherType::Ipv4 => {
                let Ok((ip, l4)) = Ipv4Header::parse(l3) else {
                    return Ok(());
                };
                if ip.dst != self.link.cfg.ip {
                    return Ok(());
                }
                match ip.proto {
                    IpProto::Udp => self.handle_udp(&ip, l4),
                    IpProto::Tcp => self.handle_tcp(&ip, l4)?,
                    IpProto::Icmp => self.handle_icmp(&ip, l4)?,
                    IpProto::Other(_) => {}
                }
            }
            EtherType::Other(_) => {}
        }
        Ok(())
    }

    fn handle_udp(&mut self, ip: &Ipv4Header, l4: &[u8]) {
        let Ok((udp, payload)) = UdpHeader::parse(ip.src, ip.dst, l4) else {
            return;
        };
        if let Some(sock) = self.udp.get_mut(&udp.dst_port) {
            sock.push(Datagram {
                src_ip: ip.src,
                src_port: udp.src_port,
                payload: payload.to_vec(),
            });
        }
        // Unbound port: drop (no ICMP in this stack).
    }

    fn handle_icmp(&mut self, ip: &Ipv4Header, l4: &[u8]) -> Result<(), NetError> {
        let Ok((echo, payload)) = IcmpEcho::parse(l4) else {
            return Ok(());
        };
        if echo.is_request {
            let reply = IcmpEcho {
                is_request: false,
                ..echo
            };
            let len = ICMP_ECHO_HDR_LEN + payload.len();
            self.link
                .send_ipv4(ip.src, IpProto::Icmp, len, |out| reply.emit(payload, out))?;
        } else {
            self.ping_replies.push((ip.src, echo.ident, echo.seq));
        }
        Ok(())
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
    fn udp_end_to_end_with_arp() {
        let (mut a, mut b) = pair();
        b.udp_bind(5353).unwrap();
        a.udp_send(1111, IP_B, 5353, b"ping").unwrap();
        settle(&mut a, &mut b);
        let d = b.udp_recv(5353).expect("datagram");
        assert_eq!(d.payload, b"ping");
        assert_eq!(d.src_ip, IP_A);
        assert_eq!(d.src_port, 1111);
    }

    #[test]
    fn udp_to_unbound_port_dropped() {
        let (mut a, mut b) = pair();
        a.udp_send(1, IP_B, 9, b"nobody home").unwrap();
        settle(&mut a, &mut b);
        assert!(b.udp_recv(9).is_none());
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
        assert_eq!(b.tcp_state(srv).unwrap(), State::Closed);
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
        // A device with no room at all: the SYN's ARP request is refused.
        a.link.dev.capacity = 0;
        let cli = a
            .tcp_connect(IP_B, 9000)
            .expect("backpressure is not failure");
        assert_eq!(a.tcp_state(cli).unwrap(), State::SynSent);
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
        assert!(a.link.pending.is_empty(), "refused frames were parked");

        // A connect that cannot succeed fails before it holds anything.
        let unroutable = Ipv4Addr::new(192, 168, 7, 7);
        assert_eq!(a.tcp_connect(unroutable, 9000), Err(NetError::Unreachable));
        assert_eq!(a.tcp.iter().flatten().count(), 0);
    }

    #[test]
    fn parked_frames_survive_a_device_that_fills_at_resolution() {
        const N: usize = 12;
        let (mut a, mut b) = pair();
        b.udp_bind(5353).unwrap();
        // Park N datagrams behind the unresolved ARP entry for B.
        for i in 0..N as u8 {
            a.udp_send(1111, IP_B, 5353, &[i; 32]).unwrap();
        }
        assert_eq!(a.link.pending.len(), N);
        // B answers the requests; A resolves with room for only 5 frames.
        b.poll().unwrap();
        a.link.dev.capacity = 5;
        assert_eq!(a.poll(), Err(NetError::DeviceFull));
        assert_eq!(a.link.pending.len(), N - 5, "unsent tail stays");
        // Polling again as the device drains delivers the rest.
        for _ in 0..8 {
            b.poll().unwrap();
            assert!(matches!(a.poll(), Ok(_) | Err(NetError::DeviceFull)));
        }
        assert!(a.link.pending.is_empty());
        let got: Vec<u8> = std::iter::from_fn(|| b.udp_recv(5353))
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(
            got,
            (0..N as u8).collect::<Vec<_>>(),
            "all N, in order, once"
        );
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
        fn receive(&mut self) -> Option<Vec<u8>> {
            self.inner.receive()
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

    #[test]
    fn connection_to_closed_port_resets() {
        let (mut a, mut b) = pair();
        let cli = a.tcp_connect(IP_B, 4444).unwrap(); // nobody listening
        settle(&mut a, &mut b);
        assert_eq!(a.tcp_recv(cli, 1), Err(NetError::Reset));
    }

    #[test]
    fn ping_round_trip() {
        let (mut a, mut b) = pair();
        a.ping(IP_B, 77, 3).unwrap();
        settle(&mut a, &mut b);
        assert_eq!(a.ping_reply(77), Some((IP_B, 3)));
        assert_eq!(a.ping_reply(77), None);
        assert_eq!(a.ping_reply(99), None);
    }

    #[test]
    fn off_subnet_routes_via_gateway_mac() {
        // With a gateway configured, off-subnet traffic resolves the
        // gateway's MAC and goes out addressed to it. The gateway end is
        // scripted by hand so the test can inspect the raw wire.
        let clock = Clock::new();
        let (da, mut db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 1500);
        let mut cfg = InterfaceConfig::new(IP_A);
        cfg.gateway = Some(IP_B);
        let mut a = Interface::new(da, cfg, clock);
        let far = Ipv4Addr::new(192, 168, 9, 9);
        a.udp_send(1, far, 2, b"to the internet").unwrap();

        // First wire frame: an ARP request for the *gateway*, not `far`.
        let req = db.receive().expect("arp request");
        let (eth, arp) = EthHeader::parse(&req).unwrap();
        assert_eq!(eth.ethertype, EtherType::Arp);
        let mut gw_arp = crate::arp::ArpCache::new(MacAddr([0xB; 6]), IP_B);
        let reply = gw_arp.handle(arp).expect("request for gateway ip");
        db.transmit(&reply).unwrap();
        a.poll().unwrap();

        // The queued data frame now goes out addressed to the gateway MAC
        // while carrying the far destination IP.
        let data = db.receive().expect("routed data frame");
        let (eth, l3) = EthHeader::parse(&data).unwrap();
        assert_eq!(eth.dst, MacAddr([0xB; 6]));
        let (ip, _) = Ipv4Header::parse(l3).unwrap();
        assert_eq!(ip.dst, far);
    }

    #[test]
    fn off_subnet_requires_gateway() {
        let (mut a, _b) = pair();
        let far = Ipv4Addr::new(192, 168, 1, 1);
        assert_eq!(a.udp_send(1, far, 2, b"x"), Err(NetError::Unreachable));
    }

    #[test]
    fn over_mtu_payload_rejected() {
        let (mut a, _b) = pair();
        let big = vec![0u8; 1500];
        assert_eq!(a.udp_send(1, IP_B, 2, &big), Err(NetError::TooLarge));
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
