//! When the TCP stack acknowledges, seen on the wire between two
//! [`Interface`]s over a [`PairDevice`] cable.
//!
//! In-order data is acknowledged late and cumulatively: by the next
//! segment the receiver sends anyway, by a pure ACK once two full-sized
//! segments are unacknowledged or a read opens the window by at least
//! min(MSS, window / 2), or when [`DELAYED_ACK`] expires. Out-of-order
//! data and FINs are acknowledged in the poll that received them. Each end
//! of the cable is a [`Tap`] that records every TCP segment its interface
//! transmits and can drop or hold back data segments.

use cio_netstack::tcp::{TcpConfig, DELAYED_ACK};
use cio_netstack::wire::{tcp_flags, EthHeader, EtherType, Ipv4Header, TcpHeader};
use cio_netstack::{
    Interface, InterfaceConfig, Ipv4Addr, MacAddr, NetDevice, NetError, PairDevice, SocketHandle,
};
use cio_sim::{Clock, Cycles};

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7;

/// One end of the cable, recording what its interface transmits.
struct Tap {
    inner: PairDevice,
    /// Every TCP segment transmitted: its header and payload length.
    sent: Vec<(TcpHeader, usize)>,
    /// Data segments still to be lost on the wire.
    drop_data: usize,
    /// Data segments still to be held back, and the frames held.
    hold_data: usize,
    held: Vec<Vec<u8>>,
}

impl Tap {
    fn new(inner: PairDevice) -> Self {
        Tap {
            inner,
            sent: Vec::new(),
            drop_data: 0,
            hold_data: 0,
            held: Vec::new(),
        }
    }

    /// Puts the held frames on the wire, in the order they were sent.
    fn release(&mut self) {
        for frame in std::mem::take(&mut self.held) {
            self.inner.transmit(&frame).expect("room on the cable");
        }
    }

    fn data_segments(&self) -> usize {
        self.sent.iter().filter(|(_, len)| *len > 0).count()
    }

    fn pure_acks(&self) -> usize {
        self.sent
            .iter()
            .filter(|(h, len)| *len == 0 && h.flags == tcp_flags::ACK)
            .count()
    }
}

impl NetDevice for Tap {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let (eth, l3) = EthHeader::parse(frame)?;
        if eth.ethertype == EtherType::Ipv4 {
            let (ip, l4) = Ipv4Header::parse(l3)?;
            let (tcp, payload) = TcpHeader::parse(ip.src, ip.dst, l4)?;
            self.sent.push((tcp, payload.len()));
            if !payload.is_empty() && self.drop_data > 0 {
                self.drop_data -= 1;
                return Ok(());
            }
            if !payload.is_empty() && self.hold_data > 0 {
                self.hold_data -= 1;
                self.held.push(frame.to_vec());
                return Ok(());
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

type Iface = Interface<Tap>;

/// An established connection from `a` (client) to `b` (server), whose
/// server end has a receive window of `window` bytes.
struct Pair {
    clock: Clock,
    a: Iface,
    b: Iface,
    cli: SocketHandle,
    srv: SocketHandle,
}

impl Pair {
    fn new(window: u16) -> Pair {
        Pair::over(window, 1500)
    }

    /// A pair over a cable of `mtu` IP bytes per frame.
    fn over(window: u16, mtu: usize) -> Pair {
        let clock = Clock::new();
        let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], mtu);
        let mut cfg_b = InterfaceConfig::new(IP_B);
        cfg_b.tcp.window = window;
        let mut a = Interface::new(Tap::new(da), InterfaceConfig::new(IP_A), clock.clone());
        let mut b = Interface::new(Tap::new(db), cfg_b, clock.clone());
        b.tcp_listen(PORT);
        let cli = a.tcp_connect(IP_B, PORT).expect("connect");
        let mut p = Pair {
            clock,
            a,
            b,
            cli,
            srv: SocketHandle(usize::MAX),
        };
        p.settle();
        p.srv = p.b.tcp_accept(PORT).expect("inbound connection");
        assert!(p.a.tcp_established(p.cli).unwrap());
        p
    }

    /// Polls both ends until neither receives a frame.
    fn settle(&mut self) {
        while self.a.poll().unwrap() + self.b.poll().unwrap() > 0 {}
    }

    fn frames(&self) -> u64 {
        self.a.frames_sent() + self.b.frames_sent()
    }

    fn a_tap(&mut self) -> &mut Tap {
        self.a.device_mut()
    }

    fn b_tap(&mut self) -> &mut Tap {
        self.b.device_mut()
    }

    /// `a` sends `data`; both ends poll and `b` reads until it has all of
    /// it. Returns what `b` read.
    fn one_way(&mut self, data: &[u8]) -> Vec<u8> {
        self.a.tcp_send(self.cli, data).expect("send");
        let mut got = Vec::new();
        for _ in 0..1_000 {
            self.a.poll().unwrap();
            self.b.poll().unwrap();
            self.b.tcp_recv_into(self.srv, &mut got).unwrap();
            if got.len() >= data.len() {
                break;
            }
        }
        got
    }
}

/// `a` sends `req`, `b` echoes what it read, `a` reads the echo.
fn echo(p: &mut Pair, req: &[u8]) {
    p.a.tcp_send(p.cli, req).unwrap();
    p.b.poll().unwrap();
    let got = p.b.tcp_recv(p.srv, usize::MAX).unwrap();
    assert_eq!(got, req);
    p.b.tcp_send(p.srv, &got).unwrap();
    p.a.poll().unwrap();
    assert_eq!(p.a.tcp_recv(p.cli, usize::MAX).unwrap(), req);
}

#[test]
fn a_steady_state_echo_takes_two_frames() {
    let mut p = Pair::new(65_535);
    let req = [0x5A; 64];
    for _ in 0..8 {
        echo(&mut p, &req);
    }
    let before = p.frames();
    for _ in 0..100 {
        let request_ends = {
            let (h, len) = p.a_tap().sent.last().copied().unwrap();
            h.seq.wrapping_add(len as u32)
        };
        echo(&mut p, &req);
        // The echo acknowledged the request it answers.
        let (reply, len) = *p.b_tap().sent.last().unwrap();
        assert_eq!(len, req.len());
        assert_eq!(reply.ack, request_ends.wrapping_add(req.len() as u32));
    }
    p.settle();
    assert_eq!(p.frames() - before, 200, "request and echo, nothing else");
    assert_eq!(p.clock.now(), Cycles(0), "no timer was needed");
}

#[test]
fn a_16k_transfer_sends_an_ack_per_two_segments_at_most() {
    let mut p = Pair::new(65_535);
    let data: Vec<u8> = (0..16_384u32).map(|i| (i * 7) as u8).collect();
    let acks_before = p.b_tap().pure_acks();
    let segments_before = p.a_tap().data_segments();
    let mss = TcpConfig::default().mss;

    // All twelve segments arrive in one poll. Two full-sized segments are
    // reason enough to acknowledge before any read, and the six such
    // pairs leave as one cumulative ACK for all of them.
    p.a.tcp_send(p.cli, &data).unwrap();
    let (last, len) = *p.a_tap().sent.last().unwrap();
    assert_eq!(p.b.poll().unwrap(), data.len().div_ceil(mss));
    assert_eq!(p.b_tap().pure_acks() - acks_before, 1, "one ACK per poll");
    let (ack, _) = *p.b_tap().sent.last().unwrap();
    assert_eq!(ack.ack, last.seq.wrapping_add(len as u32));

    let mut got = Vec::new();
    p.b.tcp_recv_into(p.srv, &mut got).unwrap();
    assert_eq!(got, data);
    p.settle();
    let segments = p.a_tap().data_segments() - segments_before;
    let acks = p.b_tap().pure_acks() - acks_before;
    assert_eq!(segments, data.len().div_ceil(mss));
    assert!(
        acks <= segments.div_ceil(2) + 1,
        "{acks} pure ACKs for {segments} data segments"
    );
    assert_eq!(p.clock.now(), Cycles(0), "no timer was needed");
}

#[test]
fn a_lone_ack_waits_for_its_timer_and_not_longer() {
    let mut p = Pair::new(65_535);
    p.a.tcp_send(p.cli, b"no reply to this").unwrap();
    let seg_end = {
        let (h, len) = *p.a_tap().sent.last().unwrap();
        h.seq.wrapping_add(len as u32)
    };
    let acks = p.b_tap().sent.len();
    p.b.poll().unwrap();
    // Read too little to open the window: nothing but the timer is left.
    assert_eq!(p.b.tcp_recv(p.srv, usize::MAX).unwrap().len(), 16);
    p.clock.advance(Cycles(DELAYED_ACK.get() - 1));
    p.settle();
    assert_eq!(p.b_tap().sent.len(), acks, "the ACK left before its time");
    p.clock.advance(Cycles(1));
    p.b.poll().unwrap();
    let sent = &p.b_tap().sent[acks..];
    assert_eq!(sent.len(), 1, "one pure ACK when the timer expires");
    let (h, len) = sent[0];
    assert_eq!((h.flags, len, h.ack), (tcp_flags::ACK, 0, seg_end));
    p.settle();
    assert_eq!(p.b_tap().sent.len(), acks + 1, "and only one");
}

#[test]
fn out_of_order_data_and_a_fin_are_acked_in_the_poll_that_got_them() {
    let mut p = Pair::new(65_535);
    let first_seq = {
        let (h, len) = *p.a_tap().sent.last().unwrap();
        h.seq.wrapping_add(len as u32)
    };
    // The first of two segments is held back on the wire: the second
    // arrives ahead of it.
    p.a_tap().hold_data = 1;
    p.a.tcp_send(p.cli, &[1; 1000]).unwrap();
    p.a.tcp_send(p.cli, &[2; 1000]).unwrap();
    let sent = p.b_tap().sent.len();
    assert_eq!(p.b.poll().unwrap(), 1);
    let after = &p.b_tap().sent[sent..];
    assert_eq!(after.len(), 1, "a duplicate ACK for the gap");
    assert_eq!((after[0].0.ack, after[0].1), (first_seq, 0));

    // The gap fills: that too is acknowledged at once, for both segments.
    p.a_tap().release();
    let sent = p.b_tap().sent.len();
    assert_eq!(p.b.poll().unwrap(), 1);
    let after = &p.b_tap().sent[sent..];
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].0.ack, first_seq.wrapping_add(2_000));
    assert_eq!(p.b.tcp_recv(p.srv, usize::MAX).unwrap().len(), 2_000);
    p.settle();

    // A FIN is acknowledged in the poll that received it.
    p.a.tcp_close(p.cli).unwrap();
    let (fin, _) = *p.a_tap().sent.last().unwrap();
    assert_ne!(fin.flags & tcp_flags::FIN, 0);
    let sent = p.b_tap().sent.len();
    assert_eq!(p.b.poll().unwrap(), 1);
    let after = &p.b_tap().sent[sent..];
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].0.ack, fin.seq.wrapping_add(1));
    assert!(p.b.tcp_peer_closed(p.srv).unwrap());
    assert_eq!(p.clock.now(), Cycles(0), "no timer was needed");
}

#[test]
fn a_small_window_reopens_on_reads_and_everything_arrives() {
    let mut p = Pair::new(1_000);
    let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(p.one_way(&data), data);
    assert_eq!(p.clock.now(), Cycles(0), "window updates, not timers");
    // Every segment fitted the window.
    assert!(p.a_tap().sent.iter().all(|(_, len)| *len <= 1_000));
}

#[test]
fn a_segment_lost_on_the_link_is_recovered_by_the_rto() {
    let mut p = Pair::new(65_535);
    p.a_tap().drop_data = 1;
    p.a.tcp_send(p.cli, b"lost once").unwrap();
    p.settle();
    assert_eq!(p.b.tcp_recv(p.srv, usize::MAX).unwrap(), b"");
    let rto = TcpConfig::default().rto;
    p.clock.advance(Cycles(rto.get() + 1));
    p.settle();
    assert_eq!(p.b.tcp_recv(p.srv, usize::MAX).unwrap(), b"lost once");
    assert_eq!(p.a_tap().data_segments(), 2, "one send, one retransmission");
}

/// A device whose host coalesces (or whose MTU is the guest↔host frame
/// limit) hands TCP one segment for a whole burst; the two-full-segments
/// rule counts bytes, not segments, so a burst of at least two MSS is
/// acknowledged in the poll that received it, not after `DELAYED_ACK`.
#[test]
fn a_coalesced_burst_of_two_segments_is_acked_in_the_same_poll() {
    let mss = TcpConfig::default().mss;
    let mut p = Pair::over(65_535, 32 * 1024 - 14);
    let burst: Vec<u8> = (0..2 * mss + 100).map(|i| i as u8).collect();
    let acks_before = p.b_tap().pure_acks();
    p.a.tcp_send(p.cli, &burst).unwrap();
    assert_eq!(
        p.a_tap().data_segments(),
        1,
        "the burst left as one segment"
    );
    p.b.poll().unwrap();
    assert_eq!(
        p.b_tap().pure_acks(),
        acks_before + 1,
        "acknowledged at once"
    );
    let (ack, _) = *p.b_tap().sent.last().unwrap();
    assert_eq!(
        ack.ack,
        p.a_tap().sent.last().unwrap().0.seq + burst.len() as u32
    );
    assert_eq!(p.clock.now(), Cycles(0), "no timer was needed");
    assert_eq!(p.b.tcp_recv(p.srv, usize::MAX).unwrap(), burst);
}
