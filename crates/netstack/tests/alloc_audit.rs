//! Steady-state allocation audit for the TCP/IP segment path.
//!
//! A segment's bytes live in the sender's send ring, the interface's one
//! frame buffer, and the receiver's receive ring; headers travel by
//! value. Once those buffers have grown to their high-water marks, moving
//! MSS-sized segments — data one way, ACKs and window updates the other —
//! must not touch the heap: zero times through a sans-io [`Connection`]
//! pair, and zero times through an [`Interface`] pair over a
//! [`PairDevice`] — a receive swaps the interface's buffer for the
//! device's, and a transmit reuses a buffer a receive handed back.
//! Segments that arrive out of order wait in the connection's reassembly
//! area, which is allocated once: reordering is allocation-free too.
//!
//! A counting `#[global_allocator]` enforces it, counting only the thread
//! that armed the audit (see `tests/zero_alloc.rs` at the repository root
//! for why); the two audits share one `#[test]` so neither can arm the
//! flag under the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cio_netstack::tcp::{Connection, State, TcpConfig};
use cio_netstack::{Interface, InterfaceConfig, Ipv4Addr, MacAddr, PairDevice};
use cio_sim::Clock;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static AUDITED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    if AUDITED.with(std::cell::Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers all allocation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    AUDITED.with(|a| a.set(true));
    f();
    AUDITED.with(|a| a.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

const SEGMENTS: usize = 1_000;
const WARMUP: usize = 64;

/// Moves everything queued on `from` into `to`, in place.
fn deliver(from: &mut Connection, to: &mut Connection) -> usize {
    let mut moved = 0;
    while let Some((hdr, (a, b))) = from.peek_outbox() {
        // An MSS-sized range may straddle the ring's wrap point; a wire
        // would carry it contiguously, so this harness joins the halves in
        // a stack buffer (the interface does it in its frame buffer).
        let mut wire = [0u8; 1460];
        let n = a.len() + b.len();
        wire[..a.len()].copy_from_slice(a);
        wire[a.len()..n].copy_from_slice(b);
        to.on_segment_in_place(&hdr, &wire[..n]).expect("no resets");
        from.pop_outbox();
        moved += 1;
    }
    moved
}

fn connection_round(c: &mut Connection, s: &mut Connection, data: &[u8], sink: &mut Vec<u8>) {
    c.send(data).expect("established");
    while deliver(c, s) + deliver(s, c) > 0 {}
    sink.clear();
    assert_eq!(s.recv_into(sink, usize::MAX), data.len(), "segment lost");
    assert_eq!(sink, data);
    // The read queued a window update; carry it (and anything it frees).
    while deliver(s, c) + deliver(c, s) > 0 {}
}

fn audit_connection_pair() {
    let clock = Clock::new();
    let cfg = TcpConfig::default();
    let mss = cfg.mss;
    let mut c = Connection::connect(40_000, 80, 1_000, clock.clone(), cfg.clone());
    let mut s = Connection::listen(80, 9_000, clock, cfg);
    while deliver(&mut c, &mut s) + deliver(&mut s, &mut c) > 0 {}
    assert_eq!(c.state(), State::Established);
    assert_eq!(s.state(), State::Established);

    let data: Vec<u8> = (0..mss).map(|i| (i * 7) as u8).collect();
    let mut sink = Vec::with_capacity(mss);
    for _ in 0..WARMUP {
        connection_round(&mut c, &mut s, &data, &mut sink);
    }
    let n = allocations_in(|| {
        for _ in 0..SEGMENTS {
            connection_round(&mut c, &mut s, &data, &mut sink);
        }
    });
    assert_eq!(n, 0, "sans-io segment path allocated {n} times");
}

/// A round whose two segments reach the receiver in reverse order: the
/// second waits in reassembly until the first fills the gap.
fn reordered_round(c: &mut Connection, s: &mut Connection, data: &[u8], sink: &mut Vec<u8>) {
    c.send(data).expect("established");
    let mut wire = [[0u8; 1460]; 2];
    let mut segs = [None; 2];
    for (seg, buf) in segs.iter_mut().zip(&mut wire) {
        let (hdr, (a, b)) = c.peek_outbox().expect("two segments");
        let n = a.len() + b.len();
        buf[..a.len()].copy_from_slice(a);
        buf[a.len()..n].copy_from_slice(b);
        *seg = Some((hdr, n));
        c.pop_outbox();
    }
    for (seg, buf) in segs.iter().zip(&wire).rev() {
        let (hdr, n) = seg.expect("filled above");
        s.on_segment_in_place(&hdr, &buf[..n]).expect("no resets");
    }
    sink.clear();
    assert_eq!(
        s.recv_into(sink, usize::MAX),
        data.len(),
        "reassembly lost bytes"
    );
    assert_eq!(sink, data);
    while deliver(s, c) + deliver(c, s) > 0 {}
}

fn audit_reordered_pair() {
    let clock = Clock::new();
    let cfg = TcpConfig::default();
    let mss = cfg.mss;
    let mut c = Connection::connect(40_000, 80, 1_000, clock.clone(), cfg.clone());
    let mut s = Connection::listen(80, 9_000, clock, cfg);
    while deliver(&mut c, &mut s) + deliver(&mut s, &mut c) > 0 {}
    let data: Vec<u8> = (0..2 * mss).map(|i| (i * 11) as u8).collect();
    let mut sink = Vec::with_capacity(2 * mss);
    for _ in 0..WARMUP {
        reordered_round(&mut c, &mut s, &data, &mut sink);
    }
    let n = allocations_in(|| {
        for _ in 0..SEGMENTS {
            reordered_round(&mut c, &mut s, &data, &mut sink);
        }
    });
    assert_eq!(n, 0, "out-of-order reassembly allocated {n} times");
}

type Iface = Interface<PairDevice>;

fn settle(a: &mut Iface, b: &mut Iface) -> usize {
    let mut frames = 0;
    loop {
        let n = a.poll().expect("poll a") + b.poll().expect("poll b");
        if n == 0 {
            return frames;
        }
        frames += n;
    }
}

fn audit_interface_pair() {
    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    let clock = Clock::new();
    let (da, db) = PairDevice::pair([MacAddr([0xA; 6]), MacAddr([0xB; 6])], 1500);
    let mut a = Interface::new(da, InterfaceConfig::new(IP_A), clock.clone());
    let mut b = Interface::new(db, InterfaceConfig::new(IP_B), clock);
    b.tcp_listen(80);
    let cli = a.tcp_connect(IP_B, 80).expect("connect");
    settle(&mut a, &mut b);
    let srv = b.tcp_accept(80).expect("inbound connection");

    let mss = TcpConfig::default().mss;
    let data: Vec<u8> = (0..mss).map(|i| (i * 13) as u8).collect();
    let mut sink = Vec::with_capacity(mss);
    let mut round = |a: &mut Iface, b: &mut Iface| {
        a.tcp_send(cli, &data).expect("send");
        let mut frames = settle(a, b);
        sink.clear();
        assert_eq!(b.tcp_recv_into(srv, &mut sink).expect("recv"), data.len());
        assert_eq!(sink, data);
        frames += settle(a, b);
        frames
    };
    for _ in 0..WARMUP {
        round(&mut a, &mut b);
    }
    let mut frames = 0;
    let n = allocations_in(|| {
        for _ in 0..SEGMENTS {
            frames += round(&mut a, &mut b);
        }
    });
    assert!(frames >= 2 * SEGMENTS, "data and ACK frames: {frames}");
    assert_eq!(n, 0, "{n} allocations for {frames} frames");
}

#[test]
fn steady_state_segment_path_does_not_allocate() {
    audit_connection_pair();
    audit_reordered_pair();
    audit_interface_pair();
}
