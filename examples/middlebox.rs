//! A confidential middlebox (the ShieldBox/SafeBricks scenario): a packet
//! filter running inside a TEE, fed raw L2 frames over the safe ring.
//!
//! ```text
//! cargo run --example middlebox
//! ```
//!
//! The middlebox never terminates connections; it inspects frames at line
//! rate and drops a deny-list (here: telnet, port 23). The interesting
//! part is the boundary: frames arrive over the cio-ring with masked
//! indices and clamped lengths, so even a hostile host feeding it garbage
//! cannot push the filter out of bounds — demonstrated live at the end.

use cio_bench::transport::{bench_ring_config, cio_pair};
use cio_mem::MemView;
use cio_netstack::wire::{
    EthHeader, EtherType, IpProto, Ipv4Addr, Ipv4Header, TcpHeader, TCP_HDR_LEN,
};
use cio_netstack::MacAddr;
use cio_sim::CostModel;

/// The filter: drop TCP port 23, pass everything else. Frames are
/// inspected where they lie — nothing is copied to classify one.
fn verdict(frame: &[u8]) -> (&'static str, bool) {
    let Ok((eth, l3)) = EthHeader::parse(frame) else {
        return ("malformed-l2", false);
    };
    if eth.ethertype != EtherType::Ipv4 {
        return ("non-ip", true);
    }
    let Ok((ip, l4)) = Ipv4Header::parse(l3) else {
        return ("malformed-ip", false);
    };
    if ip.proto != IpProto::Tcp {
        return ("non-tcp", true);
    }
    let Ok((tcp, _payload)) = TcpHeader::parse(ip.src, ip.dst, l4) else {
        return ("malformed-tcp", false);
    };
    if tcp.dst_port == 23 || tcp.src_port == 23 {
        ("telnet-DENY", false)
    } else {
        ("tcp-pass", true)
    }
}

fn frame(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
    let a = Ipv4Addr::new(192, 168, 1, 10);
    let b = Ipv4Addr::new(192, 168, 1, 20);
    let mut out = Vec::new();
    EthHeader {
        dst: MacAddr([2; 6]),
        src: MacAddr([1; 6]),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut out);
    Ipv4Header {
        src: a,
        dst: b,
        proto: IpProto::Tcp,
        ttl: 64,
    }
    .emit(TCP_HDR_LEN + payload.len(), &mut out);
    TcpHeader {
        src_port,
        dst_port,
        seq: 1,
        ack: 0,
        flags: cio_netstack::wire::tcp_flags::ACK,
        window: 1000,
    }
    .emit(a, b, (payload, &[]), &mut out);
    out
}

fn main() {
    println!("== confidential middlebox over the safe ring ==\n");
    // Host->TEE ingress ring and TEE->host egress ring.
    let cfg = bench_ring_config(2048);
    let (mem, _gp, _hc, mut host_in, mut mb_in) = cio_pair(cfg.clone(), CostModel::default());
    let (_mem2, mut mb_out, mut host_out, _hp2, _gc2) = cio_pair(cfg, CostModel::default());

    let traffic = [
        frame(40_000, 80, b"GET / HTTP/1.1"),
        frame(40_001, 23, b"telnet login attempt"),
        frame(40_002, 443, b"TLS client hello"),
        frame(23, 40_003, b"telnet response"),
        frame(40_004, 8080, b"api call"),
    ];
    for f in &traffic {
        host_in.produce(f).unwrap();
    }

    // The middlebox polls, classifies, and forwards survivors.
    let mut passed = 0;
    let mut dropped = 0;
    while let Some(f) = mb_in.consume().unwrap() {
        let (label, pass) = verdict(&f);
        println!("  {:>4}B frame: {label}", f.len());
        if pass {
            mb_out.produce(&f).unwrap();
            passed += 1;
        } else {
            dropped += 1;
        }
    }
    let mut forwarded = 0;
    while host_out.consume().unwrap().is_some() {
        forwarded += 1;
    }
    println!("\npassed {passed}, dropped {dropped}, forwarded to wire {forwarded}");
    assert_eq!(passed, forwarded);
    assert_eq!(dropped, 2);

    // A hostile host scribbles the ingress ring; the filter must survive.
    println!("\nhost scribbles hostile offsets/lengths over the ingress ring...");
    let ring = mb_in.ring().clone();
    for i in 0..ring.config().slots {
        let slot = ring.slot_addr(i);
        mem.host().write_u32(slot, 0xFFFF_FFF0).unwrap();
        mem.host().write_u32(slot.add(4), 0xFFFF_FFFF).unwrap();
    }
    host_in
        .produce(&frame(1, 2, b"legit after attack"))
        .unwrap();
    let mut survived = 0;
    while let Some(f) = mb_in.consume().unwrap() {
        let _ = verdict(&f); // masked + clamped: garbage classifies, never crashes
        survived += 1;
    }
    println!(
        "consumed {survived} post-attack deliveries with zero out-of-bounds accesses \
         (masking is the whole defense — no checks to forget)"
    );
}
