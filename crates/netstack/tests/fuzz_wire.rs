//! Wire-format fuzzing: parsers are the first code hostile bytes reach,
//! so they must be total (no panics) on every input, and exact on every
//! roundtrip.
//!
//! Inputs come from the deterministic `cio_sim::SimRng` so the fuzzing is
//! offline and reproducible from the fixed seeds.

use cio_netstack::tcp::{Connection, TcpConfig};
use cio_netstack::wire::{
    EthHeader, EtherType, IpProto, Ipv4Addr, Ipv4Header, MacAddr, TcpHeader, TcpSegment,
};
use cio_sim::{Clock, SimRng};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn rand_vec(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.range(lo, hi);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn parsers_are_total() {
    let mut rng = SimRng::seed_from(0x707a1);
    for _ in 0..256 {
        let bytes = rand_vec(&mut rng, 0, 3000);
        let _ = EthHeader::parse(&bytes);
        let _ = Ipv4Header::parse(&bytes);
        let _ = TcpHeader::parse(A, B, &bytes);
    }
}

#[test]
fn eth_roundtrip_exact() {
    let mut rng = SimRng::seed_from(0xe7);
    for _ in 0..64 {
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        rng.fill_bytes(&mut dst);
        rng.fill_bytes(&mut src);
        let hdr = EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from(rng.next_u64() as u16),
        };
        let payload = rand_vec(&mut rng, 0, 2000);
        let mut frame = Vec::new();
        hdr.emit(&mut frame);
        frame.extend_from_slice(&payload);
        assert_eq!(EthHeader::parse(&frame).unwrap(), (hdr, &payload[..]));
    }
}

#[test]
fn ipv4_roundtrip_exact() {
    let mut rng = SimRng::seed_from(0x1f4);
    for _ in 0..64 {
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        rng.fill_bytes(&mut src);
        rng.fill_bytes(&mut dst);
        let hdr = Ipv4Header {
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
            proto: IpProto::from(rng.next_u64() as u8),
            ttl: rng.next_u64() as u8,
        };
        let payload = rand_vec(&mut rng, 0, 1480);
        let mut packet = Vec::new();
        hdr.emit(payload.len(), &mut packet);
        packet.extend_from_slice(&payload);
        assert_eq!(Ipv4Header::parse(&packet).unwrap(), (hdr, &payload[..]));
    }
}

#[test]
fn tcp_roundtrip_exact() {
    let mut rng = SimRng::seed_from(0x7c9);
    for _ in 0..64 {
        let s = TcpSegment {
            hdr: TcpHeader {
                src_port: rng.next_u64() as u16,
                dst_port: rng.next_u64() as u16,
                seq: rng.next_u64() as u32,
                ack: rng.next_u64() as u32,
                flags: rng.next_u64() as u8,
                window: rng.next_u64() as u16,
            },
            payload: rand_vec(&mut rng, 0, 1460),
        };
        assert_eq!(TcpSegment::parse(A, B, &s.build(A, B)).unwrap(), s);
    }
}

#[test]
fn every_single_byte_corruption_is_rejected_or_differs() {
    // End-to-end checksum property: corrupting any byte of a TCP
    // segment either fails the checksum or (for corruption inside the
    // checksum field making it consistent — impossible for a single
    // byte) changes nothing. It must never parse into *different*
    // accepted content.
    let mut rng = SimRng::seed_from(0xc0440);
    for _ in 0..128 {
        let s = TcpSegment {
            hdr: TcpHeader {
                src_port: 1,
                dst_port: 2,
                seq: 3,
                ack: 4,
                flags: 0x10,
                window: 100,
            },
            payload: rand_vec(&mut rng, 1, 200),
        };
        let mut bytes = s.build(A, B);
        let idx = rng.next_below(bytes.len() as u64) as usize;
        let mask = rng.range(1, 256) as u8;
        bytes[idx] ^= mask;
        match TcpSegment::parse(A, B, &bytes) {
            Err(_) => {}
            Ok(parsed) => assert_eq!(parsed, s, "corruption accepted as different content"),
        }
    }
}

/// The TCP state machine is total: any sequence of arbitrary segments
/// fed to a connection never panics and leaves it in a valid state.
#[test]
fn tcp_state_machine_is_total() {
    let mut rng = SimRng::seed_from(0x7c9572);
    for _case in 0..64 {
        let clock = Clock::new();
        let mut conn = Connection::connect(1000, 2000, 42, clock, TcpConfig::default());
        let n_segs = rng.next_below(24) as usize;
        for _ in 0..n_segs {
            let seg = TcpSegment {
                hdr: TcpHeader {
                    src_port: 2000,
                    dst_port: 1000,
                    seq: rng.next_u64() as u32,
                    ack: rng.next_u64() as u32,
                    flags: rng.next_u64() as u8,
                    window: rng.next_u64() as u16,
                },
                payload: rand_vec(&mut rng, 0, 64),
            };
            let _ = conn.on_segment(&seg);
            while conn.poll_outbox().is_some() {}
        }
        conn.on_tick();
    }
}
