//! Differential tests for the in-place wire path.
//!
//! The stack builds a frame by appending Ethernet, IPv4 and TCP headers
//! and the payload to one buffer and checksumming in place, and reads a
//! frame by parsing the same three layers where the device put it. Both
//! replaced a chain of owned per-layer `build()` / `parse()` calls. That
//! chain is kept here, verbatim in behaviour, as the oracle: the new path
//! must emit byte-for-byte the frames the old one did and accept exactly
//! the frames the old one accepted. The checksum has its own reference,
//! the 16-bit-at-a-time loop of RFC 1071.
//!
//! Inputs come from the deterministic `cio_sim::SimRng`.

use cio_netstack::wire::{
    inet_checksum, transport_checksum, EthHeader, EtherType, IpProto, Ipv4Addr, Ipv4Header,
    MacAddr, TcpHeader, ETH_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN,
};
use cio_netstack::{Interface, InterfaceConfig, NetDevice, PairDevice};
use cio_sim::{Clock, SimRng};

/// The per-layer owned builders and parsers the stack used before the
/// in-place path, and the word-at-a-time checksum under them.
mod oracle {
    use super::*;
    use cio_netstack::NetError;

    pub fn inet_checksum(data: &[u8]) -> u16 {
        let mut sum = 0u32;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
        let mut buf = Vec::with_capacity(12 + segment.len());
        buf.extend_from_slice(&src.0);
        buf.extend_from_slice(&dst.0);
        buf.push(0);
        buf.push(proto);
        buf.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        buf.extend_from_slice(segment);
        inet_checksum(&buf)
    }

    pub fn tcp_build(h: &TcpHeader, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = vec![0u8; TCP_HDR_LEN + payload.len()];
        out[0..2].copy_from_slice(&h.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&h.seq.to_be_bytes());
        out[8..12].copy_from_slice(&h.ack.to_be_bytes());
        out[12] = (TCP_HDR_LEN as u8 / 4) << 4;
        out[13] = h.flags;
        out[14..16].copy_from_slice(&h.window.to_be_bytes());
        out[TCP_HDR_LEN..].copy_from_slice(payload);
        let csum = transport_checksum(src, dst, 6, &out);
        out[16..18].copy_from_slice(&csum.to_be_bytes());
        out
    }

    pub fn ipv4_build(h: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let total = IPV4_HDR_LEN + payload.len();
        let mut out = vec![0u8; total];
        out[0] = 0x45;
        out[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        out[6..8].copy_from_slice(&0x4000u16.to_be_bytes());
        out[8] = h.ttl;
        out[9] = h.proto.into();
        out[12..16].copy_from_slice(&h.src.0);
        out[16..20].copy_from_slice(&h.dst.0);
        let csum = inet_checksum(&out[..IPV4_HDR_LEN]);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        out[IPV4_HDR_LEN..].copy_from_slice(payload);
        out
    }

    pub fn eth_build(h: &EthHeader, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETH_HDR_LEN + payload.len());
        out.extend_from_slice(&h.dst.0);
        out.extend_from_slice(&h.src.0);
        out.extend_from_slice(&u16::from(h.ethertype).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The whole chain: segment, then packet, then frame.
    pub fn frame(eth: &EthHeader, ip: &Ipv4Header, tcp: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        eth_build(
            eth,
            &ipv4_build(ip, &tcp_build(tcp, payload, ip.src, ip.dst)),
        )
    }

    pub fn eth_parse(data: &[u8]) -> Result<(EthHeader, Vec<u8>), NetError> {
        if data.len() < ETH_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let hdr = EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([data[12], data[13]]).into(),
        };
        Ok((hdr, data[ETH_HDR_LEN..].to_vec()))
    }

    pub fn ipv4_parse(data: &[u8]) -> Result<(Ipv4Header, Vec<u8>), NetError> {
        if data.len() < IPV4_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let vihl = data[0];
        if vihl >> 4 != 4 {
            return Err(NetError::Malformed);
        }
        let ihl = usize::from(vihl & 0xF) * 4;
        if ihl != IPV4_HDR_LEN || data.len() < ihl {
            return Err(NetError::Malformed);
        }
        if inet_checksum(&data[..ihl]) != 0 {
            return Err(NetError::BadChecksum);
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || total_len > data.len() {
            return Err(NetError::Malformed);
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        if flags_frag & 0x3FFF != 0 {
            return Err(NetError::Malformed);
        }
        let hdr = Ipv4Header {
            src: Ipv4Addr([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr([data[16], data[17], data[18], data[19]]),
            proto: data[9].into(),
            ttl: data[8],
        };
        Ok((hdr, data[ihl..total_len].to_vec()))
    }

    pub fn tcp_parse(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        data: &[u8],
    ) -> Result<(TcpHeader, Vec<u8>), NetError> {
        if data.len() < TCP_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if data_off < TCP_HDR_LEN || data_off > data.len() {
            return Err(NetError::Malformed);
        }
        if transport_checksum(src, dst, 6, data) != 0 {
            return Err(NetError::BadChecksum);
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: data[13],
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((hdr, data[data_off..].to_vec()))
    }

    /// What the old `handle_frame` let through to TCP demultiplexing on an
    /// interface with the given addresses.
    pub fn accepts(frame: &[u8], mac: MacAddr, ip: Ipv4Addr) -> Option<(TcpHeader, Vec<u8>)> {
        let (eth, l3) = eth_parse(frame).ok()?;
        if eth.dst != mac && !eth.dst.is_broadcast() {
            return None;
        }
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (iph, l4) = ipv4_parse(&l3).ok()?;
        if iph.dst != ip || iph.proto != IpProto::Tcp {
            return None;
        }
        tcp_parse(iph.src, iph.dst, &l4).ok()
    }
}

const MAC_A: MacAddr = MacAddr([0xA; 6]);
const MAC_B: MacAddr = MacAddr([0xB; 6]);
const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const RST: u8 = 0x04;

fn rand_vec(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// One frame the way `Interface` builds it: three header emits and the
/// payload — handed over as the two halves of a ring split at `split` —
/// appended to one buffer.
fn emit_in_place(
    eth: &EthHeader,
    ip: &Ipv4Header,
    tcp: &TcpHeader,
    payload: &[u8],
    split: usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    eth.emit(out);
    ip.emit(TCP_HDR_LEN + payload.len(), out);
    tcp.emit(ip.src, ip.dst, payload.split_at(split), out);
}

#[test]
fn in_place_emit_is_byte_identical_to_the_owned_chain() {
    let mut rng = SimRng::seed_from(0xD1FF_E417);
    let mut frame = Vec::new();
    // Boundary payload sizes, odd sizes, then a random sweep; every flag
    // byte (all 256 combinations) is covered several times over.
    let sizes = [0usize, 1, 2, 3, 7, 8, 9, 15, 17, 535, 1024, 1459, 1460];
    for case in 0..1024usize {
        let len = match sizes.get(case) {
            Some(&len) => len,
            None => rng.range(0, 1461),
        };
        let payload = rand_vec(&mut rng, len);
        let addr = |rng: &mut SimRng| Ipv4Addr((rng.next_u64() as u32).to_be_bytes());
        let mac = |rng: &mut SimRng| {
            let mut m = [0u8; 6];
            rng.fill_bytes(&mut m);
            MacAddr(m)
        };
        let eth = EthHeader {
            dst: mac(&mut rng),
            src: mac(&mut rng),
            ethertype: EtherType::Ipv4,
        };
        let ip = Ipv4Header {
            src: addr(&mut rng),
            dst: addr(&mut rng),
            proto: IpProto::Tcp,
            ttl: rng.next_u64() as u8,
        };
        let tcp = TcpHeader {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            flags: case as u8,
            window: rng.next_u64() as u16,
        };
        let split = rng.range(0, len + 1);
        emit_in_place(&eth, &ip, &tcp, &payload, split, &mut frame);
        assert_eq!(
            frame,
            oracle::frame(&eth, &ip, &tcp, &payload),
            "case {case}: {len} B payload split at {split}, flags {:#04x}",
            tcp.flags
        );
    }
}

/// An interface at `MAC_B`/`IP_B` with no sockets and its peer's ARP entry
/// learned, plus the peer's end of the cable. A TCP segment that passes
/// every check on the way in is answered with exactly one RST; anything
/// dropped on the way is answered with nothing.
fn probe() -> (Interface<PairDevice>, PairDevice) {
    let (peer, dev) = PairDevice::pair([MAC_A, MAC_B], 1500);
    let mut iface = Interface::new(dev, InterfaceConfig::new(IP_B), Clock::new());
    let mut peer = peer;
    let who_has = cio_netstack::arp::ArpCache::new(MAC_A, IP_A).request_frame(IP_B);
    peer.transmit(&who_has).unwrap();
    iface.poll().unwrap();
    assert!(peer.receive().is_some(), "arp reply");
    (iface, peer)
}

/// Feeds `frame` to the probe and checks its reaction against the oracle's
/// verdict: dropped by both, or accepted by both with the same parse (the
/// RST echoes the parsed ports, sequence numbers and payload length).
fn check_verdict(
    iface: &mut Interface<PairDevice>,
    peer: &mut PairDevice,
    frame: &[u8],
    what: &str,
) {
    peer.transmit(frame).unwrap();
    iface.poll().unwrap();
    let reply = peer.receive();
    assert!(peer.receive().is_none(), "{what}: more than one reply");
    match oracle::accepts(frame, MAC_B, IP_B).filter(|(h, _)| h.flags & RST == 0) {
        None => assert!(reply.is_none(), "{what}: accepted a frame the oracle drops"),
        Some((hdr, payload)) => {
            let reply =
                reply.unwrap_or_else(|| panic!("{what}: dropped a frame the oracle accepts"));
            let eth = EthHeader {
                dst: MAC_A,
                src: MAC_B,
                ethertype: EtherType::Ipv4,
            };
            // The sender's address is whatever the (possibly mutated but
            // still valid) IPv4 header said.
            let (_, l3) = oracle::eth_parse(frame).unwrap();
            let (iph, _) = oracle::ipv4_parse(&l3).unwrap();
            let ip = Ipv4Header {
                src: IP_B,
                dst: iph.src,
                proto: IpProto::Tcp,
                ttl: 64,
            };
            let rst = TcpHeader {
                src_port: hdr.dst_port,
                dst_port: hdr.src_port,
                seq: hdr.ack,
                ack: hdr.seq.wrapping_add(payload.len() as u32),
                flags: RST | 0x10,
                window: 0,
            };
            assert_eq!(reply, oracle::frame(&eth, &ip, &rst, &[]), "{what}");
        }
    }
}

/// Rewrites the IPv4 header checksum after a deliberate header edit, so
/// the edited field — not the checksum — is what the parser must catch.
fn fix_ip_checksum(frame: &mut [u8]) {
    let ip = &mut frame[ETH_HDR_LEN..ETH_HDR_LEN + IPV4_HDR_LEN];
    ip[10..12].copy_from_slice(&[0, 0]);
    let csum = oracle::inet_checksum(ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
}

#[test]
fn in_place_parse_accepts_exactly_what_the_owned_parsers_did() {
    let mut rng = SimRng::seed_from(0xD1FF_9A45);
    let (mut iface, mut peer) = probe();
    let (iface, peer) = (&mut iface, &mut peer);
    let eth = EthHeader {
        dst: MAC_B,
        src: MAC_A,
        ethertype: EtherType::Ipv4,
    };
    let ip = Ipv4Header {
        src: IP_A,
        dst: IP_B,
        proto: IpProto::Tcp,
        ttl: 64,
    };
    for case in 0..24 {
        let len = [0, 1, 2, 31, 64][case % 5] + rng.range(0, 40);
        let payload = rand_vec(&mut rng, len);
        let tcp = TcpHeader {
            src_port: 40_000 + case as u16,
            dst_port: 7,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            flags: 0x18,
            window: rng.next_u64() as u16,
        };
        let good = oracle::frame(&eth, &ip, &tcp, &payload);
        check_verdict(iface, peer, &good, "unmutated");
        assert!(oracle::accepts(&good, MAC_B, IP_B).is_some());

        // Truncation at every length, and trailing padding.
        for cut in 0..good.len() {
            check_verdict(iface, peer, &good[..cut], &format!("cut to {cut}"));
        }
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 6]);
        check_verdict(iface, peer, &padded, "padded");

        // Every single-bit flip in the three headers and the payload.
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            check_verdict(iface, peer, &bad, &format!("bit {bit} flipped"));
        }

        // Header fields edited under a valid header checksum.
        let ip_at = |off: usize| ETH_HDR_LEN + off;
        let tcp_at = |off: usize| ETH_HDR_LEN + IPV4_HDR_LEN + off;
        let total = (good.len() - ETH_HDR_LEN) as u16;
        let mut edits: Vec<(String, usize, Vec<u8>)> = Vec::new();
        for vihl in [0x35u8, 0x55, 0x65, 0x40, 0x44, 0x46, 0x4F] {
            edits.push((format!("version/ihl {vihl:#04x}"), ip_at(0), vec![vihl]));
        }
        for frag in [0x2000u16, 0x0001, 0x1FFF, 0x6000, 0x8000, 0x0000] {
            let bytes = frag.to_be_bytes().to_vec();
            edits.push((format!("flags/frag {frag:#06x}"), ip_at(6), bytes));
        }
        for total_len in [0u16, 19, 20, 39, total - 1, total + 1, 1500, u16::MAX] {
            let bytes = total_len.to_be_bytes().to_vec();
            edits.push((format!("total_len {total_len}"), ip_at(2), bytes));
        }
        for proto in [1u8, 17, 0, 255] {
            edits.push((format!("proto {proto}"), ip_at(9), vec![proto]));
        }
        edits.push(("other dst ip".into(), ip_at(16), vec![10, 0, 0, 3]));
        for (what, at, bytes) in edits {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(&bytes);
            fix_ip_checksum(&mut bad);
            check_verdict(iface, peer, &bad, &what);
        }

        // TCP data offset out of range, with and without a fixed checksum.
        for off in [0u8, 4, 6, 8, 15] {
            let mut bad = good.clone();
            bad[tcp_at(12)] = off << 4;
            check_verdict(iface, peer, &bad, &format!("data offset {off}, stale csum"));
            bad[tcp_at(16)..tcp_at(18)].copy_from_slice(&[0, 0]);
            let csum = oracle::transport_checksum(IP_A, IP_B, 6, &bad[tcp_at(0)..]);
            bad[tcp_at(16)..tcp_at(18)].copy_from_slice(&csum.to_be_bytes());
            check_verdict(iface, peer, &bad, &format!("data offset {off}, valid csum"));
        }

        // Destination MAC filter: unicast to someone else, and broadcast.
        for (what, mac) in [("other dst mac", [0xC; 6]), ("broadcast", [0xFF; 6])] {
            let mut bad = good.clone();
            bad[..6].copy_from_slice(&mac);
            check_verdict(iface, peer, &bad, what);
        }
        // Not IPv4 at all.
        let mut bad = good.clone();
        bad[12..14].copy_from_slice(&0x86DDu16.to_be_bytes());
        check_verdict(iface, peer, &bad, "ethertype ipv6");
    }
}

#[test]
fn checksums_equal_the_rfc1071_reference() {
    let mut rng = SimRng::seed_from(0xC5_1071);
    let lengths = (0..=2048).chain([65_535 - IPV4_HDR_LEN, 65_535]);
    for len in lengths {
        for fill in [None, Some(0xFFu8), Some(0x00)] {
            let data = match fill {
                None => rand_vec(&mut rng, len),
                Some(byte) => vec![byte; len],
            };
            assert_eq!(
                inet_checksum(&data),
                oracle::inet_checksum(&data),
                "inet, {len} B of {fill:?}"
            );
            // The pseudo-header carries a 16-bit length, so the transport
            // form stops at the largest segment IPv4 can hold.
            if len <= 65_535 - IPV4_HDR_LEN {
                let (src, dst) = match fill {
                    Some(0xFF) => (Ipv4Addr([0xFF; 4]), Ipv4Addr([0xFF; 4])),
                    _ => (IP_A, IP_B),
                };
                for proto in [IpProto::Tcp, IpProto::Udp] {
                    assert_eq!(
                        transport_checksum(src, dst, proto, &data),
                        oracle::transport_checksum(src, dst, proto.into(), &data),
                        "transport, {len} B of {fill:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_built_segment_verifies_and_no_single_bit_flip_does() {
    let mut rng = SimRng::seed_from(0xC5_B175);
    for len in [0usize, 1, 2, 3, 64, 333, 1460] {
        let tcp = TcpHeader {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            flags: 0x18,
            window: rng.next_u64() as u16,
        };
        let mut seg = Vec::new();
        tcp.emit(IP_A, IP_B, (&rand_vec(&mut rng, len), &[]), &mut seg);
        assert_eq!(transport_checksum(IP_A, IP_B, IpProto::Tcp, &seg), 0);
        for bit in 0..seg.len() * 8 {
            seg[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                transport_checksum(IP_A, IP_B, IpProto::Tcp, &seg),
                0,
                "{len} B payload, bit {bit}"
            );
            seg[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
