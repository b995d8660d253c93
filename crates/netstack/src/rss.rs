//! Receive-side-scaling flow steering for multi-queue devices.
//!
//! Real multi-queue NICs spread flows over per-core queues with a hash of
//! the 4-tuple (RSS). Two properties matter for the safe-ring stack:
//!
//! * **Determinism** — the same flow always lands on the same queue, so
//!   per-flow ordering (TCP segments, cTLS records) is preserved without
//!   any cross-queue coordination, and seeded experiments reproduce
//!   exactly.
//! * **Symmetry** — both directions of a flow hash identically (the
//!   endpoints are canonically ordered before hashing), so the guest's
//!   transmit queue and the host backend's receive queue agree without a
//!   negotiation step. Keeping steering negotiation-free matches the
//!   §3.2 zero-renegotiation principle: the queue count is fixed at
//!   construction and the mapping is pure arithmetic.
//!
//! The final reduction to a queue index is the ring's own masked-index
//! discipline: `hash & (queues - 1)` with a power-of-two queue count, so
//! no flow- or host-derived value can select an out-of-range queue.

use crate::wire::{EtherType, IpProto, Ipv4Addr, ETH_HDR_LEN};

/// The 4-tuple (plus protocol) identifying one transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Source address and port as they appear in the packet.
    pub src: (Ipv4Addr, u16),
    /// Destination address and port as they appear in the packet.
    pub dst: (Ipv4Addr, u16),
    /// IP protocol number (TCP or UDP).
    pub proto: u8,
}

impl FlowKey {
    /// Extracts the flow key from a raw Ethernet frame without allocating.
    ///
    /// Returns `None` for anything that is not IPv4 TCP/UDP (ARP, ICMP,
    /// runt frames); such traffic is not flow-steerable and belongs on
    /// queue 0.
    pub fn from_frame(frame: &[u8]) -> Option<FlowKey> {
        if frame.len() < ETH_HDR_LEN + 20 {
            return None;
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != u16::from(EtherType::Ipv4) {
            return None;
        }
        let ip = &frame[ETH_HDR_LEN..];
        if ip[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(ip[0] & 0x0f) * 4;
        let proto = ip[9];
        if proto != u8::from(IpProto::Tcp) && proto != u8::from(IpProto::Udp) {
            return None;
        }
        if ip.len() < ihl + 4 {
            return None;
        }
        let src_ip = Ipv4Addr([ip[12], ip[13], ip[14], ip[15]]);
        let dst_ip = Ipv4Addr([ip[16], ip[17], ip[18], ip[19]]);
        let l4 = &ip[ihl..];
        let src_port = u16::from_be_bytes([l4[0], l4[1]]);
        let dst_port = u16::from_be_bytes([l4[2], l4[3]]);
        Some(FlowKey {
            src: (src_ip, src_port),
            dst: (dst_ip, dst_port),
            proto,
        })
    }

    /// Symmetric RSS-style hash of the flow: both directions of one flow
    /// produce the same value.
    pub fn hash(&self) -> u32 {
        let a = endpoint_bytes(self.src);
        let b = endpoint_bytes(self.dst);
        // Canonical endpoint order makes the hash direction-insensitive.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut h = fnv1a(FNV_OFFSET, &lo);
        h = fnv1a(h, &hi);
        fnv1a(h, &[self.proto])
    }
}

/// Hashes an explicit 4-tuple (TCP); convenience for layers that know the
/// flow without holding a frame.
pub fn flow_hash(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> u32 {
    FlowKey {
        src,
        dst,
        proto: u8::from(IpProto::Tcp),
    }
    .hash()
}

/// Steers a raw frame to a queue index under `mask` (`queues - 1`).
///
/// Non-flow traffic (ARP, ICMP, malformed frames) steers to queue 0.
pub fn steer(frame: &[u8], mask: u32) -> usize {
    match FlowKey::from_frame(frame) {
        Some(key) => (key.hash() & mask) as usize,
        None => 0,
    }
}

const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

fn fnv1a(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn endpoint_bytes((ip, port): (Ipv4Addr, u16)) -> [u8; 6] {
    let p = port.to_be_bytes();
    [ip.0[0], ip.0[1], ip.0[2], ip.0[3], p[0], p[1]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EthHeader, Ipv4Header, MacAddr, TcpHeader, TCP_HDR_LEN};

    fn tcp_frame(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
        let mut frame = Vec::new();
        EthHeader {
            dst: MacAddr([2; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut frame);
        Ipv4Header {
            src: src.0,
            dst: dst.0,
            proto: IpProto::Tcp,
            ttl: 64,
        }
        .emit(TCP_HDR_LEN + 1, &mut frame);
        TcpHeader {
            src_port: src.1,
            dst_port: dst.1,
            seq: 1,
            ack: 0,
            flags: 0x10,
            window: 65535,
        }
        .emit(src.0, dst.0, (b"x", &[]), &mut frame);
        frame
    }

    const A: (Ipv4Addr, u16) = (Ipv4Addr([10, 0, 0, 1]), 49152);
    const B: (Ipv4Addr, u16) = (Ipv4Addr([10, 0, 0, 2]), 7);

    #[test]
    fn parses_tcp_four_tuple() {
        let key = FlowKey::from_frame(&tcp_frame(A, B)).expect("flow key");
        assert_eq!(key.src, A);
        assert_eq!(key.dst, B);
        assert_eq!(key.proto, u8::from(IpProto::Tcp));
    }

    #[test]
    fn hash_is_symmetric() {
        let fwd = FlowKey::from_frame(&tcp_frame(A, B)).unwrap();
        let rev = FlowKey::from_frame(&tcp_frame(B, A)).unwrap();
        assert_eq!(fwd.hash(), rev.hash());
        assert_eq!(fwd.hash(), flow_hash(A, B));
        assert_eq!(flow_hash(A, B), flow_hash(B, A));
    }

    #[test]
    fn steering_stays_in_range_and_is_stable() {
        let frame = tcp_frame(A, B);
        for mask in [0u32, 1, 3, 7] {
            let q = steer(&frame, mask);
            assert!(q <= mask as usize);
            assert_eq!(q, steer(&frame, mask), "steering must be deterministic");
        }
    }

    #[test]
    fn non_flow_traffic_steers_to_queue_zero() {
        assert_eq!(steer(b"runt", 7), 0);
        // An ARP frame: valid Ethernet, not steerable.
        let mut arp = Vec::new();
        EthHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr([1; 6]),
            ethertype: EtherType::Arp,
        }
        .emit(&mut arp);
        arp.extend_from_slice(&[0u8; 28]);
        assert_eq!(steer(&arp, 7), 0);
    }

    #[test]
    fn distinct_flows_spread_across_queues() {
        let mut seen = [false; 4];
        for port in 0..64u16 {
            let frame = tcp_frame((A.0, 49152 + port), B);
            seen[steer(&frame, 3)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 flows should hit all 4 queues: {seen:?}"
        );
    }
}
