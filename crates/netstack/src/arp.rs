//! ARP resolution and cache.

use crate::wire::{ArpPacket, EthHeader, EtherType, Ipv4Addr, MacAddr};
use std::collections::HashMap;

/// A bounded ARP cache plus request/reply logic.
#[derive(Debug)]
pub struct ArpCache {
    our_mac: MacAddr,
    our_ip: Ipv4Addr,
    entries: HashMap<Ipv4Addr, MacAddr>,
    capacity: usize,
}

impl ArpCache {
    /// Creates a cache bound to our addresses.
    pub fn new(our_mac: MacAddr, our_ip: Ipv4Addr) -> Self {
        ArpCache {
            our_mac,
            our_ip,
            entries: HashMap::new(),
            capacity: 512,
        }
    }

    /// Looks up a MAC for `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Inserts a mapping (bounded; on overflow an arbitrary entry is
    /// evicted — sufficient for the simulation's small topologies).
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&ip) {
            if let Some(&victim) = self.entries.keys().next() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(ip, mac);
    }

    /// Frames one of our ARP packets for `dst`.
    fn frame(&self, dst: MacAddr, arp: &ArpPacket) -> Vec<u8> {
        let mut out = Vec::new();
        EthHeader {
            dst,
            src: self.our_mac,
            ethertype: EtherType::Arp,
        }
        .emit(&mut out);
        out.extend_from_slice(&arp.build());
        out
    }

    /// Builds a broadcast ARP request frame for `target_ip`.
    pub fn request_frame(&self, target_ip: Ipv4Addr) -> Vec<u8> {
        let arp = ArpPacket {
            is_request: true,
            sender_mac: self.our_mac,
            sender_ip: self.our_ip,
            target_mac: MacAddr::default(),
            target_ip,
        };
        self.frame(MacAddr::BROADCAST, &arp)
    }

    /// Processes a received ARP payload. Learns the sender mapping and, if
    /// it was a request for our IP, returns the reply frame to transmit.
    pub fn handle(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let arp = ArpPacket::parse(payload).ok()?;
        self.insert(arp.sender_ip, arp.sender_mac);
        if arp.is_request && arp.target_ip == self.our_ip {
            let reply = ArpPacket {
                is_request: false,
                sender_mac: self.our_mac,
                sender_ip: self.our_ip,
                target_mac: arp.sender_mac,
                target_ip: arp.sender_ip,
            };
            return Some(self.frame(arp.sender_mac, &reply));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const MAC_A: MacAddr = MacAddr([0xA; 6]);
    const MAC_B: MacAddr = MacAddr([0xB; 6]);

    #[test]
    fn request_reply_learns_both_sides() {
        let mut a = ArpCache::new(MAC_A, IP_A);
        let mut b = ArpCache::new(MAC_B, IP_B);

        let req = a.request_frame(IP_B);
        let (req_hdr, req_arp) = EthHeader::parse(&req).unwrap();
        assert!(req_hdr.dst.is_broadcast());

        let reply = b.handle(req_arp).expect("b replies");
        assert_eq!(b.lookup(IP_A), Some(MAC_A));

        let (reply_hdr, reply_arp) = EthHeader::parse(&reply).unwrap();
        assert_eq!(reply_hdr.dst, MAC_A);
        assert!(a.handle(reply_arp).is_none());
        assert_eq!(a.lookup(IP_B), Some(MAC_B));
    }

    #[test]
    fn request_for_other_ip_ignored() {
        let mut b = ArpCache::new(MAC_B, IP_B);
        let a = ArpCache::new(MAC_A, IP_A);
        let req = a.request_frame(Ipv4Addr::new(10, 0, 0, 99));
        let (_, arp) = EthHeader::parse(&req).unwrap();
        assert!(b.handle(arp).is_none());
        // But the sender was still learned.
        assert_eq!(b.lookup(IP_A), Some(MAC_A));
    }

    #[test]
    fn garbage_ignored() {
        let mut a = ArpCache::new(MAC_A, IP_A);
        assert!(a.handle(b"not arp").is_none());
    }

    #[test]
    fn cache_is_bounded() {
        let mut a = ArpCache::new(MAC_A, IP_A);
        a.capacity = 4;
        for i in 0..10u8 {
            a.insert(Ipv4Addr::new(10, 0, 1, i), MacAddr([i; 6]));
        }
        assert!(a.entries.len() <= 4);
    }
}
