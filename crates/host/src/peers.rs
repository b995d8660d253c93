//! Remote peers: the machines on the other side of the network.
//!
//! Workloads need someone to talk to. These peers run full `cio-netstack`
//! interfaces over fabric ports and implement the simple server behaviours
//! the experiments use: TCP echo, UDP echo, and a request/response server
//! (fixed-size responses to length-prefixed requests, standing in for the
//! RPC-style workloads of Figure 5).

use crate::fabric::FabricPort;
use cio_netstack::stack::{Interface, InterfaceConfig, SocketHandle};
use cio_netstack::Ipv4Addr;
use cio_sim::Clock;

/// A TCP echo server accepting any number of connections on one port.
pub struct TcpEchoPeer {
    iface: Interface<FabricPort>,
    port: u16,
    active: Vec<SocketHandle>,
    /// Reusable buffer between receive and echo.
    buf: Vec<u8>,
}

impl TcpEchoPeer {
    /// Creates the peer listening on `port`.
    pub fn new(dev: FabricPort, ip: Ipv4Addr, port: u16, clock: Clock) -> Self {
        let mut iface = Interface::new(dev, InterfaceConfig::new(ip), clock);
        iface.tcp_listen(port);
        TcpEchoPeer {
            iface,
            port,
            active: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Drives the peer: accepts, echoes, reaps closed connections.
    pub fn poll(&mut self) {
        let _ = self.iface.poll();
        while let Some(h) = self.iface.tcp_accept(self.port) {
            self.active.push(h);
        }
        let mut closed = Vec::new();
        for (i, &h) in self.active.iter().enumerate() {
            self.buf.clear();
            if self.iface.tcp_recv_into(h, &mut self.buf).is_err() {
                closed.push(i);
                continue;
            }
            if !self.buf.is_empty() {
                let _ = self.iface.tcp_send(h, &self.buf);
            }
            if self.iface.tcp_peer_closed(h).unwrap_or(true) {
                let _ = self.iface.tcp_close(h);
                closed.push(i);
            }
        }
        for i in closed.into_iter().rev() {
            self.active.remove(i);
        }
        let _ = self.iface.poll();
    }

    /// Live connections (diagnostic).
    pub fn connections(&self) -> usize {
        self.active.len()
    }
}

/// A UDP echo server.
pub struct UdpEchoPeer {
    iface: Interface<FabricPort>,
    port: u16,
}

impl UdpEchoPeer {
    /// Creates the peer bound to `port`.
    pub fn new(dev: FabricPort, ip: Ipv4Addr, port: u16, clock: Clock) -> Self {
        let mut iface = Interface::new(dev, InterfaceConfig::new(ip), clock);
        iface.udp_bind(port).expect("fresh interface");
        UdpEchoPeer { iface, port }
    }

    /// Drives the peer.
    pub fn poll(&mut self) {
        let _ = self.iface.poll();
        while let Some(d) = self.iface.udp_recv(self.port) {
            let _ = self
                .iface
                .udp_send(self.port, d.src_ip, d.src_port, &d.payload);
        }
        let _ = self.iface.poll();
    }
}

/// A request/response server: each request is `u32-le length || ignored
/// bytes`; the response is that many `0x5A` bytes, length-prefixed.
pub struct RpcPeer {
    iface: Interface<FabricPort>,
    port: u16,
    active: Vec<(SocketHandle, Vec<u8>)>,
    /// Cap on response size (sanity bound).
    pub max_response: usize,
}

impl RpcPeer {
    /// Creates the peer listening on `port`.
    pub fn new(dev: FabricPort, ip: Ipv4Addr, port: u16, clock: Clock) -> Self {
        let mut iface = Interface::new(dev, InterfaceConfig::new(ip), clock);
        iface.tcp_listen(port);
        RpcPeer {
            iface,
            port,
            active: Vec::new(),
            max_response: 1 << 20,
        }
    }

    /// Drives the peer.
    pub fn poll(&mut self) {
        let _ = self.iface.poll();
        while let Some(h) = self.iface.tcp_accept(self.port) {
            self.active.push((h, Vec::new()));
        }
        let mut closed = Vec::new();
        for (i, (h, buf)) in self.active.iter_mut().enumerate() {
            if self.iface.tcp_recv_into(*h, buf).is_err() {
                closed.push(i);
                continue;
            }
            while buf.len() >= 4 {
                let want = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                let want = want.min(self.max_response);
                buf.drain(..4);
                let mut resp = Vec::with_capacity(4 + want);
                resp.extend_from_slice(&(want as u32).to_le_bytes());
                resp.extend(std::iter::repeat_n(0x5A, want));
                let _ = self.iface.tcp_send(*h, &resp);
            }
            if self.iface.tcp_peer_closed(*h).unwrap_or(true) {
                let _ = self.iface.tcp_close(*h);
                closed.push(i);
            }
        }
        for i in closed.into_iter().rev() {
            self.active.remove(i);
        }
        let _ = self.iface.poll();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, LinkParams};
    use cio_netstack::MacAddr;
    use cio_sim::Cycles;

    const IP_C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn fabric_pair(clock: &Clock) -> (FabricPort, FabricPort) {
        let fabric = Fabric::new(clock.clone(), 11);
        let a = fabric.port(MacAddr([1; 6]), 1500);
        let b = fabric.port(MacAddr([2; 6]), 1500);
        fabric.connect(&a, &b, LinkParams::default()).unwrap();
        (a, b)
    }

    #[test]
    fn udp_echo() {
        let clock = Clock::new();
        let (cp, sp) = fabric_pair(&clock);
        let mut client = Interface::new(cp, InterfaceConfig::new(IP_C), clock.clone());
        let mut server = UdpEchoPeer::new(sp, IP_S, 9, clock.clone());
        client.udp_bind(1234).unwrap();
        client.udp_send(1234, IP_S, 9, b"marco").unwrap();
        for _ in 0..32 {
            clock.advance(Cycles(50_000));
            client.poll().unwrap();
            server.poll();
        }
        assert_eq!(client.udp_recv(1234).unwrap().payload, b"marco");
    }

    #[test]
    fn tcp_echo_multiple_connections() {
        let clock = Clock::new();
        let (cp, sp) = fabric_pair(&clock);
        let mut client = Interface::new(cp, InterfaceConfig::new(IP_C), clock.clone());
        let mut server = TcpEchoPeer::new(sp, IP_S, 7, clock.clone());

        let h1 = client.tcp_connect(IP_S, 7).unwrap();
        let h2 = client.tcp_connect(IP_S, 7).unwrap();
        let mut got1 = Vec::new();
        let mut got2 = Vec::new();
        let mut sent = false;
        for _ in 0..128 {
            clock.advance(Cycles(50_000));
            client.poll().unwrap();
            server.poll();
            if !sent && client.tcp_established(h1).unwrap() && client.tcp_established(h2).unwrap() {
                client.tcp_send(h1, b"first").unwrap();
                client.tcp_send(h2, b"second").unwrap();
                sent = true;
            }
            if sent {
                got1.extend(client.tcp_recv(h1, 100).unwrap());
                got2.extend(client.tcp_recv(h2, 100).unwrap());
                if got1 == b"first" && got2 == b"second" {
                    break;
                }
            }
        }
        assert_eq!(got1, b"first");
        assert_eq!(got2, b"second");
        assert_eq!(server.connections(), 2);
    }

    #[test]
    fn rpc_peer_responds_with_requested_size() {
        let clock = Clock::new();
        let (cp, sp) = fabric_pair(&clock);
        let mut client = Interface::new(cp, InterfaceConfig::new(IP_C), clock.clone());
        let mut server = RpcPeer::new(sp, IP_S, 8080, clock.clone());

        let h = client.tcp_connect(IP_S, 8080).unwrap();
        let mut resp = Vec::new();
        let mut sent = false;
        for _ in 0..256 {
            clock.advance(Cycles(50_000));
            client.poll().unwrap();
            server.poll();
            if !sent && client.tcp_established(h).unwrap() {
                client.tcp_send(h, &500u32.to_le_bytes()).unwrap();
                sent = true;
            }
            if sent {
                resp.extend(client.tcp_recv(h, usize::MAX).unwrap());
                if resp.len() >= 504 {
                    break;
                }
            }
        }
        assert_eq!(resp.len(), 504);
        assert_eq!(&resp[..4], &500u32.to_le_bytes());
        assert!(resp[4..].iter().all(|&b| b == 0x5A));
    }
}
