//! The L5 (socket-level) host service: the Graphene/CCF-shaped boundary.
//!
//! Here the entire network stack is *host software* (§2.4: "enclave
//! approaches that perform networking via the system call interface
//! operate at OSI layer 5"). The guest issues socket operations across
//! the trust boundary; each one is a world switch the caller charges, and
//! each one is recorded by the observability recorder with everything the
//! host learns: operation type, socket identity, endpoint, exact length,
//! and timing — the observability cost the paper holds against L5-only
//! boundaries.
//!
//! The service itself is an honest implementation over `cio-netstack`; the
//! guest-side wrappers in the `cio` crate add the exit costs and (for the
//! safe configurations) the mandatory cTLS layer above it.

use crate::fabric::FabricPort;
use crate::observe::{bits, Recorder};
use cio_netstack::stack::{Interface, InterfaceConfig, SocketHandle};
use cio_netstack::tcp::State;
use cio_netstack::{Ipv4Addr, NetDevice, NetError};
use cio_sim::Clock;

/// A device wrapper recording every frame the host's own NIC moves: the
/// L5 host sees socket calls *and* the wire.
pub struct ObservedPort {
    inner: FabricPort,
    recorder: Recorder,
}

impl NetDevice for ObservedPort {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.recorder.record(
            "frame.tx",
            bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
        );
        self.inner.transmit(frame)
    }
    fn receive(&mut self) -> Option<Vec<u8>> {
        let f = self.inner.receive()?;
        self.recorder.record(
            "frame.rx",
            bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
        );
        Some(f)
    }
    fn mac(&self) -> cio_netstack::MacAddr {
        self.inner.mac()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
}

/// The host-side socket service.
pub struct L5Service {
    iface: Interface<ObservedPort>,
    recorder: Recorder,
}

impl L5Service {
    /// Creates the service over a fabric port.
    pub fn new(port: FabricPort, cfg: InterfaceConfig, clock: Clock, recorder: Recorder) -> Self {
        let observed = ObservedPort {
            inner: port,
            recorder: recorder.clone(),
        };
        L5Service {
            iface: Interface::new(observed, cfg, clock),
            recorder,
        }
    }

    fn observe(&self, kind: &'static str, extra: u32) {
        self.recorder
            .record(kind, bits::OP_TYPE + bits::SOCKET_ID + bits::TIMING + extra);
    }

    /// Guest call: open a TCP connection.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn connect(&mut self, ip: Ipv4Addr, port: u16) -> Result<SocketHandle, NetError> {
        self.observe("sock.connect", bits::ENDPOINT);
        self.iface.tcp_connect(ip, port)
    }

    /// Guest call: listen on a port.
    pub fn listen(&mut self, port: u16) {
        self.observe("sock.listen", bits::ENDPOINT);
        self.iface.tcp_listen(port);
    }

    /// Guest call: accept an established inbound connection, if any.
    pub fn accept(&mut self, port: u16) -> Option<SocketHandle> {
        self.observe("sock.accept", bits::ENDPOINT);
        self.iface.tcp_accept(port)
    }

    /// Guest call: send bytes.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn send(&mut self, h: SocketHandle, data: &[u8]) -> Result<(), NetError> {
        self.observe("sock.send", bits::LENGTH);
        self.iface.tcp_send(h, data)
    }

    /// Guest call: receive up to `max` bytes.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn recv(&mut self, h: SocketHandle, max: usize) -> Result<Vec<u8>, NetError> {
        self.observe("sock.recv", bits::LENGTH);
        self.iface.tcp_recv(h, max)
    }

    /// Guest call: close.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn close(&mut self, h: SocketHandle) -> Result<(), NetError> {
        self.observe("sock.close", 0);
        self.iface.tcp_close(h)
    }

    /// Guest call: release a fully-closed socket's slot (and its
    /// ephemeral port) for reuse. Fails with `BadState` until the
    /// connection has fully drained to `Closed`/`TimeWait`.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn release(&mut self, h: SocketHandle) -> Result<(), NetError> {
        self.observe("sock.close", 0);
        self.iface.tcp_release(h)
    }

    /// Guest call: connection established?
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn established(&mut self, h: SocketHandle) -> Result<bool, NetError> {
        // Even status polling is an observable call.
        self.observe("sock.poll", 0);
        self.iface.tcp_established(h)
    }

    /// Guest call: peer closed?
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn peer_closed(&mut self, h: SocketHandle) -> Result<bool, NetError> {
        self.observe("sock.poll", 0);
        self.iface.tcp_peer_closed(h)
    }

    /// Guest call: connection state (diagnostics).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn state(&mut self, h: SocketHandle) -> Result<State, NetError> {
        self.observe("sock.poll", 0);
        self.iface.tcp_state(h)
    }

    /// Host-side housekeeping (not an observable guest call): drives the
    /// host stack.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn poll(&mut self) -> Result<usize, NetError> {
        self.iface.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, LinkParams};
    use crate::peers::TcpEchoPeer;
    use cio_netstack::MacAddr;
    use cio_sim::Cycles;

    #[test]
    fn l5_service_echoes_and_records_everything() {
        let clock = Clock::new();
        let fabric = Fabric::new(clock.clone(), 3);
        let host_port = fabric.port(MacAddr([1; 6]), 1500);
        let peer_port = fabric.port(MacAddr([2; 6]), 1500);
        fabric
            .connect(&host_port, &peer_port, LinkParams::default())
            .unwrap();

        let ip_host = Ipv4Addr::new(10, 0, 0, 1);
        let ip_peer = Ipv4Addr::new(10, 0, 0, 2);
        let recorder = Recorder::new();
        let mut svc = L5Service::new(
            host_port,
            InterfaceConfig::new(ip_host),
            clock.clone(),
            recorder.clone(),
        );
        let mut peer = TcpEchoPeer::new(peer_port, ip_peer, 7777, clock.clone());

        let h = svc.connect(ip_peer, 7777).unwrap();
        for _ in 0..64 {
            clock.advance(Cycles(50_000));
            svc.poll().unwrap();
            peer.poll();
        }
        assert!(svc.established(h).unwrap());
        svc.send(h, b"echo me").unwrap();
        let mut got = Vec::new();
        for _ in 0..64 {
            clock.advance(Cycles(50_000));
            svc.poll().unwrap();
            peer.poll();
            got.extend(svc.recv(h, 1024).unwrap());
            if got == b"echo me" {
                break;
            }
        }
        assert_eq!(got, b"echo me");

        // The host saw every operation, typed.
        let s = recorder.summary();
        assert!(s.by_kind.contains_key("sock.connect"));
        assert!(s.by_kind.contains_key("sock.send"));
        assert!(s.by_kind["sock.recv"] >= 1);
        assert!(s.bits > 0);
    }
}
