//! A virtual-time network fabric.
//!
//! Ports are attached to the fabric and linked pairwise. Transmitting on a
//! port enqueues the frame on its peer with a delivery time of
//! `now + latency`; receiving returns frames whose delivery time has
//! passed. Loss is decided by a deterministic PRNG so every experiment is
//! reproducible.

use crate::HostError;
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_sim::{Clock, Cycles, SimRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Link characteristics.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way delivery latency.
    pub latency: Cycles,
    /// Probability a frame is dropped (deterministic PRNG).
    pub loss: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: Cycles(30_000), // ~10 µs at 3 GHz: rack scale
            loss: 0.0,
        }
    }
}

struct PortState {
    mac: MacAddr,
    mtu: usize,
    peer: Option<usize>,
    params: LinkParams,
    inbox: VecDeque<(Cycles, Vec<u8>)>,
}

struct FabricInner {
    ports: Vec<PortState>,
    rng: SimRng,
}

/// The shared fabric.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Mutex<FabricInner>>,
    clock: Clock,
}

impl Fabric {
    /// Creates a fabric on the given clock with a deterministic seed.
    pub fn new(clock: Clock, seed: u64) -> Self {
        Fabric {
            inner: Arc::new(Mutex::new(FabricInner {
                ports: Vec::new(),
                rng: SimRng::seed_from(seed),
            })),
            clock,
        }
    }

    /// Attaches a new port.
    pub fn port(&self, mac: MacAddr, mtu: usize) -> FabricPort {
        let mut g = self.inner.lock().expect("fabric lock");
        g.ports.push(PortState {
            mac,
            mtu,
            peer: None,
            params: LinkParams::default(),
            inbox: VecDeque::new(),
        });
        FabricPort {
            fabric: self.clone(),
            id: g.ports.len() - 1,
        }
    }

    /// Connects two ports with the given link parameters.
    ///
    /// # Errors
    ///
    /// [`HostError::BadPort`] if either port is already linked.
    pub fn connect(
        &self,
        a: &FabricPort,
        b: &FabricPort,
        params: LinkParams,
    ) -> Result<(), HostError> {
        let mut g = self.inner.lock().expect("fabric lock");
        if g.ports[a.id].peer.is_some() || g.ports[b.id].peer.is_some() {
            return Err(HostError::BadPort);
        }
        g.ports[a.id].peer = Some(b.id);
        g.ports[a.id].params = params;
        g.ports[b.id].peer = Some(a.id);
        g.ports[b.id].params = params;
        Ok(())
    }

    /// The fabric's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The earliest virtual time at which some port's
    /// [`receive`](NetDevice::receive) returns a frame, `None` when nothing
    /// is in flight. Each inbox delivers in order, so this is the earliest
    /// head-of-inbox delivery time: a frame stamped earlier but queued
    /// behind a later one (lanes stamp in their own time) is not receivable
    /// before the frame ahead of it.
    pub fn next_due(&self) -> Option<Cycles> {
        let g = self.inner.lock().expect("fabric lock");
        g.ports
            .iter()
            .filter_map(|p| p.inbox.front().map(|&(ready, _)| ready))
            .min()
    }
}

/// One attachment point on the fabric; implements [`NetDevice`].
///
/// Cloning yields another handle to the *same* attachment point (same
/// port id, same inbox) — useful when a coordinator keeps a handle for
/// flushing deferred transmissions while a backend owns the original.
#[derive(Clone)]
pub struct FabricPort {
    fabric: Fabric,
    id: usize,
}

impl FabricPort {
    /// Frames queued for this port, delivered or not (diagnostic).
    pub fn queued(&self) -> usize {
        let g = self.fabric.inner.lock().expect("fabric lock");
        g.ports[self.id].inbox.len()
    }

    /// Transmits a frame *as of* virtual time `sent_at` instead of the
    /// fabric clock's current reading: delivery is scheduled for
    /// `sent_at + latency` and the loss draw is taken now, in call
    /// order.
    ///
    /// The thread-per-queue parallel host uses this to keep the fabric
    /// deterministic: worker threads never touch the fabric (its shared
    /// PRNG draw order would then depend on scheduling); they buffer
    /// `(lane_time, frame)` pairs and the coordinator flushes them in
    /// ascending queue order — the exact order and timestamps the serial
    /// schedule produces.
    pub fn transmit_at(&mut self, frame: &[u8], sent_at: Cycles) -> Result<(), NetError> {
        self.transmit_inner(frame, sent_at)
    }

    fn transmit_inner(&mut self, frame: &[u8], sent_at: Cycles) -> Result<(), NetError> {
        let mut g = self.fabric.inner.lock().expect("fabric lock");
        let port = &g.ports[self.id];
        if frame.len() > port.mtu + 14 {
            return Err(NetError::TooLarge);
        }
        let Some(peer) = port.peer else {
            return Err(NetError::Unreachable);
        };
        let params = port.params;
        if params.loss > 0.0 && g.rng.chance(params.loss) {
            return Ok(()); // silently dropped, like a real wire
        }
        let ready = Cycles(sent_at.get() + params.latency.get());
        g.ports[peer].inbox.push_back((ready, frame.to_vec()));
        Ok(())
    }
}

impl NetDevice for FabricPort {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.transmit_inner(frame, self.fabric.clock.now())
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let mut g = self.fabric.inner.lock().expect("fabric lock");
        let now = self.fabric.clock.now();
        let port = &mut g.ports[self.id];
        match port.inbox.front() {
            Some((ready, _)) if *ready <= now => port.inbox.pop_front().map(|(_, f)| f),
            _ => None,
        }
    }

    fn mac(&self) -> MacAddr {
        let g = self.fabric.inner.lock().expect("fabric lock");
        g.ports[self.id].mac
    }

    fn mtu(&self) -> usize {
        let g = self.fabric.inner.lock().expect("fabric lock");
        g.ports[self.id].mtu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(params: LinkParams) -> (Clock, FabricPort, FabricPort) {
        let clock = Clock::new();
        let fabric = Fabric::new(clock.clone(), 42);
        let a = fabric.port(MacAddr([1; 6]), 1500);
        let b = fabric.port(MacAddr([2; 6]), 1500);
        fabric.connect(&a, &b, params).unwrap();
        (clock, a, b)
    }

    #[test]
    fn delivery_respects_latency() {
        let (clock, mut a, mut b) = setup(LinkParams {
            latency: Cycles(1000),
            loss: 0.0,
        });
        a.transmit(b"frame").unwrap();
        assert!(b.receive().is_none(), "not yet delivered");
        clock.advance(Cycles(999));
        assert!(b.receive().is_none());
        clock.advance(Cycles(1));
        assert_eq!(b.receive().unwrap(), b"frame");
    }

    #[test]
    fn zero_latency_immediate() {
        let (_clock, mut a, mut b) = setup(LinkParams {
            latency: Cycles::ZERO,
            loss: 0.0,
        });
        a.transmit(b"now").unwrap();
        assert_eq!(b.receive().unwrap(), b"now");
    }

    #[test]
    fn loss_is_deterministic_and_partial() {
        let (clock, mut a, mut b) = setup(LinkParams {
            latency: Cycles::ZERO,
            loss: 0.5,
        });
        let mut delivered = 0;
        for _ in 0..1000 {
            a.transmit(b"x").unwrap();
            clock.advance(Cycles(1));
            if b.receive().is_some() {
                delivered += 1;
            }
        }
        assert!((300..700).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn stamped_transmit_schedules_from_sent_at() {
        let (clock, mut a, mut b) = setup(LinkParams {
            latency: Cycles(1000),
            loss: 0.0,
        });
        clock.advance(Cycles(5000));
        // Stamped in the past: 100 + 1000 <= now, deliverable immediately.
        a.transmit_at(b"late", Cycles(100)).unwrap();
        assert_eq!(b.receive().unwrap(), b"late");
        // A clone addresses the same attachment point.
        let mut a2 = a.clone();
        a2.transmit_at(b"future", clock.now()).unwrap();
        assert!(b.receive().is_none());
        clock.advance(Cycles(1000));
        assert_eq!(b.receive().unwrap(), b"future");
    }

    #[test]
    fn next_due_is_the_earliest_receivable_frame() {
        let clock = Clock::new();
        let fabric = Fabric::new(clock.clone(), 42);
        let mut a = fabric.port(MacAddr([1; 6]), 1500);
        let mut b = fabric.port(MacAddr([2; 6]), 1500);
        fabric
            .connect(
                &a,
                &b,
                LinkParams {
                    latency: Cycles(1000),
                    loss: 0.0,
                },
            )
            .unwrap();
        assert_eq!(fabric.next_due(), None);
        clock.advance(Cycles(500));
        a.transmit(b"to b").unwrap();
        assert_eq!(fabric.next_due(), Some(Cycles(1500)));
        b.transmit_at(b"to a", Cycles(200)).unwrap();
        assert_eq!(fabric.next_due(), Some(Cycles(1200)));
        // Stamped earlier but queued behind b's head: not receivable first.
        a.transmit_at(b"behind", Cycles(0)).unwrap();
        assert_eq!(fabric.next_due(), Some(Cycles(1200)));
        clock.advance(Cycles(700));
        assert_eq!(a.receive().unwrap(), b"to a");
        assert_eq!(fabric.next_due(), Some(Cycles(1500)));
    }

    #[test]
    fn unlinked_port_unreachable() {
        let clock = Clock::new();
        let fabric = Fabric::new(clock, 1);
        let mut lonely = fabric.port(MacAddr([9; 6]), 1500);
        assert_eq!(lonely.transmit(b"x"), Err(NetError::Unreachable));
    }

    #[test]
    fn double_connect_rejected() {
        let clock = Clock::new();
        let fabric = Fabric::new(clock, 1);
        let a = fabric.port(MacAddr([1; 6]), 1500);
        let b = fabric.port(MacAddr([2; 6]), 1500);
        let c = fabric.port(MacAddr([3; 6]), 1500);
        fabric.connect(&a, &b, LinkParams::default()).unwrap();
        assert!(matches!(
            fabric.connect(&a, &c, LinkParams::default()),
            Err(HostError::BadPort)
        ));
    }

    #[test]
    fn mtu_enforced() {
        let (_clock, mut a, _b) = setup(LinkParams::default());
        assert_eq!(a.transmit(&vec![0; 1515]), Err(NetError::TooLarge));
    }

    #[test]
    fn full_interfaces_run_over_fabric() {
        use cio_netstack::{Interface, InterfaceConfig, Ipv4Addr};
        let (clock, pa, pb) = setup(LinkParams {
            latency: Cycles(100),
            loss: 0.0,
        });
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        let mut a = Interface::new(pa, InterfaceConfig::new(ip_a), clock.clone());
        let mut b = Interface::new(pb, InterfaceConfig::new(ip_b), clock.clone());
        b.udp_bind(7).unwrap();
        a.udp_send(1, ip_b, 7, b"over the fabric").unwrap();
        for _ in 0..16 {
            clock.advance(Cycles(200));
            a.poll().unwrap();
            b.poll().unwrap();
        }
        assert_eq!(b.udp_recv(7).unwrap().payload, b"over the fabric");
    }
}
