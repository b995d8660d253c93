//! The Linux-style hardened virtio retrofit.
//!
//! §2.5 of the paper classifies the hardening commits applied to Linux's
//! virtio and NetVSC drivers; this module composes those same measures on
//! top of the unhardened [`crate::virtqueue::Driver`]:
//!
//! * **add checks** — every host-read field (used id, used len, used index
//!   distance) is validated before use; violations are *detected* and
//!   surfaced as [`RingError::HostViolation`].
//! * **private state** — free lists and chain membership are mirrored in
//!   private memory; the shared `next` fields are never trusted on the
//!   free path.
//! * **add copies** — every payload is bounced through a SWIOTLB pool
//!   ([`cio_mem::BouncePool`]), systematically, whether or not a double
//!   fetch is possible — faithful to the criticized behaviour.
//! * **restrict features** — config (MTU, MAC) is read once at negotiation
//!   and cached; later config reads come from the cache, and
//!   [`HardenedDriver::audit_config`] detects host mutation attempts.
//!
//! The point of the module — and of experiment E5 — is that all of this
//! *works* but costs: two copies per payload plus validation on every
//! completion, retrofitted onto a protocol that did not plan for them.

use crate::virtqueue::{driver_negotiate, Completion, ConfigSpace, DescSeg, Driver, Layout};
use crate::{RingError, Violation};
use cio_mem::{BouncePool, BounceSlot, GuestMemory};
use cio_sim::Meter;

/// Private record of a hardened in-flight chain.
struct ChainMeta {
    descs: Vec<u16>,
    slot: BounceSlot,
    /// Device-writable capacity (0 for TX chains).
    in_capacity: u32,
    is_rx: bool,
}

/// A polled completion: for receive chains the second element carries
/// the validated, bounced-out payload.
pub type PollOutcome = (Completion, Option<Vec<u8>>);

/// The hardened driver: validated, privately mirrored, bounce-buffered.
pub struct HardenedDriver {
    inner: Driver,
    mem: GuestMemory,
    bounce: BouncePool,
    cfg: ConfigSpace,
    cached_mtu: u16,
    cached_mac: [u8; 6],
    features: u64,
    chains: Vec<Option<ChainMeta>>,
    meter: Meter,
}

impl HardenedDriver {
    /// Creates a hardened driver: negotiates features, caches the config
    /// snapshot, and sets up the bounce pool.
    ///
    /// # Errors
    ///
    /// Propagates negotiation and memory errors; fails fatally (per the
    /// stateless-interface principle the retrofit *cannot* fully follow,
    /// but approximates) if the bounce pool cannot be built.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mem: &GuestMemory,
        layout: Layout,
        cfg: ConfigSpace,
        wanted_features: u64,
        bounce_base: cio_mem::GuestAddr,
        bounce_slots: usize,
        meter: Meter,
    ) -> Result<Self, RingError> {
        let features = driver_negotiate(&cfg, &mem.guest(), wanted_features)?;
        let cached_mtu = cfg.read_mtu(&mem.guest())?;
        let cached_mac = cfg.read_mac(&mem.guest())?;
        let qsize = layout.qsize;
        let inner = Driver::new_private_chaining(mem.guest(), layout, meter.clone())?;
        // One bounce slot holds one frame at the fixed MTU.
        let frame = usize::from(cached_mtu) + 14;
        let bounce = BouncePool::new(mem, bounce_base, bounce_slots, frame)?;
        Ok(HardenedDriver {
            inner,
            mem: mem.clone(),
            bounce,
            cfg,
            cached_mtu,
            cached_mac,
            features,
            chains: (0..qsize).map(|_| None).collect(),
            meter,
        })
    }

    /// The negotiated feature set.
    pub fn features(&self) -> u64 {
        self.features
    }

    /// The cached (trusted-at-negotiation) MTU.
    pub fn mtu(&self) -> u16 {
        self.cached_mtu
    }

    /// The cached MAC address.
    pub fn mac(&self) -> [u8; 6] {
        self.cached_mac
    }

    fn charge_validation(&self, fields: u64) {
        self.mem.clock().advance(cio_sim::Cycles(
            self.mem.cost().validate_field.get() * fields,
        ));
        self.meter.validations(fields);
    }

    /// Re-reads the live config and compares against the cached snapshot.
    ///
    /// # Errors
    ///
    /// [`Violation::ConfigMutation`] if the host changed MTU or MAC after
    /// negotiation — detected, unlike the unhardened driver's double fetch.
    pub fn audit_config(&self) -> Result<(), RingError> {
        self.charge_validation(2);
        let mtu_now = self.cfg.read_mtu(&self.mem.guest())?;
        let mac_now = self.cfg.read_mac(&self.mem.guest())?;
        if mtu_now != self.cached_mtu || mac_now != self.cached_mac {
            self.meter.violations_detected(1);
            return Err(RingError::HostViolation(Violation::ConfigMutation));
        }
        Ok(())
    }

    /// Transmits `payload`: bounce-copy into a shared slot, then expose.
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] if the payload exceeds the cached MTU or a
    /// bounce slot; [`RingError::Full`] when out of descriptors/slots.
    pub fn send(&mut self, payload: &[u8], token: u64) -> Result<(), RingError> {
        // The negotiated MTU is the IP-payload limit; a full frame carries
        // an Ethernet header on top (virtio-net semantics).
        if payload.len() > usize::from(self.cached_mtu) + 14 {
            return Err(RingError::TooLarge);
        }
        let slot = self.bounce.bounce_tx(payload).map_err(|e| match e {
            cio_mem::MemError::PoolExhausted => RingError::Full,
            other => RingError::Mem(other),
        })?;
        let head = match self.inner.add_buf(
            &[DescSeg {
                addr: slot.addr,
                len: payload.len() as u32,
            }],
            &[],
            token,
        ) {
            Ok(h) => h,
            Err(e) => {
                let _ = self.bounce.release(slot);
                return Err(e);
            }
        };
        let descs = self.inner.last_chain_descs().to_vec();
        self.chains[head as usize] = Some(ChainMeta {
            descs,
            slot,
            in_capacity: 0,
            is_rx: false,
        });
        Ok(())
    }

    /// Posts a receive buffer (one bounce slot) to the device.
    ///
    /// # Errors
    ///
    /// [`RingError::Full`] when out of descriptors or bounce slots.
    pub fn post_recv(&mut self, token: u64) -> Result<(), RingError> {
        let slot = self.bounce.alloc_rx().map_err(|e| match e {
            cio_mem::MemError::PoolExhausted => RingError::Full,
            other => RingError::Mem(other),
        })?;
        let cap = slot.len as u32;
        let head = match self.inner.add_buf(
            &[],
            &[DescSeg {
                addr: slot.addr,
                len: cap,
            }],
            token,
        ) {
            Ok(h) => h,
            Err(e) => {
                let _ = self.bounce.release(slot);
                return Err(e);
            }
        };
        let descs = self.inner.last_chain_descs().to_vec();
        self.chains[head as usize] = Some(ChainMeta {
            descs,
            slot,
            in_capacity: cap,
            is_rx: true,
        });
        Ok(())
    }

    /// Polls for one completion, with full validation.
    ///
    /// On success returns the completion; for receive chains the payload is
    /// bounced out and returned. On a host violation the entry is consumed
    /// defensively (chain reclaimed via private state) and the violation is
    /// reported.
    ///
    /// # Errors
    ///
    /// [`RingError::HostViolation`] with the detected violation class.
    pub fn poll(&mut self) -> Result<Option<PollOutcome>, RingError> {
        let Some((id, len)) = self.inner.peek_used()? else {
            return Ok(None);
        };
        // Validation: 3 fields (id range, chain membership, length).
        self.charge_validation(3);

        let qsize = u32::from(self.inner.layout().qsize);
        if id >= qsize {
            self.inner.advance_used();
            self.meter.violations_detected(1);
            return Err(RingError::HostViolation(Violation::BadCompletionId));
        }
        let head = id as u16;
        let Some(meta) = self.chains[head as usize].take() else {
            self.inner.advance_used();
            self.meter.violations_detected(1);
            return Err(RingError::HostViolation(Violation::BadCompletionId));
        };
        if meta.is_rx && len > meta.in_capacity {
            // Reclaim defensively, then report.
            self.inner.advance_used();
            let token = self.inner.take_inflight_exact(head);
            self.inner.free_descs_private(&meta.descs)?;
            let _ = self.bounce.release(meta.slot);
            let _ = token;
            self.meter.violations_detected(1);
            return Err(RingError::HostViolation(Violation::BadLength));
        }

        self.inner.advance_used();
        let token = self
            .inner
            .take_inflight_exact(head)
            .expect("chain meta and inflight are kept in lockstep");
        self.inner.free_descs_private(&meta.descs)?;

        let data = if meta.is_rx {
            let d = self.bounce.bounce_rx(meta.slot, len as usize)?;
            Some(d)
        } else {
            None
        };
        self.bounce.release(meta.slot)?;
        Ok(Some((Completion { token, len }, data)))
    }

    /// Notifies the device (doorbell): charged as a host transition.
    pub fn kick(&self) {
        self.mem.clock().advance(self.mem.cost().notify_host);
        self.meter.notifications_sent(1);
    }

    /// Free descriptors remaining (diagnostic).
    pub fn num_free(&self) -> u16 {
        self.inner.num_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtqueue::{DeviceSide, F_NET_MAC, F_NET_MTU, F_VERSION_1};
    use cio_mem::{GuestAddr, GuestMemory, MemView, PAGE_SIZE};
    use cio_sim::{Clock, CostModel};

    const CFG_BASE: u64 = 6 * PAGE_SIZE as u64;
    const BOUNCE_BASE: u64 = 8 * PAGE_SIZE as u64;

    fn setup(qsize: u16) -> (GuestMemory, HardenedDriver, DeviceSide) {
        let meter = Meter::new();
        let mem = GuestMemory::new(32, Clock::new(), CostModel::default(), meter.clone());
        // Pages 0..7 shared: queue structures + config page.
        mem.share_range(GuestAddr(0), 7 * PAGE_SIZE).unwrap();
        let cfg = ConfigSpace {
            base: GuestAddr(CFG_BASE),
        };
        cfg.device_init(
            &mem.host(),
            [2, 0, 0, 0, 0, 9],
            1500,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
        )
        .unwrap();
        let layout = Layout::new(GuestAddr(0), qsize).unwrap();
        let driver = HardenedDriver::new(
            &mem,
            layout,
            cfg,
            F_VERSION_1 | F_NET_MAC | F_NET_MTU,
            GuestAddr(BOUNCE_BASE),
            8,
            meter,
        )
        .unwrap();
        let device = DeviceSide::new(mem.host(), layout);
        (mem, driver, device)
    }

    #[test]
    fn negotiates_and_caches_config() {
        let (_mem, driver, _device) = setup(8);
        assert_eq!(driver.mtu(), 1500);
        assert_eq!(driver.mac(), [2, 0, 0, 0, 0, 9]);
        assert_eq!(driver.features(), F_VERSION_1 | F_NET_MAC | F_NET_MTU);
    }

    #[test]
    fn tx_bounces_payload() {
        let (mem, mut driver, mut device) = setup(8);
        let copies_before = mem.meter().snapshot().copies;
        driver.send(b"hardened packet", 1).unwrap();
        // One bounce copy happened.
        assert_eq!(mem.meter().snapshot().copies, copies_before + 1);
        let chain = device.pop().unwrap().unwrap();
        // The device reads from the bounce slot, never guest private memory.
        assert!(chain.readable[0].addr.0 >= BOUNCE_BASE);
        assert_eq!(device.read_payload(&chain).unwrap(), b"hardened packet");
        device.complete(chain.head, 0).unwrap();
        let (done, data) = driver.poll().unwrap().unwrap();
        assert_eq!(done.token, 1);
        assert!(data.is_none());
    }

    #[test]
    fn rx_roundtrip_with_two_copies_total() {
        let (mem, mut driver, mut device) = setup(8);
        driver.post_recv(7).unwrap();
        let chain = device.pop().unwrap().unwrap();
        device.write_payload(&chain, b"incoming frame").unwrap();
        device.complete(chain.head, 14).unwrap();
        let copies_before = mem.meter().snapshot().copies;
        let (done, data) = driver.poll().unwrap().unwrap();
        assert_eq!(done.token, 7);
        assert_eq!(data.unwrap(), b"incoming frame");
        // The bounce-out copy.
        assert_eq!(mem.meter().snapshot().copies, copies_before + 1);
    }

    #[test]
    fn oversize_tx_rejected_by_cached_mtu() {
        let (_mem, mut driver, _device) = setup(8);
        // MTU 1500 + 14-byte Ethernet header allowance = 1514 max frame.
        let fits = vec![0u8; 1514];
        driver.send(&fits, 0).unwrap();
        let big = vec![0u8; 1515];
        assert!(matches!(driver.send(&big, 0), Err(RingError::TooLarge)));
    }

    #[test]
    fn bad_completion_id_detected() {
        let (mem, mut driver, mut device) = setup(8);
        driver.send(b"x", 1).unwrap();
        let _ = device.pop().unwrap().unwrap();
        device.complete(1000, 0).unwrap();
        let r = driver.poll();
        assert!(matches!(
            r,
            Err(RingError::HostViolation(Violation::BadCompletionId))
        ));
        assert!(mem.meter().snapshot().violations_detected >= 1);
        assert_eq!(mem.meter().snapshot().violations_undetected, 0);
    }

    #[test]
    fn spurious_completion_detected() {
        let (_mem, mut driver, mut device) = setup(8);
        driver.send(b"x", 1).unwrap();
        let c = device.pop().unwrap().unwrap();
        device.complete(c.head, 0).unwrap();
        driver.poll().unwrap().unwrap();
        // Replay.
        device.complete(c.head, 0).unwrap();
        assert!(matches!(
            driver.poll(),
            Err(RingError::HostViolation(Violation::BadCompletionId))
        ));
    }

    #[test]
    fn overlong_rx_len_detected_and_clamped_away() {
        let (_mem, mut driver, mut device) = setup(8);
        driver.post_recv(9).unwrap();
        let chain = device.pop().unwrap().unwrap();
        device.complete(chain.head, 1 << 20).unwrap();
        assert!(matches!(
            driver.poll(),
            Err(RingError::HostViolation(Violation::BadLength))
        ));
        // The driver recovered: descriptors and slot were reclaimed.
        driver.post_recv(10).unwrap();
    }

    #[test]
    fn config_mutation_detected() {
        let (mem, driver, _device) = setup(8);
        driver.audit_config().unwrap();
        // Host flips the MTU after negotiation.
        mem.host()
            .write_u16(GuestAddr(CFG_BASE + ConfigSpace::MTU), 9000)
            .unwrap();
        assert!(matches!(
            driver.audit_config(),
            Err(RingError::HostViolation(Violation::ConfigMutation))
        ));
        // The data path still uses the cached value.
        assert_eq!(driver.mtu(), 1500);
    }

    #[test]
    fn corrupted_next_does_not_affect_private_free() {
        let (mem, mut driver, mut device) = setup(8);
        driver.send(b"one", 1).unwrap();
        driver.send(b"two", 2).unwrap();
        // Host scribbles over every descriptor `next` field.
        for i in 0..8u16 {
            mem.host()
                .write_u16(GuestAddr(u64::from(i) * 16 + 14), 0xFFFF)
                .unwrap();
        }
        let c1 = device.pop().unwrap().unwrap();
        let c2 = device.pop().unwrap().unwrap();
        device.complete(c1.head, 0).unwrap();
        device.complete(c2.head, 0).unwrap();
        driver.poll().unwrap().unwrap();
        driver.poll().unwrap().unwrap();
        // No undetected corruption, and the driver can keep allocating.
        assert_eq!(mem.meter().snapshot().violations_undetected, 0);
        for t in 0..8 {
            driver.send(b"again", t).unwrap_or_else(|e| {
                panic!("free list survived corruption, but send {t} failed: {e}")
            });
        }
    }

    #[test]
    fn hardening_costs_show_up() {
        let (mem, mut driver, mut device) = setup(8);
        let before = mem.meter().snapshot();
        driver.send(&[0u8; 1024], 1).unwrap();
        let c = device.pop().unwrap().unwrap();
        device.complete(c.head, 0).unwrap();
        driver.poll().unwrap().unwrap();
        let d = mem.meter().snapshot().delta(&before);
        assert_eq!(d.copies, 1, "tx bounce copy");
        assert!(d.validations >= 3, "per-completion validation");
    }
}
