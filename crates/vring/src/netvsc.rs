//! A NetVSC/VMBus-shaped transport — the second driver family of the
//! paper's hardening study (Figure 3).
//!
//! Hyper-V networking differs from virtio in a way that matters for
//! interface safety: instead of descriptor chains pointing at guest
//! buffers, the host writes received packets into a large pre-shared
//! **receive buffer** and sends `(offset, len)` descriptors over the VMBus
//! channel. The historical vulnerability class is therefore different too:
//! a hostile host supplies an *out-of-range offset*, and an unhardened
//! guest computes `recv_buf_base + offset` and reads whatever lives there —
//! an information leak of private guest memory into the packet path. That
//! is precisely what the "hv_netvsc: Add validation for untrusted Hyper-V
//! values" commits (classified in Figure 3) fixed.
//!
//! The VMBus channel itself is modelled by a pair of [`crate::cioring`]
//! rings (an SPSC ring of self-contained messages, which is what a VMBus
//! ring buffer is), each message in its ring's shared area; the NetVSC
//! protocol layer on top is what this module implements, in unhardened
//! and hardened flavours. Where a channel message's bytes sit does not
//! enter the attack: the forged receive-buffer offset does.

use crate::cioring::{CioRing, Consumer, Producer, RingConfig};
use crate::{RingError, Violation};
use cio_mem::{GuestAddr, GuestMemory, GuestView, HostView};

/// Message type: host-to-guest receive-buffer descriptor.
const MSG_RECV_DESC: u8 = 2;
/// Message type: guest-to-host receive-buffer section completion.
const MSG_RECV_DONE: u8 = 3;

/// Builds the VMBus channel ring config (messages carrying frames up to
/// `mtu`).
pub fn channel_config(mtu: u32) -> RingConfig {
    let slots = 16;
    RingConfig {
        slots,
        mtu: mtu + 12,
        area_size: slots * (mtu + 16).next_power_of_two(),
        ..RingConfig::default()
    }
}

/// The guest-side NetVSC endpoint.
pub struct NetvscGuest {
    /// Guest -> host channel (inline data + completions).
    chan_tx: Producer<GuestView>,
    /// Host -> guest channel (receive descriptors).
    chan_rx: Consumer<GuestView>,
    recv_buf: GuestAddr,
    recv_buf_len: u32,
    hardened: bool,
    mem: GuestMemory,
}

impl NetvscGuest {
    /// Creates the endpoint over an established channel and the pre-shared
    /// receive buffer (`recv_buf` must be `recv_buf_len` shared bytes).
    pub fn new(
        chan_tx: Producer<GuestView>,
        chan_rx: Consumer<GuestView>,
        recv_buf: GuestAddr,
        recv_buf_len: u32,
        hardened: bool,
        mem: GuestMemory,
    ) -> Self {
        NetvscGuest {
            chan_tx,
            chan_rx,
            recv_buf,
            recv_buf_len,
            hardened,
            mem,
        }
    }

    /// Receives one frame from the receive buffer, if a descriptor is
    /// pending.
    ///
    /// The unhardened flavour trusts the host's `(offset, len)` exactly as
    /// the pre-hardening driver did: the read lands wherever
    /// `recv_buf + offset` points — including *private guest memory*,
    /// which the caller then treats as packet bytes (the information
    /// leak). The oracle records it. The hardened flavour validates the
    /// descriptor against the buffer bounds first.
    ///
    /// # Errors
    ///
    /// [`Violation::BadLength`] (hardened) when the descriptor fails
    /// validation.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, RingError> {
        let Some(msg) = self.chan_rx.consume()? else {
            return Ok(None);
        };
        if msg.len() < 9 || msg[0] != MSG_RECV_DESC {
            return Ok(None); // not a data descriptor; drop
        }
        let offset = u32::from_le_bytes(msg[1..5].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(msg[5..9].try_into().expect("4 bytes"));

        let in_bounds = u64::from(offset) + u64::from(len) <= u64::from(self.recv_buf_len);
        if self.hardened {
            // The post-hardening driver: validate untrusted Hyper-V values.
            let mem = self.mem.clone();
            mem.clock()
                .advance(cio_sim::Cycles(mem.cost().validate_field.get() * 2));
            mem.meter().validations(2);
            if !in_bounds {
                mem.meter().violations_detected(1);
                let _ = self.complete(offset);
                return Err(RingError::HostViolation(Violation::BadLength));
            }
        } else if !in_bounds {
            // The pre-hardening driver: no check. The read below lands in
            // whatever guest memory the host chose.
            self.mem.meter().violations_undetected(1);
        }

        let addr = self.recv_buf.add(u64::from(offset));
        let mut buf = vec![0u8; len as usize];
        match self.mem.guest().read(addr, &mut buf) {
            Ok(()) => {}
            Err(_) => {
                // Off the end of guest memory entirely: the C driver would
                // have faulted; deliver nothing.
                return Ok(None);
            }
        }
        self.complete(offset)?;
        Ok(Some(buf))
    }

    fn complete(&mut self, offset: u32) -> Result<(), RingError> {
        let mut msg = Vec::with_capacity(5);
        msg.push(MSG_RECV_DONE);
        msg.extend_from_slice(&offset.to_le_bytes());
        self.chan_tx.produce(&msg)
    }
}

/// The host-side NetVSC endpoint (the VSP).
pub struct NetvscHost {
    chan_tx: Consumer<HostView>,
    chan_rx: Producer<HostView>,
    recv_buf: GuestAddr,
    recv_buf_len: u32,
    next_offset: u32,
    host: HostView,
}

impl NetvscHost {
    /// Creates the host endpoint.
    pub fn new(
        chan_tx: Consumer<HostView>,
        chan_rx: Producer<HostView>,
        recv_buf: GuestAddr,
        recv_buf_len: u32,
        host: HostView,
    ) -> Self {
        NetvscHost {
            chan_tx,
            chan_rx,
            recv_buf,
            recv_buf_len,
            next_offset: 0,
            host,
        }
    }

    /// Delivers a frame: writes it into the receive buffer and posts the
    /// descriptor.
    ///
    /// # Errors
    ///
    /// Channel full; frame larger than the buffer.
    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), RingError> {
        // The guest's completions recycle sections; the bump allocator
        // needs no bookkeeping, so they are only drained.
        while self.chan_tx.consume()?.is_some() {}
        let len = frame.len() as u32;
        if len > self.recv_buf_len {
            return Err(RingError::TooLarge);
        }
        if self.next_offset + len > self.recv_buf_len {
            self.next_offset = 0; // wrap (sections recycled by completions)
        }
        let offset = self.next_offset;
        self.host
            .write(self.recv_buf.add(u64::from(offset)), frame)?;
        self.next_offset += len.max(64);
        self.post_descriptor(offset, len)
    }

    /// The attack primitive: posts a descriptor with arbitrary
    /// host-chosen `(offset, len)` — no backing write.
    ///
    /// # Errors
    ///
    /// Channel full.
    pub fn forge_descriptor(&mut self, offset: u32, len: u32) -> Result<(), RingError> {
        self.post_descriptor(offset, len)
    }

    fn post_descriptor(&mut self, offset: u32, len: u32) -> Result<(), RingError> {
        let mut msg = Vec::with_capacity(9);
        msg.push(MSG_RECV_DESC);
        msg.extend_from_slice(&offset.to_le_bytes());
        msg.extend_from_slice(&len.to_le_bytes());
        self.chan_rx.produce(&msg)
    }
}

/// Builds a connected guest/host NetVSC pair over fresh rings inside
/// `mem`, with the receive buffer at `recv_buf`.
///
/// `recv_buf` must already be shared, `recv_buf_len` bytes long. The two
/// channel rings and their message areas are placed at `chan_base`
/// (caller-reserved shared space of at least 2 * (area_bytes + ring_bytes)).
///
/// # Errors
///
/// Ring construction failures.
pub fn netvsc_pair(
    mem: &GuestMemory,
    chan_base: GuestAddr,
    recv_buf: GuestAddr,
    recv_buf_len: u32,
    mtu: u32,
    hardened: bool,
) -> Result<(NetvscGuest, NetvscHost), RingError> {
    let cfg = channel_config(mtu);
    // Both message areas first, then both rings.
    let area = u64::from(cfg.area_size);
    let rings = chan_base.add(2 * area);
    let tx_ring = CioRing::new(cfg.clone(), rings, chan_base)?;
    let rx_base = rings.add(tx_ring.ring_bytes() as u64);
    let rx_ring = CioRing::new(cfg, rx_base, chan_base.add(area))?;

    let guest = NetvscGuest::new(
        Producer::new(tx_ring.clone(), mem.guest())?,
        Consumer::new(rx_ring.clone(), mem.guest())?,
        recv_buf,
        recv_buf_len,
        hardened,
        mem.clone(),
    );
    let host = NetvscHost::new(
        Consumer::new(tx_ring, mem.host())?,
        Producer::new(rx_ring, mem.host())?,
        recv_buf,
        recv_buf_len,
        mem.host(),
    );
    Ok((guest, host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_mem::PAGE_SIZE;
    use cio_sim::{Clock, CostModel, Meter};

    const RECV_BUF: u64 = 64 * PAGE_SIZE as u64;
    const RECV_LEN: u32 = 16 * PAGE_SIZE as u32;
    const SECRET_PAGE: u64 = 128 * PAGE_SIZE as u64;

    fn world(hardened: bool) -> (GuestMemory, NetvscGuest, NetvscHost) {
        let mem = GuestMemory::new(256, Clock::new(), CostModel::default(), Meter::new());
        // Channel rings: pages 0..32 shared.
        mem.share_range(GuestAddr(0), 32 * PAGE_SIZE).unwrap();
        // Receive buffer: shared.
        mem.share_range(GuestAddr(RECV_BUF), RECV_LEN as usize)
            .unwrap();
        let (g, h) = netvsc_pair(
            &mem,
            GuestAddr(0),
            GuestAddr(RECV_BUF),
            RECV_LEN,
            1514,
            hardened,
        )
        .unwrap();
        (mem, g, h)
    }

    #[test]
    fn frames_flow_to_the_guest_and_completions_back() {
        let (_mem, mut g, mut h) = world(false);
        h.deliver(b"host to guest frame").unwrap();
        let got = g.recv().unwrap().unwrap();
        assert_eq!(got, b"host to guest frame");
        assert!(g.recv().unwrap().is_none());
        // The completion flowed back.
        let done = h.chan_tx.consume().unwrap().unwrap();
        assert_eq!((done[0], done.len()), (MSG_RECV_DONE, 5));
        assert!(h.chan_tx.consume().unwrap().is_none());
    }

    #[test]
    fn receive_buffer_wraps_and_recycles() {
        let (_mem, mut g, mut h) = world(false);
        for i in 0..40u32 {
            let frame = vec![i as u8; 3000];
            h.deliver(&frame).unwrap();
            assert_eq!(g.recv().unwrap().unwrap(), frame, "frame {i}");
        }
    }

    #[test]
    fn unhardened_offset_forgery_leaks_private_memory() {
        let (mem, mut g, mut h) = world(false);
        // A secret sits in *private* guest memory beyond the recv buffer.
        mem.guest()
            .write(GuestAddr(SECRET_PAGE), b"TOP-SECRET-SEALING-KEY-0123456789")
            .unwrap();
        // The hostile host aims a descriptor at it: offset relative to the
        // receive-buffer base.
        let offset = (SECRET_PAGE - RECV_BUF) as u32;
        h.forge_descriptor(offset, 33).unwrap();

        let leaked = g.recv().unwrap().expect("unhardened driver delivers");
        assert_eq!(
            leaked, b"TOP-SECRET-SEALING-KEY-0123456789",
            "private memory leaked into the packet path"
        );
        assert!(
            mem.meter().snapshot().violations_undetected > 0,
            "oracle must flag the unvalidated offset"
        );
    }

    #[test]
    fn hardened_validation_stops_the_leak() {
        let (mem, mut g, mut h) = world(true);
        mem.guest()
            .write(GuestAddr(SECRET_PAGE), b"TOP-SECRET")
            .unwrap();
        let offset = (SECRET_PAGE - RECV_BUF) as u32;
        h.forge_descriptor(offset, 10).unwrap();
        assert!(matches!(
            g.recv(),
            Err(RingError::HostViolation(Violation::BadLength))
        ));
        let snap = mem.meter().snapshot();
        assert!(snap.violations_detected > 0);
        assert_eq!(snap.violations_undetected, 0);
        // Legitimate traffic still flows after the rejected descriptor.
        h.deliver(b"legit").unwrap();
        assert_eq!(g.recv().unwrap().unwrap(), b"legit");
    }

    #[test]
    fn hardened_accepts_exact_boundary() {
        let (_mem, mut g, mut h) = world(true);
        // offset + len == recv_buf_len is the last valid descriptor.
        h.forge_descriptor(RECV_LEN - 8, 8).unwrap();
        assert!(g.recv().unwrap().is_some());
        // One past fails.
        h.forge_descriptor(RECV_LEN - 8, 9).unwrap();
        assert!(g.recv().is_err());
    }

    #[test]
    fn descriptor_len_overflow_is_handled() {
        // offset + len overflowing u32 must not wrap into acceptance.
        let (mem, mut g, mut h) = world(true);
        h.forge_descriptor(u32::MAX - 4, u32::MAX - 4).unwrap();
        assert!(g.recv().is_err());
        assert_eq!(mem.meter().snapshot().violations_undetected, 0);
    }

    #[test]
    fn garbage_channel_messages_dropped() {
        let (_mem, mut g, mut h) = world(false);
        // Host sends a malformed message type.
        h.chan_rx.produce(&[9, 9, 9]).unwrap();
        assert!(g.recv().unwrap().is_none());
        // And a truncated descriptor.
        h.chan_rx.produce(&[MSG_RECV_DESC, 1]).unwrap();
        assert!(g.recv().unwrap().is_none());
    }
}
