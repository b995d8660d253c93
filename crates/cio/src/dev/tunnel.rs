//! The LightBox-style tunnel device over a cio-ring carrier.

use cio_mem::{CopyPolicy, GuestView};
use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_sim::{Clock, Cycles};
use cio_vring::cioring::{BatchPolicy, Consumer, Producer, MAX_BATCH};
use std::collections::VecDeque;

/// The LightBox-style tunnel device: whole L2 frames sealed into a cTLS
/// channel provisioned at deployment, carried to the gateway as opaque
/// blobs. The host (and the local network) learn only blob sizes and
/// timing.
///
/// One transmit path and one receive path, whatever the policies: frames
/// gather until the batch policy's run is full (Serial: at once), one
/// AEAD pass seals the run into one reserved ring run, and receives drain
/// and open a run at a time. Whether the seal lands in slot memory or in
/// private staging that the ring then copies is the carrier endpoints'
/// [`CopyPolicy`], wired by [`TunnelDevice::set_copy_policy`].
pub struct TunnelDevice {
    inner_tx: Producer<GuestView>,
    inner_rx: Consumer<GuestView>,
    chan: cio_ctls::Channel,
    mac: MacAddr,
    mtu: usize,
    /// Batch discipline for the carrier ring.
    batch: BatchPolicy,
    /// The carrier memory domain's virtual clock, read to enforce the
    /// adaptive policy's latency cap on partially filled batches.
    clock: Clock,
    /// Frames accepted by `transmit` but not yet sealed onto the carrier.
    /// Bounded by the policy's batch size.
    tx_pending: VecDeque<Vec<u8>>,
    /// Virtual time the oldest pending frame was accepted.
    tx_pending_since: Option<Cycles>,
    /// Free list backing `tx_pending` and `rx_pending` (at most
    /// [`MAX_BATCH`] idle buffers, each keeping its capacity), so the
    /// steady state allocates nothing once it has warmed up.
    free: Vec<Vec<u8>>,
    /// Plaintexts opened by one receive pass, handed out one per
    /// `receive` call.
    rx_pending: VecDeque<Vec<u8>>,
    /// Per-record scratches for the open pass.
    batch_outs: Vec<cio_ctls::RecordScratch>,
}

impl TunnelDevice {
    /// Wraps the carrier rings with the provisioned tunnel channel.
    pub fn new(
        inner_tx: Producer<GuestView>,
        inner_rx: Consumer<GuestView>,
        chan: cio_ctls::Channel,
        mac: MacAddr,
        mtu: usize,
    ) -> Self {
        let clock = inner_tx.clock();
        TunnelDevice {
            inner_tx,
            inner_rx,
            chan,
            mac,
            mtu,
            batch: BatchPolicy::default(),
            clock,
            tx_pending: VecDeque::new(),
            tx_pending_since: None,
            free: Vec::with_capacity(MAX_BATCH),
            rx_pending: VecDeque::new(),
            batch_outs: std::iter::repeat_with(cio_ctls::RecordScratch::new)
                .take(MAX_BATCH)
                .collect(),
        }
    }

    /// Wires the carrier's data positioning (§3.2) onto both ring
    /// endpoints: in place, records are sealed straight into reserved
    /// slots and opened straight out of them; [`CopyPolicy::CopyEarly`]
    /// (the discipline adversarial double-fetch configurations demand)
    /// seals into private staging and pays the explicit interface copy
    /// each way.
    pub fn set_copy_policy(&mut self, policy: CopyPolicy) {
        self.inner_tx.set_copy_policy(policy);
        self.inner_rx.set_copy_policy(policy);
    }

    /// Selects the carrier's batch discipline: how many transmits gather
    /// for one shared-keystream AEAD pass into one reserved run (one
    /// lock, one index publish), and how many records one receive pass
    /// drains.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch = batch;
    }

    /// Seals as many pending frames as the carrier grants, in reserved
    /// runs of up to the policy's batch size. Returns whether the queue
    /// fully drained; a partial grant seals the granted prefix and leaves
    /// the rest pending (transient backpressure, retried next flush).
    fn flush_tx(&mut self) -> bool {
        while !self.tx_pending.is_empty() {
            let n = self.tx_pending.len().min(self.batch.max_batch());
            let cap = self
                .tx_pending
                .iter()
                .take(n)
                .map(Vec::len)
                .max()
                .unwrap_or(0)
                + cio_ctls::RECORD_OVERHEAD;
            let grant = match self.inner_tx.reserve_batch(cap, n) {
                Ok(g) => g,
                Err(_) => return false,
            };
            let g = grant.len().min(n);
            let mut pts: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
            for (i, f) in self.tx_pending.iter().take(g).enumerate() {
                pts[i] = f.as_slice();
            }
            let mut lens = [0usize; MAX_BATCH];
            let chan = &mut self.chan;
            let sealed = self.inner_tx.with_batch_mut(&grant, |slots| {
                chan.seal_batch_into_slots(&pts[..g], &mut slots[..g], &mut lens[..g])
            });
            if !matches!(sealed, Ok(Ok(()))) {
                return false;
            }
            if self.inner_tx.commit_batch(grant, &lens[..g]).is_err() {
                return false;
            }
            self.inner_tx.kick();
            for _ in 0..g {
                if let Some(buf) = self.tx_pending.pop_front() {
                    recycle(&mut self.free, buf);
                }
            }
        }
        self.tx_pending_since = None;
        true
    }

    /// Drains one run off the carrier: a single locked pass fetches the
    /// run, one AEAD pass opens it, and the opened plaintexts queue for
    /// per-call hand-out. Host-injected garbage fails its own open and is
    /// dropped without touching the rest of the run — the tunnel boundary
    /// is exactly one AEAD check wide. Returns how many records were
    /// consumed.
    fn drain_rx(&mut self) -> usize {
        let chan = &mut self.chan;
        let outs = &mut self.batch_outs;
        let rx_pending = &mut self.rx_pending;
        let free = &mut self.free;
        self.inner_rx
            .consume_batch_in_place(self.batch.max_batch(), |slots| {
                let k = slots.len();
                let mut recs: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
                for (i, s) in slots.iter().enumerate() {
                    recs[i] = s;
                }
                let mut results: [Result<(), cio_ctls::CtlsError>; MAX_BATCH] = [Ok(()); MAX_BATCH];
                chan.open_batch_in_slots(&recs[..k], &mut outs[..k], &mut results[..k]);
                for (out, res) in outs[..k].iter().zip(&results[..k]) {
                    if res.is_ok() {
                        let mut frame = free.pop().unwrap_or_default();
                        frame.extend_from_slice(out.as_slice());
                        rx_pending.push_back(frame);
                    }
                }
            })
            .unwrap_or(0)
    }
}

/// Hands `buf` back to the free list, cleared, unless [`MAX_BATCH`]
/// buffers already wait there.
fn recycle(free: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
    if free.len() < MAX_BATCH {
        buf.clear();
        free.push(buf);
    }
}

impl NetDevice for TunnelDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        // Gather-then-flush: frames queue until the policy's batch fills
        // or the adaptive latency cap expires, then one reserved run takes
        // the whole batch. A full queue that will not flush (carrier
        // backpressure) refuses the frame.
        if self.tx_pending.len() >= self.batch.max_batch() && !self.flush_tx() {
            return Err(NetError::DeviceFull);
        }
        let now = self.clock.now();
        let mut buf = self.free.pop().unwrap_or_default();
        buf.extend_from_slice(frame);
        self.tx_pending.push_back(buf);
        let since = *self.tx_pending_since.get_or_insert(now);
        let due = self
            .batch
            .latency_cap()
            .is_some_and(|cap| now.get().saturating_sub(since.get()) >= cap.get());
        if self.tx_pending.len() >= self.batch.max_batch() || due {
            self.flush_tx();
        }
        Ok(())
    }

    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        // A receive pass is the tunnel's progress point: flush any
        // gathered transmit batch first so partially filled batches never
        // outlive the pump iteration that could have sent them.
        if !self.tx_pending.is_empty() {
            self.flush_tx();
        }
        loop {
            if let Some(mut next) = self.rx_pending.pop_front() {
                std::mem::swap(frame, &mut next);
                recycle(&mut self.free, next);
                return true;
            }
            if self.drain_rx() == 0 {
                return false;
            }
        }
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}
