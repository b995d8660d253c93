//! The session control plane: RSS-sharded generational flow table,
//! deterministic load generation, and the E21 session-scale harness.
//!
//! Everything E16–E20 measures runs over a handful of long-lived flows;
//! this module is what makes the "fast confidential I/O" claim honest at
//! production session counts. Three requirements drive the design:
//!
//! * **O(1) hot-path lookup.** A [`SessionTable`] is sharded by RSS lane
//!   (the same symmetric flow hash that steers the dataplane), and a
//!   [`SessionId`] encodes `(shard, slot)` directly — a lookup is two
//!   array indexes and a generation compare, never a probe chain. The
//!   table counts lookups and probes so experiments can *assert*
//!   `probes / lookups == 1` instead of merely claiming it.
//! * **Churn as steady state.** Slots are reclaimed on close through
//!   per-shard free lists, so peak table memory is bounded by peak
//!   concurrency, not total sessions ever created — and the table proves
//!   it through [`SessionTable::capacity`] / [`SessionTable::created`].
//! * **No silent aliasing.** Every slot carries a generation; a stale
//!   [`SessionId`] held across close/reuse fails with a typed
//!   [`SessionError`] instead of reading a stranger's stream.

mod loadgen;
mod plane;

pub use loadgen::{Arrival, LoadGen, LoadGenConfig};
pub use plane::{SessionPlane, SessionPlaneConfig, SessionPlaneReport};

/// A generational handle to one session in a [`SessionTable`].
///
/// The handle is `Copy` and remains valid until the session closes; after
/// the slot is reclaimed (and possibly reissued to a new session), any use
/// of the old handle returns [`SessionError::Closed`] — generations make
/// aliasing a typed error instead of silent cross-session state access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    /// `(slot_in_shard << shard_bits) | shard`: the low bits are the RSS
    /// shard, so the steering lane is recoverable from the handle alone.
    index: u32,
    /// The slot generation this handle was issued under.
    generation: u32,
}

impl SessionId {
    /// Builds a handle from raw parts. Intended for adversarial
    /// harnesses and tests that probe the table with forged handles;
    /// a forged handle never resolves to a live session — it returns
    /// [`SessionError::Unknown`] or [`SessionError::Closed`].
    pub fn from_raw_parts(index: u32, generation: u32) -> Self {
        SessionId { index, generation }
    }

    /// The packed `(slot, shard)` index (diagnostic).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The generation this handle was issued under (diagnostic).
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}g{}", self.index, self.generation)
    }
}

/// Why a [`SessionId`] failed to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The handle does not name any slot this table ever issued (out of
    /// range, or a generation from the future — a forged handle).
    Unknown,
    /// The handle named a real session that has since closed (its slot
    /// may have been reclaimed by a newer session; the newer session is
    /// unreachable through the stale handle).
    Closed,
    /// The session exists but its cTLS handshake has not completed, so
    /// application data cannot flow yet.
    Handshaking,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown => f.write_str("unknown session handle"),
            SessionError::Closed => f.write_str("session closed (stale handle)"),
            SessionError::Handshaking => f.write_str("session still handshaking"),
        }
    }
}

impl std::error::Error for SessionError {}

struct Slot<T> {
    /// Incremented on every reclaim; handles carry the generation they
    /// were issued under. Starts at 1 so a zeroed/default handle never
    /// resolves.
    generation: u32,
    value: Option<T>,
}

struct Shard<T> {
    slots: Vec<Slot<T>>,
    /// Reclaimed slot indexes awaiting reuse (LIFO: the hottest slot is
    /// reissued first, which keeps the table compact under churn).
    free: Vec<u32>,
}

/// An RSS-sharded, generation-checked flow table.
///
/// Shard count must be a power of two (it mirrors the dataplane queue
/// count); a session's shard is fixed at insert and encoded in the low
/// bits of its [`SessionId`], so `id → shard` is a mask, `id → slot` a
/// shift, and the whole lookup is O(1) with exactly one probe.
pub struct SessionTable<T> {
    shards: Vec<Shard<T>>,
    shard_bits: u32,
    created: u64,
    reclaimed: u64,
    lookups: u64,
    probes: u64,
    /// Live sessions per shard (index = shard = RSS lane).
    shard_live: Vec<u64>,
    /// Peak concurrent sessions per shard.
    shard_peak: Vec<u64>,
}

impl<T> SessionTable<T> {
    /// Creates a table with `shards` shards (power of two, ≥ 1).
    ///
    /// # Panics
    ///
    /// If `shards` is zero or not a power of two (construction-time
    /// misconfiguration, same contract as [`cio_sim::Lanes`]).
    pub fn new(shards: usize) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a non-zero power of two"
        );
        SessionTable {
            shards: (0..shards)
                .map(|_| Shard {
                    slots: Vec::new(),
                    free: Vec::new(),
                })
                .collect(),
            shard_bits: shards.trailing_zeros(),
            created: 0,
            reclaimed: 0,
            lookups: 0,
            probes: 0,
            shard_live: vec![0; shards],
            shard_peak: vec![0; shards],
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Inserts a session into `shard`, reusing a reclaimed slot when one
    /// exists; returns its generational handle.
    pub fn insert(&mut self, shard: usize, value: T) -> SessionId {
        let mask = self.shards.len() - 1;
        let shard = shard & mask;
        let s = &mut self.shards[shard];
        let slot_idx = match s.free.pop() {
            Some(idx) => {
                s.slots[idx as usize].value = Some(value);
                idx
            }
            None => {
                let idx = u32::try_from(s.slots.len()).expect("slot index fits u32");
                s.slots.push(Slot {
                    generation: 1,
                    value: Some(value),
                });
                idx
            }
        };
        self.created += 1;
        self.shard_live[shard] += 1;
        if self.shard_live[shard] > self.shard_peak[shard] {
            self.shard_peak[shard] = self.shard_live[shard];
        }
        SessionId {
            index: (slot_idx << self.shard_bits) | shard as u32,
            generation: self.shards[shard].slots[slot_idx as usize].generation,
        }
    }

    /// The RSS shard (= dataplane lane) encoded in a handle. Purely
    /// arithmetic — valid even for stale handles, which is what lets
    /// callers route a close to the right lane without a lookup.
    pub fn shard_of(&self, id: SessionId) -> usize {
        (id.index as usize) & (self.shards.len() - 1)
    }

    fn locate(&self, id: SessionId) -> Result<(usize, usize), SessionError> {
        let shard = (id.index as usize) & (self.shards.len() - 1);
        let slot = (id.index >> self.shard_bits) as usize;
        let Some(s) = self.shards[shard].slots.get(slot) else {
            return Err(SessionError::Unknown);
        };
        if id.generation < s.generation {
            // The slot moved on: this handle's session closed.
            return Err(SessionError::Closed);
        }
        if id.generation > s.generation {
            // A generation this table never issued: forged.
            return Err(SessionError::Unknown);
        }
        if s.value.is_none() {
            // Current generation but vacant: reclaimed without reissue
            // can't produce this (reclaim bumps the generation), so the
            // handle was never issued.
            return Err(SessionError::Unknown);
        }
        Ok((shard, slot))
    }

    /// Resolves a handle without touching the lookup counters (control
    /// paths, assertions).
    ///
    /// # Errors
    ///
    /// [`SessionError`] as classified by the generation check.
    pub fn get(&self, id: SessionId) -> Result<&T, SessionError> {
        let (shard, slot) = self.locate(id)?;
        Ok(self.shards[shard].slots[slot]
            .value
            .as_ref()
            .expect("located slot is occupied"))
    }

    /// Resolves a handle on the hot path: one probe, counted, so
    /// experiments can assert the O(1) claim from the table's own
    /// bookkeeping.
    ///
    /// # Errors
    ///
    /// [`SessionError`] as classified by the generation check.
    pub fn get_mut(&mut self, id: SessionId) -> Result<&mut T, SessionError> {
        self.lookups += 1;
        self.probes += 1;
        let (shard, slot) = self.locate(id)?;
        Ok(self.shards[shard].slots[slot]
            .value
            .as_mut()
            .expect("located slot is occupied"))
    }

    /// Closes a session: the value is returned, the generation advances
    /// (invalidating every outstanding copy of the handle), and the slot
    /// joins the shard's free list for reuse.
    ///
    /// # Errors
    ///
    /// [`SessionError`] as classified by the generation check.
    pub fn remove(&mut self, id: SessionId) -> Result<T, SessionError> {
        let (shard, slot) = self.locate(id)?;
        let s = &mut self.shards[shard].slots[slot];
        let value = s.value.take().expect("located slot is occupied");
        s.generation = s.generation.wrapping_add(1);
        self.shards[shard].free.push(slot as u32);
        self.reclaimed += 1;
        self.shard_live[shard] -= 1;
        Ok(value)
    }

    /// Live sessions across all shards.
    pub fn live(&self) -> u64 {
        self.shard_live.iter().sum()
    }

    /// Peak concurrent sessions (sum of per-shard peaks — an upper bound
    /// on the true global peak, and exactly the quantity that bounds
    /// table memory).
    pub fn peak_live(&self) -> u64 {
        self.shard_peak.iter().sum()
    }

    /// Slots ever allocated (the table's memory footprint, in slots).
    /// Reclamation keeps this bounded by peak concurrency while
    /// [`SessionTable::created`] grows without bound under churn.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Sessions ever inserted.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Sessions closed and reclaimed.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Hot-path lookups performed through [`SessionTable::get_mut`].
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Slot probes performed by those lookups. The table is direct-mapped
    /// by construction, so this equals [`SessionTable::lookups`] — the
    /// invariant E21 asserts.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Live sessions per shard (index = shard = RSS lane), as a slice so
    /// the telemetry gauges read it allocation-free.
    pub fn shard_live(&self) -> &[u64] {
        &self.shard_live
    }

    /// Peak concurrent sessions per shard.
    pub fn shard_peak(&self) -> &[u64] {
        &self.shard_peak
    }

    /// Appends every live session's handle to `out` in deterministic
    /// (shard, slot) order. The caller owns (and reuses) the buffer, so
    /// steady-state iteration allocates nothing once it has warmed.
    pub fn collect_ids(&self, out: &mut Vec<SessionId>) {
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            for (slot_idx, slot) in shard.slots.iter().enumerate() {
                if slot.value.is_some() {
                    out.push(SessionId {
                        index: ((slot_idx as u32) << self.shard_bits) | shard_idx as u32,
                        generation: slot.generation,
                    });
                }
            }
        }
    }
}

/// A reusable receive buffer for the non-allocating `recv_into` family:
/// the session-layer analogue of [`cio_ctls::RecordScratch`]. Hold one
/// per consumer loop and feed it to every call — steady-state receives
/// then allocate nothing.
#[derive(Debug, Default)]
pub struct SessionScratch {
    pub(crate) buf: Vec<u8>,
}

impl SessionScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        SessionScratch::default()
    }

    /// An empty scratch with pre-reserved capacity (warm it once, never
    /// allocate again).
    pub fn with_capacity(cap: usize) -> Self {
        SessionScratch {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The received bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Received byte count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the scratch holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clears the contents, retaining capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t: SessionTable<u32> = SessionTable::new(4);
        let a = t.insert(1, 10);
        let b = t.insert(1, 20);
        let c = t.insert(3, 30);
        assert_eq!(t.shard_of(a), 1);
        assert_eq!(t.shard_of(c), 3);
        assert_eq!(*t.get(a).unwrap(), 10);
        assert_eq!(*t.get_mut(b).unwrap(), 20);
        assert_eq!(t.live(), 3);
        assert_eq!(t.shard_live(), &[0, 2, 0, 1]);
        assert_eq!(t.remove(b).unwrap(), 20);
        assert_eq!(t.live(), 2);
        assert_eq!(*t.get(a).unwrap(), 10, "neighbour survives removal");
    }

    #[test]
    fn stale_handle_is_closed_not_aliased() {
        let mut t: SessionTable<&'static str> = SessionTable::new(2);
        let old = t.insert(0, "first");
        t.remove(old).unwrap();
        // The slot is reissued to a new session...
        let new = t.insert(0, "second");
        assert_eq!(new.index(), old.index(), "slot was reclaimed");
        assert_ne!(new.generation(), old.generation());
        // ...and the stale handle can never reach it.
        assert_eq!(t.get(old), Err(SessionError::Closed));
        assert_eq!(t.get_mut(old), Err(SessionError::Closed));
        assert_eq!(t.remove(old), Err(SessionError::Closed));
        assert_eq!(*t.get(new).unwrap(), "second");
    }

    #[test]
    fn forged_handles_are_unknown() {
        let mut t: SessionTable<u8> = SessionTable::new(2);
        let real = t.insert(0, 1);
        // Out-of-range slot.
        let oob = SessionId {
            index: 99 << 1,
            generation: 1,
        };
        assert_eq!(t.get(oob), Err(SessionError::Unknown));
        // Future generation on a real slot.
        let future = SessionId {
            index: real.index,
            generation: real.generation + 7,
        };
        assert_eq!(t.get(future), Err(SessionError::Unknown));
        // Zeroed/default-shaped handle (generation 0 predates every slot).
        let zero = SessionId {
            index: real.index,
            generation: 0,
        };
        assert_eq!(t.get(zero), Err(SessionError::Closed));
    }

    #[test]
    fn slots_are_reclaimed_under_churn() {
        let mut t: SessionTable<u64> = SessionTable::new(4);
        // 4k lifecycles with at most 8 concurrent: capacity must track
        // the peak, not the total.
        let mut live = Vec::new();
        for i in 0..4096u64 {
            live.push(t.insert((i % 4) as usize, i));
            if live.len() == 8 {
                for id in live.drain(..) {
                    t.remove(id).unwrap();
                }
            }
        }
        assert_eq!(t.created(), 4096);
        assert!(t.capacity() <= 8, "capacity {} exceeds peak", t.capacity());
        assert_eq!(t.peak_live(), 8);
        assert_eq!(t.reclaimed() + t.live(), t.created());
    }

    #[test]
    fn lookups_probe_exactly_once() {
        let mut t: SessionTable<u8> = SessionTable::new(8);
        let ids: Vec<_> = (0..64).map(|i| t.insert(i % 8, i as u8)).collect();
        for &id in &ids {
            t.get_mut(id).unwrap();
        }
        assert_eq!(t.lookups(), 64);
        assert_eq!(t.probes(), t.lookups(), "direct-mapped: one probe each");
    }

    #[test]
    fn collect_ids_is_deterministic_shard_slot_order() {
        let mut t: SessionTable<u8> = SessionTable::new(2);
        let a = t.insert(1, 0);
        let b = t.insert(0, 1);
        let c = t.insert(1, 2);
        let mut ids = Vec::new();
        t.collect_ids(&mut ids);
        assert_eq!(ids, vec![b, a, c], "shard 0 first, then shard 1 slots");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panic() {
        let _ = SessionTable::<u8>::new(3);
    }
}
