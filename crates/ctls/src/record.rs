//! The cTLS record layer.
//!
//! Records are `[len: u32-le][ciphertext || tag]`. Nonces are derived from
//! strictly increasing per-direction sequence numbers; the sequence number
//! is also the AAD, so any replay, reorder, drop, or splice attempted by
//! the untrusted transport surfaces as `BadSequence`-class
//! failures — this is how the L5 design survives a compromised I/O stack
//! with only "increased observability" (§3.1).

use crate::{CtlsError, SimHooks};
use cio_crypto::aead::ChaCha20Poly1305;
use cio_crypto::poly1305::TAG_LEN;
use cio_crypto::{hkdf, CryptoError};

/// Overhead added to each record: 4-byte length + 16-byte tag.
pub const RECORD_OVERHEAD: usize = 20;

/// A reusable buffer for record seal/open output.
///
/// The record layer writes into this scratch in place — header, payload,
/// and tag assembled directly in the one backing `Vec` — so a steady-state
/// send/receive loop allocates nothing once the scratch has warmed up to
/// the largest record it has carried.
#[derive(Default)]
pub struct RecordScratch {
    buf: Vec<u8>,
}

impl RecordScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        RecordScratch::default()
    }

    /// A scratch pre-sized for `n`-byte contents.
    pub fn with_capacity(n: usize) -> Self {
        RecordScratch {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes produced by the last seal/open.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Replaces the contents with a copy of `bytes`.
    ///
    /// Lets pass-through (plaintext) paths share one scratch with sealed
    /// paths without allocating.
    pub fn copy_from(&mut self, bytes: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(bytes);
    }

    /// Length of the current contents.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the scratch currently holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl AsRef<[u8]> for RecordScratch {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Records per key generation when automatic rekeying is enabled.
///
/// The value is deterministic policy, not negotiation: both endpoints
/// derive generation `n+1` from generation `n`'s secret with
/// HKDF-Expand(secret, "ctls1 upd") after exactly this many records, so
/// the key schedule advances in lockstep with no key-update message — the
/// zero-negotiation spirit of §3.2 applied to key rotation.
pub const REKEY_INTERVAL: u64 = 1 << 16;

/// One direction's cipher state.
struct Direction {
    secret: [u8; 32],
    aead: ChaCha20Poly1305,
    seq: u64,
    rekey_interval: Option<u64>,
    generation: u64,
}

impl Direction {
    fn new(secret: [u8; 32], rekey_interval: Option<u64>) -> Self {
        Direction {
            secret,
            aead: ChaCha20Poly1305::new(secret),
            seq: 0,
            rekey_interval,
            generation: 0,
        }
    }

    fn nonce(seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Brings the key up to the generation `seq` belongs to. The
    /// generation is a pure function of the sequence number
    /// (`seq / interval`; forward secrecy within a connection: old traffic
    /// keys are unrecoverable from the current secret), so re-running this
    /// at an unchanged `seq` — a stream adapter retrying after a failed
    /// open — derives nothing.
    fn rekey_to_seq(&mut self) {
        let Some(interval) = self.rekey_interval.filter(|&iv| iv > 0) else {
            return;
        };
        while self.generation < self.seq / interval {
            let prk = hkdf::extract(b"", &self.secret);
            let mut next = [0u8; 32];
            hkdf::expand(&prk, b"ctls1 upd", &mut next).expect("32 bytes is within HKDF limits");
            self.secret = next;
            self.aead = ChaCha20Poly1305::new(next);
            self.generation += 1;
        }
    }

    /// Seals a run of records into their slots — the one seal body of the
    /// record layer, one fused AEAD pass per record. Record `k` is framed
    /// in place (`[len][ciphertext][tag]`: header at `[0..4]`, ciphertext
    /// after it, tag last) with nonce and AAD derived from `seq + k`,
    /// under the key generation that sequence number belongs to (a
    /// deterministic rekey point may fall inside the run). The slot is
    /// only ever written — plaintext never touches it and nothing is read
    /// back from it — so it may live in host-writable shared memory.
    /// `lens[k]` receives the bytes written to slot `k`.
    ///
    /// All slot capacities are validated before any state advances; on
    /// `BadLength` nothing is written and `seq` is unchanged.
    fn seal_run(
        &mut self,
        plaintexts: &[&[u8]],
        slots: &mut [&mut [u8]],
        lens: &mut [usize],
    ) -> Result<(), CtlsError> {
        let n = plaintexts.len();
        assert!(slots.len() == n && lens.len() >= n, "one slot per record");
        for (pt, slot) in plaintexts.iter().zip(slots.iter()) {
            if slot.len() < pt.len() + RECORD_OVERHEAD {
                return Err(CtlsError::Crypto(CryptoError::BadLength));
            }
        }
        for ((pt, slot), len) in plaintexts.iter().zip(slots.iter_mut()).zip(lens.iter_mut()) {
            self.rekey_to_seq();
            let (head, rest) = slot.split_at_mut(4);
            head.copy_from_slice(&((pt.len() + TAG_LEN) as u32).to_le_bytes());
            let (ct, rest) = rest.split_at_mut(pt.len());
            let aad = self.seq.to_be_bytes();
            let tag = self
                .aead
                .seal_fused_scatter(&Self::nonce(self.seq), &aad, pt, ct);
            rest[..TAG_LEN].copy_from_slice(&tag);
            *len = pt.len() + RECORD_OVERHEAD;
            self.seq += 1;
        }
        Ok(())
    }

    /// Opens a run of records into private scratches — the one open body
    /// of the record layer, one fused AEAD pass per record. Sequence
    /// numbers are assigned *positionally*: record `k` authenticates
    /// against `seq + k` (under that sequence number's key generation),
    /// and a failed record *consumes* its sequence number so the rest of
    /// the run still opens. That is the run's fail-closed contract: a bad
    /// frame or corrupted slot yields exactly one per-record error (its
    /// scratch left empty) without poisoning or reordering its
    /// neighbours. Plaintext is written only to the scratches, never back
    /// to `records`.
    fn open_run(
        &mut self,
        records: &[&[u8]],
        outs: &mut [RecordScratch],
        results: &mut [Result<(), CtlsError>],
    ) {
        // `ciphertext || tag` of a well-framed record.
        fn body(rec: &[u8]) -> Result<&[u8], CtlsError> {
            let Some((head, body)) = rec.split_first_chunk::<4>() else {
                return Err(CtlsError::Malformed);
            };
            if body.len() != u32::from_le_bytes(*head) as usize {
                return Err(CtlsError::Malformed);
            }
            if body.len() < TAG_LEN {
                return Err(CtlsError::Crypto(CryptoError::BadLength));
            }
            Ok(body)
        }
        fn seq_failure(e: CryptoError) -> CtlsError {
            match e {
                CryptoError::BadTag => CtlsError::BadSequence,
                other => CtlsError::Crypto(other),
            }
        }

        let n = records.len();
        assert!(
            outs.len() >= n && results.len() >= n,
            "one scratch and one result per record"
        );
        for ((rec, out), result) in records.iter().zip(outs.iter_mut()).zip(results.iter_mut()) {
            self.rekey_to_seq();
            out.buf.clear();
            let aad = self.seq.to_be_bytes();
            *result = body(rec).and_then(|sealed| {
                self.aead
                    .open_fused_into(&Self::nonce(self.seq), &aad, sealed, &mut out.buf)
                    .map_err(seq_failure)
            });
            self.seq += 1;
        }
    }
}

/// A full-duplex secure channel (one endpoint).
pub struct Channel {
    tx: Direction,
    rx: Direction,
    hooks: Option<SimHooks>,
}

impl Channel {
    /// Builds an endpoint from the two traffic secrets. `is_client`
    /// selects which secret drives which direction.
    pub(crate) fn new(
        client_secret: [u8; 32],
        server_secret: [u8; 32],
        is_client: bool,
        hooks: Option<SimHooks>,
    ) -> Self {
        let (tx_key, rx_key) = if is_client {
            (client_secret, server_secret)
        } else {
            (server_secret, client_secret)
        };
        Channel {
            tx: Direction::new(tx_key, Some(REKEY_INTERVAL)),
            rx: Direction::new(rx_key, Some(REKEY_INTERVAL)),
            hooks,
        }
    }

    /// Overrides the deterministic rekey interval (`None` disables
    /// rekeying). The key generation is `seq / interval`, so both
    /// endpoints must choose the same value at the same sequence number —
    /// in practice before any record flows.
    pub fn set_rekey_interval(&mut self, interval: Option<u64>) {
        self.tx.rekey_interval = interval;
        self.rx.rekey_interval = interval;
    }

    /// Current key generation of the transmit direction.
    pub fn tx_generation(&self) -> u64 {
        self.tx.generation
    }

    /// Builds an endpoint from externally provisioned traffic secrets.
    ///
    /// Used by deployment-time-keyed channels such as the LightBox-style
    /// tunnel, where the key exchange happens out of band.
    pub fn from_secrets(
        client_secret: [u8; 32],
        server_secret: [u8; 32],
        is_client: bool,
        hooks: Option<SimHooks>,
    ) -> Self {
        Channel::new(client_secret, server_secret, is_client, hooks)
    }

    /// Encrypts one application message into a record.
    ///
    /// Allocating convenience over [`Channel::seal_into`].
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability
    /// with future length limits.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, CtlsError> {
        let mut out = RecordScratch::new();
        self.seal_into(plaintext, &mut out)?;
        Ok(out.buf)
    }

    /// Encrypts one application message into a reusable scratch: the
    /// scratch is sized to the record and becomes the slot of
    /// [`Channel::seal_into_slot`]; steady state performs zero
    /// allocations.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability
    /// with future length limits.
    pub fn seal_into(
        &mut self,
        plaintext: &[u8],
        out: &mut RecordScratch,
    ) -> Result<(), CtlsError> {
        out.buf.resize(plaintext.len() + RECORD_OVERHEAD, 0);
        self.seal_into_slot(plaintext, &mut out.buf).map(drop)
    }

    /// Encrypts one application message directly into a transport slot
    /// (e.g. a reserved cio-ring slot): [`Channel::seal_batch_into_slots`]
    /// at a run of one. Returns the number of slot bytes written.
    ///
    /// # Errors
    ///
    /// [`CtlsError::Crypto`] with `BadLength` if the slot is smaller than
    /// `plaintext.len()` plus [`RECORD_OVERHEAD`] (the channel state does
    /// not advance).
    pub fn seal_into_slot(
        &mut self,
        plaintext: &[u8],
        slot: &mut [u8],
    ) -> Result<usize, CtlsError> {
        let mut len = [0];
        self.seal_batch_into_slots(&[plaintext], &mut [slot], &mut len)?;
        Ok(len[0])
    }

    /// Encrypts a run of application messages directly into transport
    /// slots (e.g. a batch of reserved cio-ring slots) — the record
    /// layer's one seal path; every other seal entry point is this at a
    /// run of one. Each record is laid out in place as `[len][ciphertext]
    /// [tag]` with its own sequence number, nonce, and tag; plaintext
    /// never touches slot memory. `lens[i]` receives the slot bytes
    /// written for record `i`. Each record is one fused AEAD pass, so the
    /// bytes do not depend on how messages are grouped into runs: a
    /// record sealed here opens with any open path. What a run amortizes
    /// is everything *around* the AEAD — one charge, one ring grant, one
    /// lock, one doorbell.
    ///
    /// # Errors
    ///
    /// [`CtlsError::Crypto`] with `BadLength` if *any* slot is smaller
    /// than its message plus [`RECORD_OVERHEAD`] — nothing is written
    /// and the channel state does not advance.
    ///
    /// # Panics
    ///
    /// If `slots` does not hold exactly one slot per message, or `lens`
    /// is shorter than the run.
    pub fn seal_batch_into_slots(
        &mut self,
        plaintexts: &[&[u8]],
        slots: &mut [&mut [u8]],
        lens: &mut [usize],
    ) -> Result<(), CtlsError> {
        if let Some(h) = &self.hooks {
            h.charge_aead(plaintexts.len(), plaintexts.iter().map(|p| p.len()).sum());
        }
        self.tx.seal_run(plaintexts, slots, lens)
    }

    /// Verifies and decrypts a run of records fetched in place from
    /// transport memory — the record layer's one open path. Sequence
    /// numbers are positional (`records[k]` must be the record sealed at
    /// `rx.seq + k`), and a record that fails *consumes* its sequence
    /// number — fail-closed per record: `results[k]` reports the error,
    /// `outs[k]` is left empty, and the rest of the run opens normally.
    /// (The single-record stream adapters, [`Channel::open_into`] and
    /// friends, instead give the number back on failure.) Each
    /// ciphertext is read exactly once and plaintext is written only to
    /// the private scratches, never back to the slots.
    ///
    /// # Panics
    ///
    /// If `outs` or `results` is shorter than the run.
    pub fn open_batch_in_slots(
        &mut self,
        records: &[&[u8]],
        outs: &mut [RecordScratch],
        results: &mut [Result<(), CtlsError>],
    ) {
        if let Some(h) = &self.hooks {
            h.charge_aead(
                records.len(),
                records.iter().map(|r| r.len().saturating_sub(4)).sum(),
            );
        }
        self.rx.open_run(records, outs, results)
    }

    /// Verifies and decrypts one record fetched in place from transport
    /// memory (e.g. a ring slot seen through `consume_in_place`); the
    /// same adapter as [`Channel::open_into`].
    ///
    /// # Errors
    ///
    /// Same as [`Channel::open`].
    pub fn open_in_slot(
        &mut self,
        record: &[u8],
        out: &mut RecordScratch,
    ) -> Result<(), CtlsError> {
        self.open_into(record, out)
    }

    /// Verifies and decrypts one record.
    ///
    /// Allocating convenience over [`Channel::open_into`].
    ///
    /// # Errors
    ///
    /// [`CtlsError::BadSequence`] for anything the transport did to the
    /// stream (replay, reorder, tamper); [`CtlsError::Malformed`] for
    /// framing damage.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, CtlsError> {
        let mut out = RecordScratch::new();
        self.open_into(record, &mut out)?;
        Ok(out.buf)
    }

    /// Verifies and decrypts one record into a reusable scratch:
    /// [`Channel::open_batch_in_slots`] at a run of one, under the
    /// *stream* contract — a failed open gives its sequence number back,
    /// so the genuine record still opens afterwards (a forgery cannot
    /// desynchronize the stream). On success the scratch holds the
    /// plaintext; on failure it is left empty. Steady state performs
    /// zero allocations.
    ///
    /// # Errors
    ///
    /// Same as [`Channel::open`].
    pub fn open_into(&mut self, record: &[u8], out: &mut RecordScratch) -> Result<(), CtlsError> {
        let seq = self.rx.seq;
        let mut result = [Ok(())];
        self.open_batch_in_slots(&[record], std::slice::from_mut(out), &mut result);
        if result[0].is_err() {
            self.rx.seq = seq;
        }
        result[0]
    }

    /// Records sent so far.
    pub fn records_sent(&self) -> u64 {
        self.tx.seq
    }

    /// Records received so far.
    pub fn records_received(&self) -> u64 {
        self.rx.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Channel, Channel) {
        let c = Channel::new([1; 32], [2; 32], true, None);
        let s = Channel::new([1; 32], [2; 32], false, None);
        (c, s)
    }

    #[test]
    fn roundtrip_both_directions() {
        let (mut c, mut s) = pair();
        let r1 = c.seal(b"to server").unwrap();
        assert_eq!(s.open(&r1).unwrap(), b"to server");
        let r2 = s.seal(b"to client").unwrap();
        assert_eq!(c.open(&r2).unwrap(), b"to client");
        assert_eq!(c.records_sent(), 1);
        assert_eq!(c.records_received(), 1);
    }

    #[test]
    fn replay_detected() {
        let (mut c, mut s) = pair();
        let r = c.seal(b"pay me once").unwrap();
        assert!(s.open(&r).is_ok());
        assert_eq!(s.open(&r), Err(CtlsError::BadSequence));
    }

    #[test]
    fn reorder_detected() {
        let (mut c, mut s) = pair();
        let r1 = c.seal(b"first").unwrap();
        let r2 = c.seal(b"second").unwrap();
        assert_eq!(s.open(&r2), Err(CtlsError::BadSequence));
        // The stream is not resynchronizable by the attacker: even the
        // "right" record now fails (seq advanced? no — failed opens do not
        // advance). r1 still opens.
        assert_eq!(s.open(&r1).unwrap(), b"first");
        assert_eq!(s.open(&r2).unwrap(), b"second");
    }

    #[test]
    fn drop_detected() {
        let (mut c, mut s) = pair();
        let _lost = c.seal(b"eaten by the host").unwrap();
        let r2 = c.seal(b"arrives").unwrap();
        assert_eq!(s.open(&r2), Err(CtlsError::BadSequence));
    }

    #[test]
    fn tamper_detected_everywhere() {
        let (mut c, mut s) = pair();
        let r = c.seal(b"integrity matters").unwrap();
        for i in 4..r.len() {
            let mut bad = r.clone();
            bad[i] ^= 0x80;
            assert!(s.open(&bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn framing_damage_detected() {
        let (mut c, mut s) = pair();
        let r = c.seal(b"msg").unwrap();
        assert_eq!(s.open(&r[..3]), Err(CtlsError::Malformed));
        let mut long = r.clone();
        long.push(0);
        assert_eq!(s.open(&long), Err(CtlsError::Malformed));
        let mut bad_len = r.clone();
        bad_len[0] ^= 1;
        assert_eq!(s.open(&bad_len), Err(CtlsError::Malformed));
    }

    #[test]
    fn empty_message_roundtrip() {
        let (mut c, mut s) = pair();
        let r = c.seal(b"").unwrap();
        assert_eq!(r.len(), RECORD_OVERHEAD);
        assert_eq!(s.open(&r).unwrap(), b"");
    }

    #[test]
    fn directions_are_independent() {
        let (mut c, mut s) = pair();
        // Client sends 3, server sends 1 — sequence spaces do not collide.
        for i in 0..3u8 {
            let r = c.seal(&[i]).unwrap();
            assert_eq!(s.open(&r).unwrap(), [i]);
        }
        let r = s.seal(b"reply").unwrap();
        assert_eq!(c.open(&r).unwrap(), b"reply");
    }

    #[test]
    fn rekeying_advances_in_lockstep() {
        let mut c = Channel::new([1; 32], [2; 32], true, None);
        let mut s = Channel::new([1; 32], [2; 32], false, None);
        c.set_rekey_interval(Some(4));
        s.set_rekey_interval(Some(4));
        for i in 0..20u8 {
            let r = c.seal(&[i]).unwrap();
            assert_eq!(s.open(&r).unwrap(), [i], "record {i}");
        }
        // 20 records at interval 4 -> generation 4 (rekey before 4,8,12,16).
        assert_eq!(c.tx_generation(), 4);
    }

    #[test]
    fn mismatched_rekey_interval_fails_closed() {
        let mut c = Channel::new([1; 32], [2; 32], true, None);
        let mut s = Channel::new([1; 32], [2; 32], false, None);
        c.set_rekey_interval(Some(2));
        s.set_rekey_interval(None);
        let mut failed = false;
        for i in 0..4u8 {
            let r = c.seal(&[i]).unwrap();
            if s.open(&r).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "generation skew must be detected, never decrypted");
    }

    #[test]
    fn old_generation_records_do_not_replay_across_rekey() {
        let mut c = Channel::new([1; 32], [2; 32], true, None);
        let mut s = Channel::new([1; 32], [2; 32], false, None);
        c.set_rekey_interval(Some(2));
        s.set_rekey_interval(Some(2));
        let old = c.seal(b"gen0 record").unwrap();
        s.open(&old).unwrap();
        // Advance both sides past the rekey point.
        for _ in 0..3 {
            let r = c.seal(b"x").unwrap();
            s.open(&r).unwrap();
        }
        // The generation-0 record cannot be replayed into generation 1+.
        assert!(s.open(&old).is_err());
    }

    #[test]
    fn failed_open_at_rekey_boundary_then_genuine_opens() {
        // A forgery arriving exactly at a rekey point must not advance
        // the key schedule twice: the failed open gives its sequence
        // number back and the retry derives nothing.
        type Open = fn(&mut Channel, &[u8], &mut RecordScratch) -> Result<(), CtlsError>;
        for open in [Channel::open_into as Open, Channel::open_in_slot as Open] {
            let (mut c, mut s) = pair();
            c.set_rekey_interval(Some(4));
            s.set_rekey_interval(Some(4));
            let mut plain = RecordScratch::new();
            for i in 0..4u8 {
                open(&mut s, &c.seal(&[i]).unwrap(), &mut plain).unwrap();
            }
            let genuine = c.seal(b"first of generation 1").unwrap();
            let mut forged = genuine.clone();
            *forged.last_mut().unwrap() ^= 1;
            assert_eq!(
                open(&mut s, &forged, &mut plain),
                Err(CtlsError::BadSequence)
            );
            assert_eq!(s.records_received(), 4);
            open(&mut s, &genuine, &mut plain).unwrap();
            assert_eq!(plain.as_slice(), b"first of generation 1");
        }
    }

    #[test]
    fn scratch_open_failure_leaves_scratch_empty() {
        let (mut c, mut s) = pair();
        let mut rec = RecordScratch::new();
        c.seal_into(b"target", &mut rec).unwrap();
        let mut tampered = rec.as_slice().to_vec();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x40;
        let mut plain = RecordScratch::new();
        assert_eq!(
            s.open_into(&tampered, &mut plain),
            Err(CtlsError::BadSequence)
        );
        assert!(plain.is_empty());
        // The channel did not advance: the genuine record still opens.
        s.open_into(rec.as_slice(), &mut plain).unwrap();
        assert_eq!(plain.as_slice(), b"target");
    }

    #[test]
    fn seal_into_slot_too_small_does_not_advance() {
        let (mut c, mut s) = pair();
        let mut slot = vec![0u8; 10];
        assert!(matches!(
            c.seal_into_slot(b"does not fit here", &mut slot),
            Err(CtlsError::Crypto(_))
        ));
        // Sequence did not advance: the staged fallback still lines up.
        let r = c.seal(b"does not fit here").unwrap();
        assert_eq!(s.open(&r).unwrap(), b"does not fit here");
    }

    #[test]
    fn batch_open_partial_poison_fails_closed_per_record() {
        // Host corrupts one slot mid-batch: that record reports
        // BadSequence with an empty scratch; every other record opens
        // with the right bytes in the right order, and the stream
        // continues past the batch (positional sequence consumption).
        let (mut c, mut s) = pair();
        let msgs: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 200 + i * 31]).collect();
        let mut records: Vec<Vec<u8>> = msgs.iter().map(|m| c.seal(m).unwrap()).collect();
        records[3][10] ^= 0x80; // corrupt ciphertext of record 3
        let recs: Vec<&[u8]> = records.iter().map(|r| &r[..]).collect();
        let mut outs: Vec<RecordScratch> = (0..6).map(|_| RecordScratch::new()).collect();
        let mut results = [Ok(()); 6];
        s.open_batch_in_slots(&recs, &mut outs, &mut results);
        for i in 0..6 {
            if i == 3 {
                assert_eq!(results[i], Err(CtlsError::BadSequence));
                assert!(outs[i].is_empty(), "poisoned record leaks no plaintext");
            } else {
                assert_eq!(results[i], Ok(()), "record {i}");
                assert_eq!(outs[i].as_slice(), &msgs[i][..], "record {i}");
            }
        }
        // The failed record consumed its sequence number: the very next
        // serial record still lines up.
        assert_eq!(s.records_received(), 6);
        let next = c.seal(b"after the batch").unwrap();
        assert_eq!(s.open(&next).unwrap(), b"after the batch");
    }

    #[test]
    fn batch_open_malformed_frame_is_isolated() {
        let (mut c, mut s) = pair();
        let msgs: Vec<Vec<u8>> = (0..3).map(|i| vec![0x30 + i as u8; 64]).collect();
        let records: Vec<Vec<u8>> = msgs.iter().map(|m| c.seal(m).unwrap()).collect();
        let truncated = &records[1][..3];
        let recs: Vec<&[u8]> = vec![&records[0], truncated, &records[2]];
        let mut outs: Vec<RecordScratch> = (0..3).map(|_| RecordScratch::new()).collect();
        let mut results = [Ok(()); 3];
        s.open_batch_in_slots(&recs, &mut outs, &mut results);
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[1], Err(CtlsError::Malformed));
        assert!(outs[1].is_empty());
        assert_eq!(results[2], Ok(()));
        assert_eq!(outs[2].as_slice(), &msgs[2][..]);
    }

    #[test]
    fn seal_batch_too_small_slot_does_not_advance() {
        let (mut c, mut s) = pair();
        let msgs: [&[u8]; 2] = [b"fits", b"does not fit in ten bytes"];
        let mut a = [0u8; 64];
        let mut b = [0u8; 10];
        let mut slots: Vec<&mut [u8]> = vec![&mut a[..], &mut b[..]];
        let mut lens = [0usize; 2];
        assert!(matches!(
            c.seal_batch_into_slots(&msgs, &mut slots, &mut lens),
            Err(CtlsError::Crypto(_))
        ));
        // Nothing advanced: the serial fallback still lines up.
        assert_eq!(c.records_sent(), 0);
        let r = c.seal(msgs[1]).unwrap();
        assert_eq!(s.open(&r).unwrap(), msgs[1]);
    }

    #[test]
    fn cross_direction_splice_detected() {
        // A record the client sent cannot be reflected back to the client.
        let (mut c, s) = pair();
        let r = c.seal(b"reflect me").unwrap();
        assert!(c.open(&r).is_err());
        let _ = s;
    }
}
