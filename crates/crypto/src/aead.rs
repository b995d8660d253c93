//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8), one record per call.
//!
//! Two families produce bit-identical bytes:
//!
//! * the two-pass reference — [`ChaCha20Poly1305::seal`] / `open` /
//!   `seal_in_place` / `open_in_place` over [`chacha20::block`] and
//!   [`chacha20::xor_stream`]: encrypt, then MAC, written to be read
//!   against the RFC. It is the oracle the differential tests compare
//!   against, not a target;
//! * the fused one-pass shapes the dataplane runs, which differ by
//!   *memory contract*, not by speed: **in place** (`seal_fused_in_place`
//!   / `open_fused_in_place`: private buffer, read and written),
//!   **scatter** (`seal_fused_scatter`: the output is written, never
//!   read) and **gather** (`open_fused_gather`: the ciphertext is fetched
//!   once, never written). The last two are what may point at
//!   host-observable shared memory.
//!
//! There is no multi-record entry point: a run of records is a loop over
//! one of the fused shapes (see `chacha20`'s module docs for why).

use crate::chacha20::{self, ChaCha20, BLOCK_LEN, KEY_LEN, LONG_BLOCKS, NONCE_LEN, WIDE_BLOCKS};
use crate::ct::ct_eq;
use crate::poly1305::{LongMac, Poly1305, TAG_LEN};
use crate::CryptoError;

/// Bytes encrypted/absorbed per iteration of the fused loops: one
/// sixteen-block ChaCha20 run, which is also eight Poly1305 lane steps.
/// A multiple of 128, so neither kernel has to stage bytes until the
/// final partial chunk.
const FUSE_CHUNK: usize = LONG_BLOCKS * BLOCK_LEN;

/// The small-record path's keystream: one wide run.
const SMALL_RUN: usize = WIDE_BLOCKS * BLOCK_LEN;

/// Size-threshold for the small-record path. At or below this length
/// the Poly1305 key block (counter 0) and the whole payload keystream
/// (counters 1..) fit in one wide run, so the fused seal/open computes
/// them together instead of paying a separate key block plus per-block
/// scalar keystream — the shape that made small records slower than the
/// two-pass reference.
const SMALL_CUTOFF: usize = SMALL_RUN - BLOCK_LEN;

/// The widest kernel tier the fused AEAD runs on this CPU: `avx512`
/// (sixteen-block ChaCha20 and eight-lane Poly1305 from 512 B), `avx2`,
/// `ssse3`, `sse2` or `portable`. Narrower tiers still serve the lengths
/// below each kernel's run.
pub fn kernel_tier() -> &'static str {
    if crate::avx512() {
        "avx512"
    } else if chacha20::wide_is_accelerated() {
        "avx2"
    } else if chacha20::quad_is_accelerated() {
        "ssse3"
    } else if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
}

/// An RFC 8439 ChaCha20-Poly1305 AEAD key.
///
/// # Examples
///
/// ```
/// use cio_crypto::ChaCha20Poly1305;
/// let aead = ChaCha20Poly1305::new([0x11; 32]);
/// let nonce = [0u8; 12];
/// let sealed = aead.seal(&nonce, b"header", b"secret payload");
/// let opened = aead.open(&nonce, b"header", &sealed).unwrap();
/// assert_eq!(opened, b"secret payload");
/// assert!(aead.open(&nonce, b"tampered", &sealed).is_err());
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

fn poly_key(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    let block = chacha20::block(key, 0, nonce);
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block[..32]);
    pk
}

fn compute_tag(poly_key: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(poly_key);
    mac.update(aad);
    mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD instance from a 256-bit key.
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 { key }
    }

    /// Encrypts `plaintext`, authenticating `aad`, and returns
    /// `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        chacha20::xor_stream(&self.key, 1, nonce, &mut out);
        let tag = compute_tag(&poly_key(&self.key, nonce), aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Encrypts `buf` in place and returns the detached tag.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        chacha20::xor_stream(&self.key, 1, nonce, buf);
        compute_tag(&poly_key(&self.key, nonce), aad, buf)
    }

    /// Verifies and decrypts `sealed` (= ciphertext || tag).
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadLength`] if `sealed` is shorter than a tag;
    /// [`CryptoError::BadTag`] if authentication fails — no plaintext is
    /// released in that case.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::BadLength);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = compute_tag(&poly_key(&self.key, nonce), aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        let mut out = ciphertext.to_vec();
        chacha20::xor_stream(&self.key, 1, nonce, &mut out);
        Ok(out)
    }

    /// Verifies the detached `tag` and decrypts `buf` in place.
    ///
    /// On failure the buffer is left as ciphertext and an error returned.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), CryptoError> {
        let expected = compute_tag(&poly_key(&self.key, nonce), aad, buf);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        chacha20::xor_stream(&self.key, 1, nonce, buf);
        Ok(())
    }

    /// Starts a fused one-pass operation: a cached-schedule ChaCha20
    /// session plus a Poly1305 MAC keyed from the counter-0 block of
    /// that same session, with the AAD already absorbed and padded.
    fn fused_start(&self, nonce: &[u8; NONCE_LEN], aad: &[u8]) -> (ChaCha20, Poly1305) {
        let session = ChaCha20::new(&self.key, nonce);
        let block0 = session.block_words(0);
        let mut pk = [0u8; 32];
        for (chunk, w) in pk.chunks_exact_mut(4).zip(&block0[..8]) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        let mut mac = Poly1305::new(&pk);
        mac.update(aad);
        mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
        (session, mac)
    }

    /// Pads the ciphertext, absorbs the RFC 8439 length trailer, and
    /// produces the tag.
    fn fused_finish(mut mac: Poly1305, aad_len: usize, ct_len: usize) -> [u8; TAG_LEN] {
        mac.update(&[0u8; 16][..(16 - ct_len % 16) % 16]);
        mac.update(&(aad_len as u64).to_le_bytes());
        mac.update(&(ct_len as u64).to_le_bytes());
        mac.finalize()
    }

    /// Generates the keystream a small record needs — the Poly1305 key
    /// block plus every payload block — in one shot. When the wide
    /// kernel is hardware-backed, a full run is cheaper than counting
    /// blocks; otherwise only the blocks actually needed are computed.
    fn small_keystream(session: &ChaCha20, ct_len: usize, ks: &mut [u8; SMALL_RUN]) {
        debug_assert!(ct_len <= SMALL_CUTOFF);
        let blocks = 1 + ct_len.div_ceil(BLOCK_LEN);
        // One hardware wide run beats counted generation from roughly
        // four blocks up; two- and three-block requests round up to one
        // four-block SSSE3 run; hosts without SIMD kernels always count.
        let take = if chacha20::wide_is_accelerated() && blocks >= 4 {
            SMALL_RUN
        } else if blocks >= 2 && chacha20::quad_is_accelerated() {
            BLOCK_LEN * blocks.max(4)
        } else {
            BLOCK_LEN * blocks
        };
        session.xor_at(0, &mut ks[..take]);
    }

    /// Builds the MAC for the small path from an already-generated
    /// keystream (key block = the first 32 bytes), AAD absorbed and
    /// padded exactly as [`fused_start`] does.
    fn small_mac(ks: &[u8; SMALL_RUN], aad: &[u8]) -> Poly1305 {
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&ks[..32]);
        let mut mac = Poly1305::new(&pk);
        mac.update(aad);
        mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
        mac
    }

    /// One-pass in-place seal: each 1 KiB run is encrypted by the
    /// keystream path and immediately absorbed by the MAC while still
    /// hot in cache. Records of at most 448 B (`SMALL_CUTOFF`) take
    /// a single-run small path instead. Output is bit-identical to
    /// [`ChaCha20Poly1305::seal_in_place`].
    pub fn seal_fused_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        if buf.len() <= SMALL_CUTOFF {
            let session = ChaCha20::new(&self.key, nonce);
            let mut ks = [0u8; SMALL_RUN];
            Self::small_keystream(&session, buf.len(), &mut ks);
            let mut mac = Self::small_mac(&ks, aad);
            for (b, k) in buf.iter_mut().zip(&ks[BLOCK_LEN..]) {
                *b ^= k;
            }
            mac.update(buf);
            return Self::fused_finish(mac, aad.len(), buf.len());
        }
        let (session, mut poly) = self.fused_start(nonce, aad);
        let mut mac = LongMac::new(&mut poly, buf.len());
        let mut counter = 1u32;
        let aad_len = aad.len();
        let ct_len = buf.len();
        for chunk in buf.chunks_mut(FUSE_CHUNK) {
            session.xor_at(counter, chunk);
            counter = counter.wrapping_add(chunk.len().div_ceil(BLOCK_LEN) as u32);
            mac.update(chunk);
        }
        Self::fused_finish(poly, aad_len, ct_len)
    }

    /// One-pass scatter seal: reads `plaintext`, writes ciphertext of the
    /// same length into `ct`, and returns the detached tag.
    ///
    /// `ct` is **write-only**: each ciphertext chunk is built in a private
    /// scratch, absorbed by the MAC *from that scratch*, and only then
    /// copied out, so neither plaintext nor anything read back ever
    /// passes through `ct`. That makes `ct` safe to point at
    /// adversary-writable shared memory — the in-slot dataplane seals
    /// records and blocks directly into ring slots with this — because
    /// the tag authenticates the bytes this function produced, not
    /// whatever the slot holds at a second access (a host flipping a bit
    /// between a write and a read-back would otherwise earn a valid tag
    /// over its own bytes). The mirror of [`open_fused_gather`]'s single
    /// fetch. Output is bit-identical to
    /// [`ChaCha20Poly1305::seal_in_place`].
    ///
    /// # Panics
    ///
    /// If `ct.len() != plaintext.len()`.
    ///
    /// [`open_fused_gather`]: ChaCha20Poly1305::open_fused_gather
    pub fn seal_fused_scatter(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        ct: &mut [u8],
    ) -> [u8; TAG_LEN] {
        assert_eq!(plaintext.len(), ct.len(), "scatter seal length mismatch");
        if plaintext.len() <= SMALL_CUTOFF {
            let session = ChaCha20::new(&self.key, nonce);
            let mut ks = [0u8; SMALL_RUN];
            Self::small_keystream(&session, plaintext.len(), &mut ks);
            let mut mac = Self::small_mac(&ks, aad);
            // The payload keystream becomes the ciphertext where it lies.
            let built = &mut ks[BLOCK_LEN..][..plaintext.len()];
            for (k, p) in built.iter_mut().zip(plaintext) {
                *k ^= p;
            }
            mac.update(built);
            ct.copy_from_slice(built);
            return Self::fused_finish(mac, aad.len(), ct.len());
        }
        let (session, mut poly) = self.fused_start(nonce, aad);
        let mut mac = LongMac::new(&mut poly, ct.len());
        let mut counter = 1u32;
        let mut tmp = [0u8; FUSE_CHUNK];
        for (pt_chunk, ct_chunk) in plaintext.chunks(FUSE_CHUNK).zip(ct.chunks_mut(FUSE_CHUNK)) {
            let built = &mut tmp[..pt_chunk.len()];
            built.copy_from_slice(pt_chunk);
            session.xor_at(counter, built);
            counter = counter.wrapping_add(built.len().div_ceil(BLOCK_LEN) as u32);
            mac.update(built);
            ct_chunk.copy_from_slice(built);
        }
        Self::fused_finish(poly, aad.len(), ct.len())
    }

    /// One-pass in-place open of `buf` (ciphertext) against the detached
    /// `tag`: each run is absorbed by the MAC and then decrypted, so the
    /// data is read once. Output is bit-identical to
    /// [`ChaCha20Poly1305::open_in_place`].
    ///
    /// On tag mismatch the buffer is restored to ciphertext (ChaCha20 is
    /// an involution, so re-encrypting undoes the speculative decrypt)
    /// and no plaintext is released.
    pub fn open_fused_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), CryptoError> {
        if buf.len() <= SMALL_CUTOFF {
            let session = ChaCha20::new(&self.key, nonce);
            let mut ks = [0u8; SMALL_RUN];
            Self::small_keystream(&session, buf.len(), &mut ks);
            let mut mac = Self::small_mac(&ks, aad);
            mac.update(buf);
            for (b, k) in buf.iter_mut().zip(&ks[BLOCK_LEN..]) {
                *b ^= k;
            }
            let expected = Self::fused_finish(mac, aad.len(), buf.len());
            if !ct_eq(&expected, tag) {
                // XOR with the same keystream restores the ciphertext.
                for (b, k) in buf.iter_mut().zip(&ks[BLOCK_LEN..]) {
                    *b ^= k;
                }
                return Err(CryptoError::BadTag);
            }
            return Ok(());
        }
        let (session, mut poly) = self.fused_start(nonce, aad);
        let mut mac = LongMac::new(&mut poly, buf.len());
        let mut counter = 1u32;
        let aad_len = aad.len();
        let ct_len = buf.len();
        for chunk in buf.chunks_mut(FUSE_CHUNK) {
            mac.update(chunk);
            session.xor_at(counter, chunk);
            counter = counter.wrapping_add(chunk.len().div_ceil(BLOCK_LEN) as u32);
        }
        let expected = Self::fused_finish(poly, aad_len, ct_len);
        if !ct_eq(&expected, tag) {
            session.xor_at(1, buf);
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// One-pass gather open: reads `ct` (which may live in
    /// adversary-observable shared memory), authenticates it, and writes
    /// the plaintext into the private `out` buffer. The shared source is
    /// never written, and each chunk is fetched into a private scratch
    /// exactly once before being MACed and decrypted — the bytes that
    /// authenticate are the bytes that decrypt, so a host racing the open
    /// cannot split them. The mirror of [`seal_fused_scatter`]: the
    /// in-slot block path opens ciphertext straight out of ring slots
    /// with this.
    ///
    /// On tag mismatch `out` is zeroed and no plaintext is released.
    /// Plaintext output is bit-identical to [`open_in_place`].
    ///
    /// # Panics
    ///
    /// If `out.len() != ct.len()`.
    ///
    /// [`seal_fused_scatter`]: ChaCha20Poly1305::seal_fused_scatter
    /// [`open_in_place`]: ChaCha20Poly1305::open_in_place
    pub fn open_fused_gather(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ct: &[u8],
        out: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), CryptoError> {
        assert_eq!(ct.len(), out.len(), "gather open length mismatch");
        if ct.len() <= SMALL_CUTOFF {
            let session = ChaCha20::new(&self.key, nonce);
            let mut ks = [0u8; SMALL_RUN];
            Self::small_keystream(&session, ct.len(), &mut ks);
            let mut mac = Self::small_mac(&ks, aad);
            let mut tmp = [0u8; SMALL_CUTOFF];
            let fetched = &mut tmp[..ct.len()];
            fetched.copy_from_slice(ct);
            mac.update(fetched);
            let expected = Self::fused_finish(mac, aad.len(), ct.len());
            if !ct_eq(&expected, tag) {
                out.fill(0);
                return Err(CryptoError::BadTag);
            }
            for ((o, c), k) in out.iter_mut().zip(fetched.iter()).zip(&ks[BLOCK_LEN..]) {
                *o = c ^ k;
            }
            return Ok(());
        }
        let (session, mut poly) = self.fused_start(nonce, aad);
        let mut mac = LongMac::new(&mut poly, ct.len());
        let mut counter = 1u32;
        let mut tmp = [0u8; FUSE_CHUNK];
        for (ct_chunk, out_chunk) in ct.chunks(FUSE_CHUNK).zip(out.chunks_mut(FUSE_CHUNK)) {
            let n = ct_chunk.len();
            tmp[..n].copy_from_slice(ct_chunk);
            mac.update(&tmp[..n]);
            session.xor_at(counter, &mut tmp[..n]);
            counter = counter.wrapping_add(n.div_ceil(BLOCK_LEN) as u32);
            out_chunk.copy_from_slice(&tmp[..n]);
        }
        let expected = Self::fused_finish(poly, aad.len(), ct.len());
        if !ct_eq(&expected, tag) {
            out.fill(0);
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// Fused counterpart of [`ChaCha20Poly1305::seal`]: returns
    /// `ciphertext || tag`, bit-identical to the two-pass API.
    pub fn seal_fused(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_fused_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Fused counterpart of [`ChaCha20Poly1305::open`].
    pub fn open_fused(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        self.open_fused_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }

    /// Opens `sealed` (= ciphertext || tag) into a caller-provided
    /// buffer: `out` is cleared, then filled with the plaintext. The
    /// only steady-state cost is one pass over the data — no allocation
    /// once `out` has warmed up to the message size.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadLength`] if `sealed` is shorter than a tag;
    /// [`CryptoError::BadTag`] on authentication failure, in which case
    /// `out` is left empty.
    pub fn open_fused_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::BadLength);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let tag: &[u8; TAG_LEN] = tag.try_into().expect("tag length");
        out.clear();
        out.extend_from_slice(ciphertext);
        if let Err(e) = self.open_fused_in_place(nonce, aad, out, tag) {
            out.clear();
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_seal() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let sealed = ChaCha20Poly1305::new(key).seal(&nonce, &aad, plaintext);
        let expected_ct = unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        let expected_tag = unhex("1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(&sealed[..plaintext.len()], &expected_ct[..]);
        assert_eq!(&sealed[plaintext.len()..], &expected_tag[..]);
    }

    #[test]
    fn rfc8439_open() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let aead = ChaCha20Poly1305::new(key);
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let sealed = aead.seal(&nonce, &aad, plaintext);
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn tamper_detection() {
        let aead = ChaCha20Poly1305::new([9u8; 32]);
        let nonce = [1u8; 12];
        let sealed = aead.seal(&nonce, b"aad", b"payload");

        // Flip each byte of the sealed message in turn: all must fail.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                aead.open(&nonce, b"aad", &bad),
                Err(CryptoError::BadTag),
                "byte {i}"
            );
        }
        // Wrong AAD fails.
        assert!(aead.open(&nonce, b"dad", &sealed).is_err());
        // Wrong nonce fails.
        assert!(aead.open(&[2u8; 12], b"aad", &sealed).is_err());
        // Truncated below the tag length reports BadLength.
        assert_eq!(
            aead.open(&nonce, b"aad", &sealed[..TAG_LEN - 1]),
            Err(CryptoError::BadLength)
        );
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let aead = ChaCha20Poly1305::new([3u8; 32]);
        let nonce = [0u8; 12];
        let sealed = aead.seal(&nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(aead.open(&nonce, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn in_place_matches_vec_api() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let nonce = [7u8; 12];
        let msg = b"in-place round trip across block sizes".to_vec();

        let sealed = aead.seal(&nonce, b"hdr", &msg);
        let mut buf = msg.clone();
        let tag = aead.seal_in_place(&nonce, b"hdr", &mut buf);
        assert_eq!(&sealed[..msg.len()], &buf[..]);
        assert_eq!(&sealed[msg.len()..], &tag[..]);

        aead.open_in_place(&nonce, b"hdr", &mut buf, &tag).unwrap();
        assert_eq!(buf, msg);

        // Failed open leaves ciphertext untouched.
        let mut buf2 = sealed[..msg.len()].to_vec();
        let bad_tag = [0u8; TAG_LEN];
        assert!(aead
            .open_in_place(&nonce, b"hdr", &mut buf2, &bad_tag)
            .is_err());
        assert_eq!(&buf2[..], &sealed[..msg.len()]);
    }

    // The fused path (small-record single-run path included) must be
    // bit-identical to the two-pass reference at every size around the
    // dispatch thresholds, and a failed fused open must restore the
    // ciphertext on both sides of the cutoff.
    #[test]
    fn fused_matches_two_pass_across_cutoff() {
        let aead = ChaCha20Poly1305::new([0x21u8; 32]);
        let nonce = [6u8; 12];
        let aad = b"hdr";
        for len in [
            0usize,
            1,
            15,
            63,
            64,
            65,
            255,
            256,
            SMALL_CUTOFF - 1,
            SMALL_CUTOFF,
            SMALL_CUTOFF + 1,
            FUSE_CHUNK,
            FUSE_CHUNK + 1,
            1024,
            4096,
        ] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();

            let mut reference = msg.clone();
            let ref_tag = aead.seal_in_place(&nonce, aad, &mut reference);
            let mut fused = msg.clone();
            let fused_tag = aead.seal_fused_in_place(&nonce, aad, &mut fused);
            assert_eq!(fused, reference, "ciphertext len {len}");
            assert_eq!(fused_tag, ref_tag, "tag len {len}");

            // Scatter seal: same bytes, and the output buffer (poisoned
            // beforehand) never holds plaintext at any observable point.
            let mut scattered = vec![0xEEu8; len];
            let scatter_tag = aead.seal_fused_scatter(&nonce, aad, &msg, &mut scattered);
            assert_eq!(scattered, reference, "scatter ciphertext len {len}");
            assert_eq!(scatter_tag, ref_tag, "scatter tag len {len}");

            aead.open_fused_in_place(&nonce, aad, &mut fused, &fused_tag)
                .expect("round trip");
            assert_eq!(fused, msg, "plaintext len {len}");

            // Failed open leaves the ciphertext intact.
            let mut tampered = reference.clone();
            let bad_tag = [0xFFu8; TAG_LEN];
            assert_eq!(
                aead.open_fused_in_place(&nonce, aad, &mut tampered, &bad_tag),
                Err(CryptoError::BadTag),
                "len {len}"
            );
            assert_eq!(tampered, reference, "rollback len {len}");

            // Gather open: reads shared ciphertext, writes private
            // plaintext, never touches the source.
            let ct_shared = reference.clone();
            let mut gathered = vec![0xEEu8; len];
            aead.open_fused_gather(&nonce, aad, &ct_shared, &mut gathered, &ref_tag)
                .expect("gather round trip");
            assert_eq!(gathered, msg, "gather plaintext len {len}");
            assert_eq!(ct_shared, reference, "gather source untouched len {len}");

            // Failed gather open releases nothing: the output is zeroed.
            let mut sunk = vec![0xEEu8; len];
            assert_eq!(
                aead.open_fused_gather(&nonce, aad, &ct_shared, &mut sunk, &bad_tag),
                Err(CryptoError::BadTag),
                "gather len {len}"
            );
            assert!(sunk.iter().all(|&b| b == 0), "gather zeroed len {len}");
        }
    }

    #[test]
    fn unique_nonces_unique_ciphertexts() {
        let aead = ChaCha20Poly1305::new([8u8; 32]);
        let a = aead.seal(&[0u8; 12], b"", b"same message");
        let b = aead.seal(&[1u8; 12], b"", b"same message");
        assert_ne!(a, b);
    }
}
