//! ChaCha20 stream cipher (RFC 8439).
//!
//! Two paths produce bit-identical keystreams:
//!
//! * The free functions [`block`] and [`xor_stream`] are the RFC
//!   reference: one scalar block at a time, XORed byte by byte. They are
//!   the oracle the differential tests compare against (and the
//!   "two-pass" dataplane the benchmarks compare against), not a target.
//! * The [`ChaCha20`] session type is the dataplane: it precomputes the
//!   key/nonce schedule once per message, generates [`WIDE_BLOCKS`]
//!   blocks of *one* stream at a time on `[u32; WIDE_BLOCKS]` lanes, and
//!   XORs in `u64` lanes instead of bytes. On `x86_64` the session
//!   dispatches by size to the kernels in `simd`, each runtime-detected
//!   with the next tier down as its fallback: every full 1 KiB run to a
//!   sixteen-block AVX-512F kernel, full [`WIDE_BLOCKS`]-block runs to an
//!   AVX2 kernel (else the lane code), a 256..512-byte tail to a
//!   four-block SSSE3 kernel, and the rest — partial tails, the Poly1305
//!   key block — to a single-block SSE2 kernel, which is part of the
//!   x86_64 baseline and needs no detection.
//!
//! Every kernel serves one stream: the lanes are consecutive blocks of
//! one record, never blocks of several records. Packing lanes
//! across records wins only on runs of four or more records of at most
//! 64 B, is level at 256 B and loses from 1 KiB up (measured:
//! EXPERIMENTS.md E19), and no workload has the first shape.

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// ChaCha20 block size in bytes.
pub const BLOCK_LEN: usize = 64;
/// Blocks generated per iteration of the wide keystream path. Eight
/// 32-bit lanes fill one AVX2 register per state word; narrower shapes
/// leave half of each vector register idle.
pub const WIDE_BLOCKS: usize = 8;
/// Blocks generated by the mid-tier x86_64 kernel: four 32-bit lanes
/// fill one SSE2 register per state word.
#[cfg(target_arch = "x86_64")]
pub(crate) const QUAD_BLOCKS: usize = 4;
/// Blocks generated by the top x86_64 kernel: sixteen 32-bit lanes fill
/// one AVX-512 register per state word, so a run is 1 KiB.
pub(crate) const LONG_BLOCKS: usize = 16;

#[cfg(target_arch = "x86_64")]
use crate::simd;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block: the portable scalar
/// kernel ([`ChaCha20`]'s oracle) at one block, schedule rebuilt per call.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    le_bytes(ChaCha20::new(key, nonce).block_words_scalar(counter))
}

/// Serializes sixteen keystream words little-endian.
fn le_bytes(words: [u32; 16]) -> [u8; BLOCK_LEN] {
    let mut out = [0u8; BLOCK_LEN];
    for (chunk, w) in out.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place (XOR with the keystream starting at
/// block `initial_counter`).
///
/// ChaCha20 is its own inverse, so the same call decrypts.
///
/// # Examples
///
/// ```
/// use cio_crypto::chacha20::xor_stream;
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut data = *b"attack at dawn";
/// xor_stream(&key, 1, &nonce, &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// xor_stream(&key, 1, &nonce, &mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let ks = block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
            *byte ^= k;
        }
    }
}

/// A ChaCha20 session with the key/nonce schedule precomputed.
///
/// Building the 16-word initial state costs eleven word loads per block in
/// the one-shot [`block`] API; a session pays that once per message. Its
/// keystream methods produce exactly the bytes [`block`] would.
///
/// # Examples
///
/// ```
/// use cio_crypto::chacha20::{block, ChaCha20};
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let session = ChaCha20::new(&key, &nonce);
/// assert_eq!(session.keystream_block(3), block(&key, 3, &nonce));
/// ```
#[derive(Clone)]
pub struct ChaCha20 {
    /// Initial state with the counter word (index 12) left at zero.
    base: [u32; 16],
}

/// One 32-bit word across the blocks of the wide path.
type Lanes = [u32; WIDE_BLOCKS];

#[inline(always)]
fn ladd(a: Lanes, b: Lanes) -> Lanes {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o = o.wrapping_add(b);
    }
    out
}

#[inline(always)]
fn lxor(a: Lanes, b: Lanes) -> Lanes {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o ^= b;
    }
    out
}

#[inline(always)]
fn lrot(a: Lanes, n: u32) -> Lanes {
    let mut out = a;
    for o in &mut out {
        *o = o.rotate_left(n);
    }
    out
}

#[inline(always)]
fn wide_quarter_round(s: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = ladd(s[a], s[b]);
    s[d] = lrot(lxor(s[d], s[a]), 16);
    s[c] = ladd(s[c], s[d]);
    s[b] = lrot(lxor(s[b], s[c]), 12);
    s[a] = ladd(s[a], s[b]);
    s[d] = lrot(lxor(s[d], s[a]), 8);
    s[c] = ladd(s[c], s[d]);
    s[b] = lrot(lxor(s[b], s[c]), 7);
}

impl ChaCha20 {
    /// Builds the session state from key and nonce.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut base = [0u32; 16];
        base[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            base[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 0..3 {
            base[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        ChaCha20 { base }
    }

    /// Computes the sixteen post-addition keystream words for `counter`.
    #[inline]
    pub fn block_words(&self, counter: u32) -> [u32; 16] {
        #[cfg(target_arch = "x86_64")]
        {
            simd::block_words_sse2(&self.base, counter)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.block_words_scalar(counter)
        }
    }

    /// Portable single-block kernel: the RFC 8439 block function, the
    /// body behind [`block`] and the oracle the SIMD kernels are tested
    /// against.
    fn block_words_scalar(&self, counter: u32) -> [u32; 16] {
        let mut state = self.base;
        state[12] = counter;
        let mut working = state;
        for _ in 0..10 {
            // Column rounds, then diagonal rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (w, s) in working.iter_mut().zip(state) {
            *w = w.wrapping_add(s);
        }
        working
    }

    /// One 64-byte keystream block, identical to [`block`].
    pub fn keystream_block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        le_bytes(self.block_words(counter))
    }

    /// XORs `data` in place with the keystream starting at block
    /// `initial_counter`: the widest kernel the CPU has for each full
    /// run, then the narrower tiers for the remainder.
    pub fn xor_at(&self, initial_counter: u32, data: &mut [u8]) {
        let mut counter = initial_counter;
        #[allow(unused_mut)]
        let mut data = data;
        #[cfg(target_arch = "x86_64")]
        if crate::avx512() {
            let mut long = std::mem::take(&mut data).chunks_exact_mut(LONG_BLOCKS * BLOCK_LEN);
            for run in &mut long {
                simd::xor_long(&self.base, counter, run);
                counter = counter.wrapping_add(LONG_BLOCKS as u32);
            }
            data = long.into_remainder();
        }
        let mut wide = data.chunks_exact_mut(WIDE_BLOCKS * BLOCK_LEN);
        for run in &mut wide {
            self.xor_wide(counter, run);
            counter = counter.wrapping_add(WIDE_BLOCKS as u32);
        }
        #[allow(unused_mut)]
        let mut rest = wide.into_remainder();
        // Mid-tier: a four-block SSSE3 run for tails of 256..512 bytes.
        #[cfg(target_arch = "x86_64")]
        if rest.len() >= QUAD_BLOCKS * BLOCK_LEN && quad_is_accelerated() {
            let taken = std::mem::take(&mut rest);
            let (quad, tail) = taken.split_at_mut(QUAD_BLOCKS * BLOCK_LEN);
            simd::xor_quad(&self.base, counter, quad);
            counter = counter.wrapping_add(QUAD_BLOCKS as u32);
            rest = tail;
        }
        for chunk in rest.chunks_mut(BLOCK_LEN) {
            let ks = self.block_words(counter);
            counter = counter.wrapping_add(1);
            xor_words(chunk, &ks);
        }
    }

    /// XORs exactly [`WIDE_BLOCKS`] consecutive blocks: the AVX2 kernel
    /// when the CPU has it, the portable lane code otherwise.
    fn xor_wide(&self, counter: u32, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if simd::try_xor_wide_avx2(&self.base, counter, data) {
            return;
        }
        self.xor_wide_lanes(counter, data);
    }

    /// Portable wide kernel: [`WIDE_BLOCKS`] blocks computed together on
    /// `[u32; WIDE_BLOCKS]` lanes, a shape the optimizer vectorizes.
    fn xor_wide_lanes(&self, counter: u32, data: &mut [u8]) {
        debug_assert_eq!(data.len(), WIDE_BLOCKS * BLOCK_LEN);
        let mut init = [[0u32; WIDE_BLOCKS]; 16];
        for (lanes, &word) in init.iter_mut().zip(&self.base) {
            *lanes = [word; WIDE_BLOCKS];
        }
        for (j, c) in init[12].iter_mut().enumerate() {
            *c = counter.wrapping_add(j as u32);
        }

        let mut working = init;
        for _ in 0..10 {
            wide_quarter_round(&mut working, 0, 4, 8, 12);
            wide_quarter_round(&mut working, 1, 5, 9, 13);
            wide_quarter_round(&mut working, 2, 6, 10, 14);
            wide_quarter_round(&mut working, 3, 7, 11, 15);
            wide_quarter_round(&mut working, 0, 5, 10, 15);
            wide_quarter_round(&mut working, 1, 6, 11, 12);
            wide_quarter_round(&mut working, 2, 7, 8, 13);
            wide_quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (w, i) in working.iter_mut().zip(init) {
            *w = ladd(*w, i);
        }

        // Scatter: block `j` of the run is lane `j` of each state word.
        // XOR two words per `u64` load straight out of the lane arrays
        // instead of first gathering a contiguous 16-word block.
        for (j, blk) in data.chunks_exact_mut(BLOCK_LEN).enumerate() {
            for (pair, word) in blk.chunks_exact_mut(8).zip((0..16).step_by(2)) {
                let k = u64::from(working[word][j]) | (u64::from(working[word + 1][j]) << 32);
                let bytes: [u8; 8] = (&*pair).try_into().expect("8 bytes");
                pair.copy_from_slice(&(u64::from_le_bytes(bytes) ^ k).to_le_bytes());
            }
        }
    }
}

/// Whether full [`WIDE_BLOCKS`]-block keystream runs are backed by a
/// hardware SIMD kernel on this CPU. Size-threshold dispatch in the
/// AEAD uses this to decide if rounding a short request up to a full
/// wide run is a win (one AVX2 run) or a loss (eight scalar blocks).
pub(crate) fn wide_is_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether four-block keystream runs are backed by a hardware kernel
/// (x86_64 with SSSE3 — runtime-detected, present on everything since
/// ~2006). The AEAD small path rounds two- and three-block requests up
/// to four when this holds.
pub(crate) fn quad_is_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// XORs up to 64 bytes of `data` with keystream words, eight bytes per
/// `u64` lane with a byte-wise tail.
#[inline]
pub(crate) fn xor_words(data: &mut [u8], ks: &[u32; 16]) {
    debug_assert!(data.len() <= BLOCK_LEN);
    let mut lanes = data.chunks_exact_mut(8);
    let mut i = 0;
    for lane in &mut lanes {
        let k = u64::from(ks[i]) | (u64::from(ks[i + 1]) << 32);
        let bytes: [u8; 8] = (&*lane).try_into().expect("8 bytes");
        let v = u64::from_le_bytes(bytes) ^ k;
        lane.copy_from_slice(&v.to_le_bytes());
        i += 2;
    }
    let base = i * 4;
    for (j, b) in lanes.into_remainder().iter_mut().enumerate() {
        let idx = base + j;
        *b ^= (ks[idx / 4] >> (8 * (idx % 4))) as u8;
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

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let ks = block(&key, 1, &nonce);
        let expected = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(ks.to_vec(), expected);
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        xor_stream(&key, 1, &nonce, &mut data);
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut data = original.clone();
            xor_stream(&key, 0, &nonce, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len}");
            }
            xor_stream(&key, 0, &nonce, &mut data);
            assert_eq!(data, original, "len {len}");
        }
    }

    #[test]
    fn counter_advances_per_block() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        // Encrypting 128 bytes starting at counter 0 must equal block 0 || block 1.
        let mut data = [0u8; 128];
        xor_stream(&key, 0, &nonce, &mut data);
        let b0 = block(&key, 0, &nonce);
        let b1 = block(&key, 1, &nonce);
        assert_eq!(&data[..64], &b0[..]);
        assert_eq!(&data[64..], &b1[..]);
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = [3u8; 32];
        let a = block(&key, 0, &[0u8; 12]);
        let b = block(&key, 0, &[1u8; 12]);
        assert_ne!(a, b);
    }

    #[test]
    fn session_block_matches_reference() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let session = ChaCha20::new(&key, &nonce);
        for counter in [0u32, 1, 2, 3, 4, 1000, u32::MAX] {
            assert_eq!(
                session.keystream_block(counter),
                block(&key, counter, &nonce),
                "counter {counter}"
            );
        }
    }

    /// Sixteen-block runs this thread has served (0 off `x86_64`).
    fn long_runs() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            crate::simd::LONG_RUNS.with(|n| n.get())
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            0
        }
    }

    #[test]
    fn session_xor_matches_xor_stream() {
        // Cover lengths below, at, and across the quad (256 B), wide
        // (512 B) and long (1 KiB) run boundaries, including partial
        // trailing blocks. Where the CPU has AVX-512F, every full 1 KiB
        // run must have gone to the sixteen-block kernel.
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        let session = ChaCha20::new(&key, &nonce);
        #[rustfmt::skip]
        let lens = [
            0usize, 1, 8, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024,
            1025, 2047, 2048, 2112, 4096, 16384,
        ];
        for len in lens {
            for counter in [0u32, 1, 7] {
                let original: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let mut reference = original.clone();
                xor_stream(&key, counter, &nonce, &mut reference);
                let mut fast = original;
                let before = long_runs();
                session.xor_at(counter, &mut fast);
                assert_eq!(fast, reference, "len {len} counter {counter}");
                let runs = if crate::avx512() { len / 1024 } else { 0 };
                assert_eq!(long_runs() - before, runs as u64, "len {len}");
            }
        }
    }

    /// The sixteen-block kernel, called directly, against the scalar
    /// oracle at the counters where its lanes wrap. It cannot run on a
    /// CPU without AVX-512F; there the dispatch test above checks that
    /// nothing routes to it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn long_kernel_matches_scalar_oracle() {
        if !crate::avx512() {
            return;
        }
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let session = ChaCha20::new(&key, &[0xA5u8; 12]);
        for counter in [0u32, 1, u32::MAX - 15, u32::MAX] {
            let original: Vec<u8> = (0..LONG_BLOCKS * BLOCK_LEN)
                .map(|i| (i * 29) as u8)
                .collect();
            let mut expected = original.clone();
            for (j, blk) in expected.chunks_exact_mut(BLOCK_LEN).enumerate() {
                xor_words(
                    blk,
                    &session.block_words_scalar(counter.wrapping_add(j as u32)),
                );
            }
            let mut run = original;
            crate::simd::xor_long(&session.base, counter, &mut run);
            assert_eq!(run, expected, "counter {counter}");
        }
    }

    // The SIMD kernels must be bit-identical to the portable code on
    // every path: the single-block kernel against the scalar oracle,
    // and the wide path — called directly, so an AVX-512 host still runs
    // the AVX2 kernel — against the lane kernel (on CPUs without AVX2
    // both sides run the lane code and the test is a tautology).
    #[test]
    fn simd_kernels_match_scalar_oracle() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce = [0x5Au8; 12];
        let session = ChaCha20::new(&key, &nonce);
        for counter in [0u32, 1, 2, 7, 1000, u32::MAX - 1, u32::MAX] {
            assert_eq!(
                session.block_words(counter),
                session.block_words_scalar(counter),
                "counter {counter}"
            );
        }
        for counter in [0u32, 3, u32::MAX - 3] {
            let original: Vec<u8> = (0..WIDE_BLOCKS * BLOCK_LEN)
                .map(|i| (i * 37) as u8)
                .collect();
            let mut dispatched = original.clone();
            session.xor_wide(counter, &mut dispatched);
            let mut lanes = original;
            session.xor_wide_lanes(counter, &mut lanes);
            assert_eq!(dispatched, lanes, "counter {counter}");
        }
    }

    #[test]
    fn session_xor_counter_wraps_like_reference() {
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let session = ChaCha20::new(&key, &nonce);
        let mut reference = [0xabu8; 640];
        xor_stream(&key, u32::MAX - 2, &nonce, &mut reference);
        let mut fast = [0xabu8; 640];
        session.xor_at(u32::MAX - 2, &mut fast);
        assert_eq!(fast, reference);
    }
}
