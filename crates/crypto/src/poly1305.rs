//! Poly1305 one-time authenticator (RFC 8439).
//!
//! Implemented with radix-2^44 limbs (the 64-bit "donna"
//! representation): three limbs of 44/44/42 bits keep each `h * r` to
//! nine widening multiplies whose products fit in `u128`, and carries
//! stay simple and branch-free. On 64-bit targets this roughly halves
//! the per-byte cost of the classic five-limb radix-2^26 form.
//!
//! # Four blocks per carry
//!
//! Absorbing one block is `h <- (h + m) * r`: add, multiply, carry, each
//! waiting on the one before, so a long message runs at the *latency* of
//! that chain while the multiplier idles. Unrolling Horner's rule four
//! deep,
//!
//! ```text
//! h <- (h + m1) * r^4 + m2 * r^3 + m3 * r^2 + m4 * r
//! ```
//!
//! gives the same value mod 2^130 - 5 (so the same tag, bit for bit) from
//! 36 products of which 27 do not depend on `h`, summed into three columns
//! and carried *once* per 64 bytes: the serial chain is a quarter as long
//! per byte and the core overlaps the next run's message products with
//! this run's carry. Four is enough on a scalar 64-bit core: the loop
//! then runs at about 1.4 cycles per multiply-accumulate, bound by
//! instruction issue rather than by the carry, so eight would only
//! remove a carry nobody is waiting for while needing seven cached
//! powers (the 20 multiplier words of four already exceed the register
//! file).
//!
//! The powers cost three multiply-carries, about what they save on 128
//! bytes, and a MAC is keyed once per record, so they are computed lazily:
//! on the first aligned run of at least `POWERS_MIN_RUN` bytes, then kept
//! in the state so later `update` calls (the fused AEAD loops feed 1 KiB
//! at a time) reuse them. Records shorter than that never leave the
//! one-block loop and pay nothing.
//!
//! # Eight lanes (AVX-512F)
//!
//! Vector units change the trade: eight lanes of one `vpmuludq` each
//! absorb eight blocks per step as `lane_j <- lane_j * r^8 + m`, lane `j`
//! taking blocks `j, j + 8, ...`, and `sum_j lane_j * r^(8 - j)` is the
//! Horner value again. `LongMac` runs this (`simd::poly_lanes`) on every
//! aligned run of whole 128-byte groups of a message of at least
//! `LANES_MIN_LEN` bytes, in radix 2^26 (products must fit 64-bit lanes),
//! and folds each run straight back into the radix-2^44 `h` above. The
//! powers `r^5..r^8` come from the scalar multiplier; they cost about what
//! three lane steps save.
//!
//! Lane bounds: a power of `r`, split from carried radix-2^44 limbs, has
//! limbs `< 2^26` but limb 3 `< 2^26 + 2^11`; times 5, `< 2^28.33`. A lane
//! after its carry pass has limbs `< 2^26` but limbs 1 and 4 `< 2^26 +
//! 2^9`, and `h` enters lane 0 within the power bound; adding a message
//! limb (`< 2^26`) leaves every multiplicand `< 2^27.01`, well inside the
//! 32 bits `vpmuludq` reads. A column is five products, `< 2^57.7`; the
//! fold sums eight lanes' columns, `< 2^60.7`, inside `u64`. The carry
//! pass moves `< 2^31.7` out of each limb, `< 2^34` back into limb 0 at
//! 5x, and then at most `2^8` on into limb 1 (and `2^6` into limb 4).
//!
//! # Bounds
//!
//! After a carry `h`'s limbs are `< 2^44, < 2^44 + 2^8, < 2^42` (shown
//! last). A message limb is `< 2^44` (`< 2^41` on top, 2^128 bit
//! included), so what gets multiplied is `< 2^45.01, < 2^45.01, < 2^42.6`.
//! A multiplier is a limb of `r` or of a carried power (`< 2^44.01`, top
//! `< 2^42`) or 20 times one of the upper two (`< 2^48.4`, `< 2^46.4`).
//! The two low columns are then `< 2^92.3` per block and `< 2^94.3` for
//! four, far inside `u128`, and carry out (`>> 44`) less than `2^51`. The
//! top column `x0*r2 + x1*r1 + x2*r0` is `< 2^89.5` per block, `< 2^91.5`
//! for four; it carries out (`>> 42`) less than `2^49.5`, which re-enters
//! limb 0 times 5 as `< 2^51.9`, so limb 0 overflows 44 bits by less than
//! `2^8` and that is all limb 1 receives. The differential tests run the
//! largest clamped `r` against all-ones messages in dev, where `u64`/
//! `u128` overflow panics.

const M44: u64 = 0xfff_ffff_ffff;
const M42: u64 = 0x3ff_ffff_ffff;
/// The 2^128 bit every full block carries, as seen from the 42-bit limb.
const HIBIT: u64 = 1 << 40;

/// Poly1305 key length (r || s) in bytes.
pub const KEY_LEN: usize = 32;
/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Shortest aligned run that pays for computing `r^2..r^4`.
const POWERS_MIN_RUN: usize = 256;
/// Bytes per lane step: one block in each of eight lanes.
const LANE_GROUP: usize = 128;
/// Shortest message that pays for the lanes' set-up (`r^5..r^8`) and
/// fold: measured, three lane steps (384 B) break even with the scalar
/// loop and four (512 B) win.
const LANES_MIN_LEN: usize = 512;

/// A multiplier — `r` or a cached power of it — in radix-2^44 limbs.
#[derive(Clone, Copy)]
struct Multiplier {
    /// Limbs of 44/44/42 bits.
    limbs: [u64; 3],
    /// `20 * limbs[1..]`: a limb that overflows past 2^130 re-enters at
    /// 5x, and terms sourced from the 42-bit top limb carry an extra 4x
    /// from the radix difference, hence 20 = 5 * 4.
    folds: [u64; 2],
}

impl Multiplier {
    fn new(limbs: [u64; 3]) -> Self {
        Multiplier {
            limbs,
            folds: [limbs[1] * 20, limbs[2] * 20],
        }
    }

    /// The three un-carried columns of `x * self (mod 2^130 - 5)`:
    /// schoolbook with folded wrap terms.
    #[inline(always)]
    fn columns(&self, x: [u64; 3]) -> [u128; 3] {
        let m = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let [r0, r1, r2] = self.limbs;
        let [f1, f2] = self.folds;
        let [x0, x1, x2] = x;
        [
            m(x0, r0) + m(x1, f2) + m(x2, f1),
            m(x0, r1) + m(x1, r0) + m(x2, f2),
            m(x0, r2) + m(x1, r1) + m(x2, r0),
        ]
    }

    /// `x * self`, carried.
    #[inline(always)]
    fn times(&self, x: [u64; 3]) -> [u64; 3] {
        carry(self.columns(x))
    }
}

/// Carry propagation: three columns to limbs `< 2^44, < 2^44 + 2^8,
/// < 2^42` (see the module doc).
#[inline(always)]
fn carry(d: [u128; 3]) -> [u64; 3] {
    let [d0, mut d1, mut d2] = d;
    d1 += d0 >> 44;
    d2 += d1 >> 44;
    let h0 = (d0 as u64 & M44) + (d2 >> 42) as u64 * 5;
    [h0 & M44, (d1 as u64 & M44) + (h0 >> 44), d2 as u64 & M42]
}

/// Limb-wise (or column-wise) sum, not carried.
#[inline(always)]
fn add<T: core::ops::Add<Output = T> + Copy>(a: [T; 3], b: [T; 3]) -> [T; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

#[inline]
fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Splits a 16-byte block into limbs, with `hibit` (the 2^128 message
/// bit, or 0 on the padded final block) on top.
#[inline(always)]
fn block_limbs(block: &[u8], hibit: u64) -> [u64; 3] {
    let t0 = le64(&block[0..8]);
    let t1 = le64(&block[8..16]);
    [
        t0 & M44,
        ((t0 >> 44) | (t1 << 20)) & M44,
        ((t1 >> 24) & M42) | hibit,
    ]
}

/// Incremental Poly1305 state.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`.
    r: Multiplier,
    /// `r^2, r^3, r^4`, once a run long enough to use them has been seen.
    powers: Option<[Multiplier; 3]>,
    /// The pad `s` as two raw little-endian words.
    s: [u64; 2],
    /// Accumulator, radix-2^44 limbs.
    h: [u64; 3],
    buffer: [u8; 16],
    buffered: usize,
}

impl Poly1305 {
    /// Creates a state from the 32-byte one-time key `(r, s)`.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the RFC, split into 44/44/42-bit limbs. Clamping
        // clears the top four bits, so r's top limb is < 2^40.
        let t0 = le64(&key[0..8]);
        let t1 = le64(&key[8..16]);
        let r0 = t0 & 0xffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x00f_ffff_fc0f;
        Poly1305 {
            r: Multiplier::new([r0, r1, r2]),
            powers: None,
            s: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buffer: [0; 16],
            buffered: 0,
        }
    }

    /// `r^2, r^3, r^4`, computed on first use and kept.
    fn powers(&mut self) -> [Multiplier; 3] {
        let r = self.r;
        *self.powers.get_or_insert_with(|| {
            let r2 = Multiplier::new(r.times(r.limbs));
            let r3 = Multiplier::new(r.times(r2.limbs));
            let r4 = Multiplier::new(r2.times(r2.limbs));
            [r2, r3, r4]
        })
    }

    /// `h <- (h + m) * r` for one block: the path of buffered partial
    /// blocks and of the padded final block (`final_bit`, no 2^128 bit).
    fn process_block(&mut self, block: &[u8; 16], final_bit: bool) {
        let hibit = if final_bit { 0 } else { HIBIT };
        self.h = self.r.times(add(self.h, block_limbs(block, hibit)));
    }

    /// Aligned multi-block fast path: absorbs `data` (whose length must
    /// be a multiple of 16) without staging through the 16-byte buffer,
    /// four blocks per carry once the powers of `r` are cached, and the
    /// tail (or all of a short run) one block at a time.
    fn process_blocks(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 16, 0);
        let r = self.r;
        if data.len() >= POWERS_MIN_RUN {
            self.powers();
        }
        let mut h = self.h;
        let mut rest = data;

        if let Some([r2, r3, r4]) = &self.powers {
            let mut quads = data.chunks_exact(64);
            for quad in &mut quads {
                // The message-only products first: they do not wait for
                // the previous run's carry.
                let mut d = r3.columns(block_limbs(&quad[16..32], HIBIT));
                d = add(d, r2.columns(block_limbs(&quad[32..48], HIBIT)));
                d = add(d, r.columns(block_limbs(&quad[48..64], HIBIT)));
                let first = add(h, block_limbs(&quad[0..16], HIBIT));
                h = carry(add(d, r4.columns(first)));
            }
            rest = quads.remainder();
        }
        for block in rest.chunks_exact(16) {
            h = r.times(add(h, block_limbs(block, HIBIT)));
        }

        self.h = h;
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        if self.buffered > 0 {
            let take = (16 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 16 {
                let block = self.buffer;
                self.process_block(&block, false);
                self.buffered = 0;
            }
        }
        let aligned = input.len() & !15;
        if aligned > 0 {
            self.process_blocks(&input[..aligned]);
            input = &input[aligned..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Completes the MAC and returns the 16-byte tag.
    // Always inlined so that consuming the state is free: out of line,
    // each caller first copies it, cached powers included, into the
    // by-value argument (7 ns of a 260 ns 64-byte seal).
    #[inline(always)]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        self.finish()
    }

    fn finish(&mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // Final partial block: append 0x01 then zero-pad; no high bit.
            let mut block = [0u8; 16];
            block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            block[self.buffered] = 1;
            self.process_block(&block, true);
        }

        let [mut h0, mut h1, mut h2] = self.h;

        // Full carry.
        let mut c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;
        c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;

        // Compute g = h + 5 - 2^130; if it does not underflow, h >= p.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= M44;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= M44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);

        // Select h if h < p else g, branch-free: underflow sets g2's
        // top bit.
        let keep_h = (g2 >> 63).wrapping_neg(); // all-ones if h < p
        h0 = (h0 & keep_h) | (g0 & !keep_h);
        h1 = (h1 & keep_h) | (g1 & !keep_h);
        h2 = (h2 & keep_h) | (g2 & !keep_h);

        // tag = (h + s) mod 2^128, added in the 44/44/42 radix.
        let [t0, t1] = self.s;
        h0 = h0.wrapping_add(t0 & M44);
        c = h0 >> 44;
        h0 &= M44;
        h1 = h1.wrapping_add((((t0 >> 44) | (t1 << 20)) & M44).wrapping_add(c));
        c = h1 >> 44;
        h1 &= M44;
        h2 = h2.wrapping_add(((t1 >> 24) & M42).wrapping_add(c)) & M42;

        // Serialize to two little-endian words.
        let w0 = h0 | (h1 << 44);
        let w1 = (h1 >> 20) | (h2 << 24);
        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&w0.to_le_bytes());
        tag[8..16].copy_from_slice(&w1.to_le_bytes());
        tag
    }
}

use crate::avx512;
#[cfg(target_arch = "x86_64")]
use crate::simd::poly_lanes;

/// Off `x86_64` there is no lane kernel, and `avx512()` keeps [`LongMac`]
/// from calling one.
#[cfg(not(target_arch = "x86_64"))]
fn poly_lanes(_: [u64; 5], _: &[[u64; 8]; 5], _: &[u8]) -> [u64; 5] {
    unreachable!("no lane kernel on this target")
}

/// Splits a radix-2^44 value into five radix-2^26 limbs. Exact for any
/// limbs within the carried bounds; limb 3 picks up the spill of a
/// middle limb at `2^44 + 2^8` and so stays `< 2^26 + 2^11`.
fn limbs26([l0, l1, l2]: [u64; 3]) -> [u64; 5] {
    const M26: u64 = 0x3ff_ffff;
    [
        l0 & M26,
        (l0 >> 26) | ((l1 & 0xff) << 18),
        (l1 >> 8) & M26,
        (l1 >> 34) + ((l2 & 0xffff) << 10),
        l2 >> 16,
    ]
}

/// Poly1305 over one long message, as the fused AEAD loops feed it: the
/// scalar state plus, on AVX-512F hosts and for a message of at least
/// `LANES_MIN_LEN` bytes, the eight-lane kernel for every aligned run of
/// whole 128-byte groups. Each run leaves the scalar state as
/// `sum_j lane_j * r^(8 - j)`, carried — the value the one-block loop
/// would have reached — so the tag is bit-identical. The lane powers live
/// on the long-message loop's stack: [`Poly1305`] itself, which every
/// short record builds, is unchanged.
pub(crate) struct LongMac<'a> {
    mac: &'a mut Poly1305,
    /// Whether the message is long enough for lanes on this CPU.
    long: bool,
    /// Limb `i` of `r^(8 - j)` at `[i][j]`, built on the first lane run.
    pows: Option<[[u64; 8]; 5]>,
}

impl<'a> LongMac<'a> {
    /// Feeds `mac` a message with `len` more bytes to come.
    pub(crate) fn new(mac: &'a mut Poly1305, len: usize) -> Self {
        LongMac {
            mac,
            long: len >= LANES_MIN_LEN && avx512(),
            pows: None,
        }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        if self.long && self.mac.buffered == 0 && data.len() >= LANE_GROUP {
            let (groups, rest) = data.split_at(data.len() / LANE_GROUP * LANE_GROUP);
            let pows = self.pows.get_or_insert_with(|| lane_powers(self.mac));
            let d = poly_lanes(limbs26(self.mac.h), pows, groups).map(u128::from);
            // The fold's columns (< 2^60.7) sit at bits 0, 26 | 52, 78 |
            // 104, i.e. 44 + 8, 44 + 34 | 88 + 16 in radix 2^44.
            self.mac.h = carry([d[0] + (d[1] << 26), (d[2] << 8) + (d[3] << 34), d[4] << 16]);
            data = rest;
        }
        self.mac.update(data);
    }
}

/// `r^(8 - j)` in lane `j`, radix 2^26, through the scalar [`Multiplier`]
/// (reusing and caching `mac`'s `r^2..r^4`).
fn lane_powers(mac: &mut Poly1305) -> [[u64; 8]; 5] {
    let r = mac.r;
    let [r2, r3, r4] = mac.powers();
    let low = [r4, r3, r2, r];
    let high = low.map(|p| r4.times(p.limbs));
    let mut pows = [[0; 8]; 5];
    for (j, power) in high.into_iter().chain(low.map(|p| p.limbs)).enumerate() {
        for (row, limb) in pows.iter_mut().zip(limbs26(power)) {
            row[j] = limb;
        }
    }
    pows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One whole message through a fresh MAC.
    fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finish()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_tag() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 Appendix A.3 test vector #1: all-zero key and message.
    #[test]
    fn zero_key_zero_message() {
        let key = [0u8; 32];
        let tag = mac(&key, &[0u8; 64]);
        assert_eq!(tag, [0u8; 16]);
    }

    // RFC 8439 Appendix A.3 test vector #2: r = 0, s = IETF text tail.
    #[test]
    fn a3_vector_2() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let text = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = mac(&key, text);
        assert_eq!(tag.to_vec(), unhex("36e5f6b5c5e06070f0efca96227a863e"));
    }

    // RFC 8439 Appendix A.3 test vector #3: s = 0.
    #[test]
    fn a3_vector_3() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let text = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = mac(&key, text);
        assert_eq!(tag.to_vec(), unhex("f3477e7cd95417af89a6b8794c310cf0"));
    }

    // RFC 8439 Appendix A.3 test vector #7: h overflow handling.
    #[test]
    fn a3_vector_7() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("01000000000000000000000000000000"));
        let msg = unhex(
            "ffffffffffffffffffffffffffffffff\
             f0ffffffffffffffffffffffffffffff\
             11000000000000000000000000000000",
        );
        let tag = mac(&key, &msg);
        assert_eq!(tag.to_vec(), unhex("05000000000000000000000000000000"));
    }

    // RFC 8439 Appendix A.3 test vector #10 (edge case in final reduction).
    #[test]
    fn a3_vector_10() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("01000000000000000400000000000000"));
        let msg = unhex(
            "e33594d7505e43b90000000000000000\
             3394d7505e4379cd0100000000000000\
             00000000000000000000000000000000\
             01000000000000000000000000000000",
        );
        let tag = mac(&key, &msg);
        assert_eq!(tag.to_vec(), unhex("14000000000000005500000000000000"));
    }

    /// RFC 8439 Appendix A.3 vectors #4-#6, #8, #9 and #11 as (key,
    /// message, tag): a text vector and the limb-edge cases (partial
    /// reduction left unreduced, `+ s` wrapping 2^128, carries out of
    /// all-ones limbs, a polynomial result of exactly 2^130 - 5).
    #[test]
    fn a3_vectors_4_5_6_8_9_11() {
        let r_only = |r: &str| format!("{r}{}", "00".repeat(16));
        let jabberwocky: String = "'Twas brillig, and the slithy toves\nDid gyre and gimble in \
            the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe."
            .bytes()
            .map(|b| format!("{b:02x}"))
            .collect();
        let vectors: [(u32, String, &str, &str); 6] = [
            (
                4,
                "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0".into(),
                &jabberwocky,
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (
                5,
                r_only("02000000000000000000000000000000"),
                "ffffffffffffffffffffffffffffffff",
                "03000000000000000000000000000000",
            ),
            (
                6,
                "02000000000000000000000000000000ffffffffffffffffffffffffffffffff".into(),
                "02000000000000000000000000000000",
                "03000000000000000000000000000000",
            ),
            (
                8,
                r_only("01000000000000000000000000000000"),
                "ffffffffffffffffffffffffffffffff\
                 fbfefefefefefefefefefefefefefefe\
                 01010101010101010101010101010101",
                "00000000000000000000000000000000",
            ),
            (
                9,
                r_only("02000000000000000000000000000000"),
                "fdffffffffffffffffffffffffffffff",
                "faffffffffffffffffffffffffffffff",
            ),
            (
                11,
                r_only("01000000000000000400000000000000"),
                "e33594d7505e43b90000000000000000\
                 3394d7505e4379cd0100000000000000\
                 00000000000000000000000000000000",
                "13000000000000000000000000000000",
            ),
        ];
        for (n, key, msg, tag) in vectors {
            let key: [u8; 32] = unhex(&key).try_into().unwrap();
            assert_eq!(mac(&key, &unhex(msg)).to_vec(), unhex(tag), "#{n}");
        }
    }

    /// The oracle for the multi-block path: every full block through the
    /// one-block `process_block`, never `process_blocks`.
    fn mac_block_by_block(key: &[u8; 32], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            p.process_block(block.try_into().unwrap(), false);
        }
        p.update(blocks.remainder());
        assert!(p.powers.is_none());
        p.finalize()
    }

    /// Keys and messages for the differential tests: random `(r, s)`
    /// pairs plus the two edges of `r` — every bit that survives
    /// clamping set (the largest multipliers and powers the bounds
    /// argument has to cover) and zero — against all-ones limbs and
    /// random bytes.
    fn differential_inputs(max_len: usize) -> (Vec<[u8; 32]>, [Vec<u8>; 2]) {
        let mut rng = cio_sim::SimRng::seed_from(0x1305);
        let mut keys = vec![[0u8; 32]; 5];
        for key in &mut keys {
            rng.fill_bytes(key);
        }
        keys[0][..16].fill(0xff);
        keys[1][..16].fill(0);
        let mut random = vec![0u8; max_len];
        rng.fill_bytes(&mut random);
        (keys, [vec![0xff; max_len], random])
    }

    /// Every length from empty to past four 512-byte runs: short
    /// messages that must stay on the one-block loop, the first length
    /// that computes powers, and every tail (0-3 blocks plus 0-15 bytes)
    /// after the four-block steps. In dev, where arithmetic overflow
    /// panics, this is also the mechanical check of the header's bounds.
    #[test]
    fn multi_block_path_equals_block_by_block_at_every_length() {
        let (keys, messages) = differential_inputs(2064);
        for (k, key) in keys.iter().enumerate() {
            for (m, message) in messages.iter().enumerate() {
                for len in 0..=message.len() {
                    let data = &message[..len];
                    let mut p = Poly1305::new(key);
                    p.update(data);
                    assert_eq!(p.powers.is_some(), len >= POWERS_MIN_RUN, "len {len}");
                    assert_eq!(
                        p.finalize(),
                        mac_block_by_block(key, data),
                        "key {k} message {m} len {len}"
                    );
                }
            }
        }
    }

    /// Every split of 1 KiB across two `update`s: the powers are computed
    /// in the first call or mid-stream in the second, before and after a
    /// buffered partial block, and reused when both calls are long.
    #[test]
    fn multi_block_path_equals_block_by_block_at_every_split() {
        let (keys, messages) = differential_inputs(1024);
        for (k, key) in keys.iter().enumerate() {
            for (m, message) in messages.iter().enumerate() {
                let expected = mac_block_by_block(key, message);
                for split in 0..=message.len() {
                    let mut p = Poly1305::new(key);
                    p.update(&message[..split]);
                    p.update(&message[split..]);
                    assert_eq!(p.finalize(), expected, "key {k} message {m} split {split}");
                }
            }
        }
    }

    /// A [`LongMac`] declared long (so lanes engage at any length where
    /// the CPU has them) fed `pieces` in turn: the tag, and whether the
    /// lane kernel ran.
    fn mac_lanes(key: &[u8; 32], pieces: &[&[u8]]) -> ([u8; TAG_LEN], bool) {
        let mut p = Poly1305::new(key);
        let mut mac = LongMac::new(&mut p, LANES_MIN_LEN);
        for piece in pieces {
            mac.update(piece);
        }
        let ran = mac.pows.is_some();
        (p.finalize(), ran)
    }

    /// The lanes against the one-block oracle at every length from empty
    /// to past four 1 KiB fused chunks: no group, every group count, and
    /// every scalar tail after the fold. The all-ones `r` against all-ones
    /// blocks drives every radix-2^26 limb to its documented bound; in dev
    /// the scalar conversions around the kernel panic on overflow, and a
    /// wrapped lane would show as a wrong tag. Records below the threshold
    /// hold no lane state.
    #[test]
    fn lanes_equal_block_by_block_at_every_length() {
        let (keys, messages) = differential_inputs(4160);
        for (k, key) in keys.iter().enumerate() {
            for (m, message) in messages.iter().enumerate() {
                for len in 0..=message.len() {
                    let data = &message[..len];
                    let (tag, ran) = mac_lanes(key, &[data]);
                    assert_eq!(
                        tag,
                        mac_block_by_block(key, data),
                        "key {k} message {m} len {len}"
                    );
                    assert_eq!(ran, avx512() && len >= LANE_GROUP, "len {len}");
                    let mut p = Poly1305::new(key);
                    let long = LongMac::new(&mut p, len).long;
                    assert_eq!(long, avx512() && len >= LANES_MIN_LEN, "len {len}");
                }
            }
        }
    }

    /// Every split of 2 KiB across two `update`s: lanes built in the first
    /// call or only in the second, a fold before a buffered partial block,
    /// and no lanes at all when the second call starts mid-block.
    #[test]
    fn lanes_equal_block_by_block_at_every_split() {
        let (keys, messages) = differential_inputs(2048);
        for (k, key) in keys.iter().enumerate() {
            for (m, message) in messages.iter().enumerate() {
                let expected = mac_block_by_block(key, message);
                for split in 0..=message.len() {
                    let (head, tail) = message.split_at(split);
                    let (tag, ran) = mac_lanes(key, &[head, tail]);
                    assert_eq!(tag, expected, "key {k} message {m} split {split}");
                    let engages =
                        split >= LANE_GROUP || (split % 16 == 0 && tail.len() >= LANE_GROUP);
                    assert_eq!(ran, avx512() && engages, "split {split}");
                }
            }
        }
    }

    /// Three `update`s split on 128-byte boundaries: lane runs back to
    /// back, each starting from the value the previous one left.
    #[test]
    fn lanes_equal_block_by_block_across_updates_on_group_boundaries() {
        let (keys, messages) = differential_inputs(2048);
        for (k, key) in keys.iter().enumerate() {
            for (m, message) in messages.iter().enumerate() {
                let expected = mac_block_by_block(key, message);
                for a in (0..=message.len()).step_by(LANE_GROUP) {
                    for b in (a..=message.len()).step_by(LANE_GROUP) {
                        let pieces = [&message[..a], &message[a..b], &message[b..]];
                        let (tag, ran) = mac_lanes(key, &pieces);
                        assert_eq!(tag, expected, "key {k} message {m} splits {a} {b}");
                        assert_eq!(ran, avx512(), "splits {a} {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_block_fast_path_equals_per_block() {
        // Feed the same message through the aligned fast path (one big
        // update) and through forced per-block staging (1-byte updates).
        let key: [u8; 32] = (100u8..132).collect::<Vec<_>>().try_into().unwrap();
        for len in [16usize, 32, 48, 64, 160, 512, 1024, 1040] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut bytewise = Poly1305::new(&key);
            for b in &data {
                bytewise.update(core::slice::from_ref(b));
            }
            assert_eq!(bytewise.finalize(), mac(&key, &data), "len {len}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let data: Vec<u8> = (0..200u8).collect();
        for split in [0usize, 1, 15, 16, 17, 100, 200] {
            let mut p = Poly1305::new(&key);
            p.update(&data[..split]);
            p.update(&data[split..]);
            assert_eq!(p.finalize(), mac(&key, &data), "split {split}");
        }
    }
}
