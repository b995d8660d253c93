//! Every explicit SIMD kernel in the crate (`x86_64` only), and its only
//! unsafe code. Each kernel is bit-identical to the portable code: the
//! unit tests beside each caller compare it against the scalar oracle.
//!
//! ChaCha20 keystream, one tier per length the dataplane feeds it:
//!
//! * [`block_words_sse2`] — one block in four `__m128i` rows. SSE2 is
//!   part of the x86_64 baseline, so this path is unconditional: it
//!   serves the Poly1305 key block and partial tails.
//! * [`xor_quad`] — four blocks vertically on SSSE3, for tails of
//!   256..512 bytes and two- to four-block small records.
//! * [`try_xor_wide_avx2`] — eight blocks vertically, one `__m256i` per
//!   state word, with an 8x8 word transpose feeding 32-byte XORs.
//! * [`xor_long`] — sixteen blocks vertically on AVX-512F, one `__m512i`
//!   per state word, `vprold` rotations and a 16x16 word transpose: every
//!   full 1 KiB run.
//!
//! Poly1305: [`poly_lanes`], eight radix-2^26 lanes on AVX-512F
//! `vpmuludq` (the bounds are in `poly1305`'s module docs). The same
//! arithmetic in safe Rust autovectorizes to 0.44 ns/B, slower than the
//! scalar four-block loop's 0.32; these intrinsics reach 0.15 at 16 KiB.
//!
//! X25519: [`ladder_lanes`], eight independent Montgomery ladders, one per
//! 64-bit lane, with radix-2^51 products on AVX-512 IFMA `vpmadd52{lo,hi}uq`
//! (the bounds are in `x25519`'s module docs). It serves
//! `x25519::scalarmult_many`, a run of *handshakes*; it is not a
//! multi-record AEAD kernel, and every record still takes one AEAD pass.
//!
//! SHA-256: [`sha256_blocks`], the compression function on the SHA
//! extensions (`sha256rnds2`, `sha256msg1`/`msg2`, with SSSE3/SSE4.1
//! shuffles), every whole block of one `Sha256::update` in one call with
//! the state in two registers throughout. The scalar `sha256::compress`
//! stays as the fallback and the oracle.
//!
//! Every entry point re-checks its CPU feature (`is_x86_feature_detected!`
//! caches the CPUID probe, so each check is a relaxed atomic load) before
//! it enters a `#[target_feature]` function.
#![allow(unsafe_code)] // the crate's one unsafe module: intrinsics behind runtime feature checks

use crate::chacha20::{BLOCK_LEN, LONG_BLOCKS, QUAD_BLOCKS, WIDE_BLOCKS};
use crate::sha256::K;
use crate::x25519::{LANES, MASK51, TWO_P};
use crate::{avx512, avx512ifma, sha_ni};
use core::arch::x86_64::*;

#[cfg(test)]
thread_local! {
    /// Sixteen-block runs this thread has served: the dispatch tests read
    /// it to prove the AVX-512 kernel engaged.
    pub(crate) static LONG_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Eight-lane X25519 runs this thread has served: the batch tests read
    /// it to prove the IFMA kernel engaged.
    pub(crate) static LADDER_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(any(test, debug_assertions))]
thread_local! {
    /// Blocks this thread has compressed on the SHA-NI kernel: the hash
    /// tests read it to prove the kernel engaged, and debug builds export
    /// it (`sha256::kernel_blocks`) so other crates' tests can too.
    pub(crate) static SHA_BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Safe front door for the wide kernel: runs it if the CPU has AVX2
/// and reports whether it did, so the caller can fall back.
#[inline]
pub(crate) fn try_xor_wide_avx2(base: &[u32; 16], counter: u32, data: &mut [u8]) -> bool {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: AVX2 presence was just verified at runtime.
    unsafe { xor_wide_avx2(base, counter, data) };
    true
}

/// Rotates each 32-bit lane left by 16: swap the 16-bit halves with
/// the SSE2 half-word shuffles (no SSSE3 byte shuffle needed).
macro_rules! rol16 {
    ($v:expr) => {
        _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>($v))
    };
}

/// Rotates each 32-bit lane left by `$n` via shift-and-or.
macro_rules! rol {
    ($v:expr, $n:literal) => {{
        let v = $v;
        _mm_or_si128(_mm_slli_epi32::<$n>(v), _mm_srli_epi32::<{ 32 - $n }>(v))
    }};
}

/// One ChaCha20 double round on the four-row representation
/// (row0 = words 0..4, row1 = 4..8, row2 = 8..12, row3 = 12..16).
/// Each vector op performs the same step of all four column quarter
/// rounds; lane rotations re-align the rows for the diagonals.
macro_rules! double_round {
    ($x0:ident, $x1:ident, $x2:ident, $x3:ident) => {
        $x0 = _mm_add_epi32($x0, $x1);
        $x3 = rol16!(_mm_xor_si128($x3, $x0));
        $x2 = _mm_add_epi32($x2, $x3);
        $x1 = rol!(_mm_xor_si128($x1, $x2), 12);
        $x0 = _mm_add_epi32($x0, $x1);
        $x3 = rol!(_mm_xor_si128($x3, $x0), 8);
        $x2 = _mm_add_epi32($x2, $x3);
        $x1 = rol!(_mm_xor_si128($x1, $x2), 7);
        $x1 = _mm_shuffle_epi32::<0b00_11_10_01>($x1);
        $x2 = _mm_shuffle_epi32::<0b01_00_11_10>($x2);
        $x3 = _mm_shuffle_epi32::<0b10_01_00_11>($x3);
        $x0 = _mm_add_epi32($x0, $x1);
        $x3 = rol16!(_mm_xor_si128($x3, $x0));
        $x2 = _mm_add_epi32($x2, $x3);
        $x1 = rol!(_mm_xor_si128($x1, $x2), 12);
        $x0 = _mm_add_epi32($x0, $x1);
        $x3 = rol!(_mm_xor_si128($x3, $x0), 8);
        $x2 = _mm_add_epi32($x2, $x3);
        $x1 = rol!(_mm_xor_si128($x1, $x2), 7);
        $x1 = _mm_shuffle_epi32::<0b10_01_00_11>($x1);
        $x2 = _mm_shuffle_epi32::<0b01_00_11_10>($x2);
        $x3 = _mm_shuffle_epi32::<0b00_11_10_01>($x3);
    };
}

/// Single-block kernel: the sixteen post-addition keystream words
/// for `counter`, identical to the scalar `block_words`.
pub(crate) fn block_words_sse2(base: &[u32; 16], counter: u32) -> [u32; 16] {
    // SAFETY: SSE2 is unconditionally available on x86_64; the
    // unaligned load/store intrinsics read and write exactly 16
    // bytes inside the 64-byte `base`/`out` arrays.
    unsafe {
        let p = base.as_ptr() as *const __m128i;
        let s0 = _mm_loadu_si128(p);
        let s1 = _mm_loadu_si128(p.add(1));
        let s2 = _mm_loadu_si128(p.add(2));
        // Splice `counter` into word 12 (lane 0 of the fourth row).
        let keep = _mm_set_epi32(-1, -1, -1, 0);
        let s3 = _mm_or_si128(
            _mm_and_si128(_mm_loadu_si128(p.add(3)), keep),
            _mm_cvtsi32_si128(counter as i32),
        );

        let (mut x0, mut x1, mut x2, mut x3) = (s0, s1, s2, s3);
        for _ in 0..10 {
            double_round!(x0, x1, x2, x3);
        }

        let mut out = [0u32; 16];
        let q = out.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(q, _mm_add_epi32(x0, s0));
        _mm_storeu_si128(q.add(1), _mm_add_epi32(x1, s1));
        _mm_storeu_si128(q.add(2), _mm_add_epi32(x2, s2));
        _mm_storeu_si128(q.add(3), _mm_add_epi32(x3, s3));
        out
    }
}

/// Safe front door for the quad kernel. Callers gate on
/// `quad_is_accelerated()`; the check here re-reads the cached
/// detection result so the unsafe call can never be reached on a
/// CPU without SSSE3.
#[inline]
pub(crate) fn xor_quad(base: &[u32; 16], counter: u32, data: &mut [u8]) {
    assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: SSSE3 presence was just verified at runtime.
    unsafe { xor_quad_ssse3(base, counter, data) }
}

/// 4x4 transpose of a quarter of the quad state: four `__m128i`
/// rows holding word `w` across blocks 0..4 become four rows
/// holding block `j`'s four consecutive words.
macro_rules! transpose4 {
    ($x:ident, $o:expr) => {{
        let t0 = _mm_unpacklo_epi32($x[$o], $x[$o + 1]);
        let t1 = _mm_unpacklo_epi32($x[$o + 2], $x[$o + 3]);
        let t2 = _mm_unpackhi_epi32($x[$o], $x[$o + 1]);
        let t3 = _mm_unpackhi_epi32($x[$o + 2], $x[$o + 3]);
        [
            _mm_unpacklo_epi64(t0, t1),
            _mm_unpackhi_epi64(t0, t1),
            _mm_unpacklo_epi64(t2, t3),
            _mm_unpackhi_epi64(t2, t3),
        ]
    }};
}

/// One quarter round across four blocks, one state word per
/// `__m128i` — the SSSE3 counterpart of `wide_qr` (byte shuffles
/// for the 16- and 8-bit rotations, shift-and-or for the rest).
macro_rules! quad_qr {
    ($x:ident, $a:expr, $b:expr, $c:expr, $d:expr, $r16:ident, $r8:ident) => {
        $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm_shuffle_epi8(_mm_xor_si128($x[$d], $x[$a]), $r16);
        $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
        $x[$b] = rol!(_mm_xor_si128($x[$b], $x[$c]), 12);
        $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm_shuffle_epi8(_mm_xor_si128($x[$d], $x[$a]), $r8);
        $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
        $x[$b] = rol!(_mm_xor_si128($x[$b], $x[$c]), 7);
    };
}

/// Mid-tier kernel: XORs exactly [`QUAD_BLOCKS`] consecutive
/// blocks into `data`, vertically on 128-bit lanes. Serves keystream
/// tails and small records that do not fill an AVX2 run.
#[target_feature(enable = "ssse3")]
fn xor_quad_ssse3(base: &[u32; 16], counter: u32, data: &mut [u8]) {
    debug_assert_eq!(data.len(), QUAD_BLOCKS * BLOCK_LEN);
    #[rustfmt::skip]
    let r16 = _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
    #[rustfmt::skip]
    let r8 = _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
    let mut init = [_mm_setzero_si128(); 16];
    for (v, &w) in init.iter_mut().zip(base.iter()) {
        *v = _mm_set1_epi32(w as i32);
    }
    init[12] = _mm_add_epi32(_mm_set1_epi32(counter as i32), _mm_setr_epi32(0, 1, 2, 3));

    let mut x = init;
    for _ in 0..10 {
        quad_qr!(x, 0, 4, 8, 12, r16, r8);
        quad_qr!(x, 1, 5, 9, 13, r16, r8);
        quad_qr!(x, 2, 6, 10, 14, r16, r8);
        quad_qr!(x, 3, 7, 11, 15, r16, r8);
        quad_qr!(x, 0, 5, 10, 15, r16, r8);
        quad_qr!(x, 1, 6, 11, 12, r16, r8);
        quad_qr!(x, 2, 7, 8, 13, r16, r8);
        quad_qr!(x, 3, 4, 9, 14, r16, r8);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = _mm_add_epi32(*w, i);
    }

    // Each word quartet transposes into four 16-byte runs; block j
    // is row j of the four quartets back to back.
    let g = [
        transpose4!(x, 0),
        transpose4!(x, 4),
        transpose4!(x, 8),
        transpose4!(x, 12),
    ];
    for (j, blk) in data.chunks_exact_mut(BLOCK_LEN).enumerate() {
        for (quarter, grp) in blk.chunks_exact_mut(16).zip(&g) {
            // SAFETY: SSSE3 is this function's target feature; `quarter`
            // is exactly 16 bytes, so the unaligned load/store stay in it.
            unsafe {
                let p = quarter.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p as *const _), grp[j]));
            }
        }
    }
}

/// 8x8 transpose of one half of the wide state: eight `__m256i`
/// rows holding word `w` across blocks 0..8 become eight rows
/// holding block `j`'s eight consecutive words.
macro_rules! transpose8 {
    ($x:ident, $o:expr) => {{
        let t0 = _mm256_unpacklo_epi32($x[$o], $x[$o + 1]);
        let t1 = _mm256_unpackhi_epi32($x[$o], $x[$o + 1]);
        let t2 = _mm256_unpacklo_epi32($x[$o + 2], $x[$o + 3]);
        let t3 = _mm256_unpackhi_epi32($x[$o + 2], $x[$o + 3]);
        let t4 = _mm256_unpacklo_epi32($x[$o + 4], $x[$o + 5]);
        let t5 = _mm256_unpackhi_epi32($x[$o + 4], $x[$o + 5]);
        let t6 = _mm256_unpacklo_epi32($x[$o + 6], $x[$o + 7]);
        let t7 = _mm256_unpackhi_epi32($x[$o + 6], $x[$o + 7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }};
}

/// Rotates each 32-bit lane left by `$n` via shift-and-or (AVX2).
macro_rules! vrol {
    ($v:expr, $n:literal) => {{
        let v = $v;
        _mm256_or_si256(
            _mm256_slli_epi32::<$n>(v),
            _mm256_srli_epi32::<{ 32 - $n }>(v),
        )
    }};
}

/// One quarter round across all eight blocks, one state word per
/// `__m256i`. The 16- and 8-bit rotations use the byte shuffle.
macro_rules! wide_qr {
    ($x:ident, $a:expr, $b:expr, $c:expr, $d:expr, $r16:ident, $r8:ident) => {
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r16);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        $x[$b] = vrol!(_mm256_xor_si256($x[$b], $x[$c]), 12);
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r8);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        $x[$b] = vrol!(_mm256_xor_si256($x[$b], $x[$c]), 7);
    };
}

/// Wide kernel: XORs exactly [`WIDE_BLOCKS`] consecutive blocks
/// into `data`, vertically — each of the sixteen `__m256i` holds
/// one state word across the eight blocks, so the rounds are pure
/// element-wise vector ops with no shuffles until the final
/// transpose.
#[target_feature(enable = "avx2")]
fn xor_wide_avx2(base: &[u32; 16], counter: u32, data: &mut [u8]) {
    assert_eq!(data.len(), WIDE_BLOCKS * BLOCK_LEN);
    // Byte shuffles for the 16- and 8-bit lane rotations.
    #[rustfmt::skip]
    let r16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    #[rustfmt::skip]
    let r8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );

    let mut init = [_mm256_setzero_si256(); 16];
    for (v, &w) in init.iter_mut().zip(base.iter()) {
        *v = _mm256_set1_epi32(w as i32);
    }
    // Block j of the run is lane j: counters counter..counter+8,
    // with the same wrap-around the scalar path gets from
    // `wrapping_add`.
    init[12] = _mm256_add_epi32(
        _mm256_set1_epi32(counter as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );

    let mut x = init;
    for _ in 0..10 {
        wide_qr!(x, 0, 4, 8, 12, r16, r8);
        wide_qr!(x, 1, 5, 9, 13, r16, r8);
        wide_qr!(x, 2, 6, 10, 14, r16, r8);
        wide_qr!(x, 3, 7, 11, 15, r16, r8);
        wide_qr!(x, 0, 5, 10, 15, r16, r8);
        wide_qr!(x, 1, 6, 11, 12, r16, r8);
        wide_qr!(x, 2, 7, 8, 13, r16, r8);
        wide_qr!(x, 3, 4, 9, 14, r16, r8);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = _mm256_add_epi32(*w, i);
    }

    // Transpose words 0..8 and 8..16 separately: after each, row j
    // is 32 contiguous keystream bytes of block j.
    let lo = transpose8!(x, 0);
    let hi = transpose8!(x, 8);
    for j in 0..WIDE_BLOCKS {
        // SAFETY: AVX2 is this function's target feature; `data` is
        // exactly WIDE_BLOCKS * 64 bytes (asserted on entry), so the two
        // unaligned 32-byte accesses per block stay in bounds.
        unsafe {
            let p = data.as_mut_ptr().add(j * BLOCK_LEN) as *mut __m256i;
            _mm256_storeu_si256(
                p,
                _mm256_xor_si256(_mm256_loadu_si256(p as *const _), lo[j]),
            );
            let q = p.add(1);
            _mm256_storeu_si256(
                q,
                _mm256_xor_si256(_mm256_loadu_si256(q as *const _), hi[j]),
            );
        }
    }
}

/// Safe front door for the sixteen-block kernel. Callers gate on
/// `avx512()`; the check here keeps the unsafe call unreachable on a
/// CPU without AVX-512F.
#[inline]
pub(crate) fn xor_long(base: &[u32; 16], counter: u32, data: &mut [u8]) {
    assert!(avx512());
    #[cfg(test)]
    {
        LONG_RUNS.with(|n| n.set(n.get() + 1));
    }
    // SAFETY: AVX-512F presence was just verified at runtime.
    unsafe { xor_long_avx512(base, counter, data) }
}

/// One quarter round across sixteen blocks, one state word per
/// `__m512i`; every rotation is one `vprold`.
macro_rules! long_qr {
    ($x:ident, $a:expr, $b:expr, $c:expr, $d:expr) => {
        $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($x[$d], $x[$a]));
        $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
        $x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($x[$b], $x[$c]));
        $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($x[$d], $x[$a]));
        $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
        $x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($x[$b], $x[$c]));
    };
}

/// Long kernel: XORs exactly [`LONG_BLOCKS`] consecutive blocks into
/// `data`, vertically — `x[w]` holds state word `w` of all sixteen
/// blocks, block `j` in lane `j`.
#[target_feature(enable = "avx512f")]
fn xor_long_avx512(base: &[u32; 16], counter: u32, data: &mut [u8]) {
    assert_eq!(data.len(), LONG_BLOCKS * BLOCK_LEN);
    let mut init = [_mm512_setzero_si512(); 16];
    for (v, &w) in init.iter_mut().zip(base.iter()) {
        *v = _mm512_set1_epi32(w as i32);
    }
    // Counters counter..counter+16, wrapping like `wrapping_add`.
    #[rustfmt::skip]
    let steps = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    init[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), steps);

    let mut x = init;
    for _ in 0..10 {
        long_qr!(x, 0, 4, 8, 12);
        long_qr!(x, 1, 5, 9, 13);
        long_qr!(x, 2, 6, 10, 14);
        long_qr!(x, 3, 7, 11, 15);
        long_qr!(x, 0, 5, 10, 15);
        long_qr!(x, 1, 6, 11, 12);
        long_qr!(x, 2, 7, 8, 13);
        long_qr!(x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = _mm512_add_epi32(*w, i);
    }

    // 16x16 transpose in two steps. First a 4x4 dword transpose inside
    // each 128-bit lane of every word quartet g: `a[k][g]`'s lane L then
    // holds words 4g..4g+4 of block 4L + k.
    let mut a = [[_mm512_setzero_si512(); 4]; 4];
    for (g, w) in x.chunks_exact(4).enumerate() {
        let t0 = _mm512_unpacklo_epi32(w[0], w[1]);
        let t1 = _mm512_unpackhi_epi32(w[0], w[1]);
        let t2 = _mm512_unpacklo_epi32(w[2], w[3]);
        let t3 = _mm512_unpackhi_epi32(w[2], w[3]);
        a[0][g] = _mm512_unpacklo_epi64(t0, t2);
        a[1][g] = _mm512_unpackhi_epi64(t0, t2);
        a[2][g] = _mm512_unpacklo_epi64(t1, t3);
        a[3][g] = _mm512_unpackhi_epi64(t1, t3);
    }
    // Then, for each k, a 4x4 transpose of 128-bit lanes across the four
    // quartets: row L is block 4L + k, all sixteen words in order.
    for (k, q) in a.iter().enumerate() {
        let t0 = _mm512_shuffle_i32x4::<0x44>(q[0], q[1]);
        let t1 = _mm512_shuffle_i32x4::<0xEE>(q[0], q[1]);
        let t2 = _mm512_shuffle_i32x4::<0x44>(q[2], q[3]);
        let t3 = _mm512_shuffle_i32x4::<0xEE>(q[2], q[3]);
        let rows = [
            _mm512_shuffle_i32x4::<0x88>(t0, t2),
            _mm512_shuffle_i32x4::<0xDD>(t0, t2),
            _mm512_shuffle_i32x4::<0x88>(t1, t3),
            _mm512_shuffle_i32x4::<0xDD>(t1, t3),
        ];
        for (l, row) in rows.into_iter().enumerate() {
            // SAFETY: AVX-512F is this function's target feature; `data`
            // is exactly LONG_BLOCKS * 64 bytes (asserted on entry) and
            // block 4L + k < 16,
            // so the unaligned 64-byte access stays in bounds.
            unsafe {
                let p = data.as_mut_ptr().add((4 * l + k) * BLOCK_LEN) as *mut __m512i;
                _mm512_storeu_si512(p, _mm512_xor_si512(_mm512_loadu_si512(p), row));
            }
        }
    }
}

/// Safe front door for the Poly1305 lane kernel. Absorbs `data` (whole
/// 128-byte groups, at least one) into the message value `h`, eight
/// blocks per step: lane `j` takes blocks `j`, `j + 8`, ... as
/// `lane <- lane * r^8 + m`, with `h` added to lane 0's first block. Returns
/// the five un-carried columns of the fold `sum_j lane_j * r^(8 - j)`.
/// `pows` holds limb `i` of `r^(8 - j)` at `[i][j]`; all limbs are radix
/// 2^26 within `poly1305`'s bounds.
pub(crate) fn poly_lanes(h: [u64; 5], pows: &[[u64; 8]; 5], data: &[u8]) -> [u64; 5] {
    assert!(avx512() && data.len().is_multiple_of(128) && !data.is_empty());
    // SAFETY: AVX-512F presence was just verified at runtime.
    unsafe { poly_lanes_avx512(h, pows, data) }
}

/// The five un-carried columns of `a * b (mod 2^130 - 5)` per lane:
/// column `k` sums `a[i] * b[k - i]`, taking `5 * b[k - i + 5]` where the
/// index wraps past 2^130.
#[target_feature(enable = "avx512f")]
fn mul26(a: &[__m512i; 5], b: &[__m512i; 5]) -> [__m512i; 5] {
    let mut s = *b;
    for v in &mut s[1..] {
        *v = _mm512_add_epi64(*v, _mm512_slli_epi64::<2>(*v));
    }
    let mut d = [_mm512_setzero_si512(); 5];
    for (k, d) in d.iter_mut().enumerate() {
        for (i, &ai) in a.iter().enumerate() {
            let bi = if i <= k { b[k - i] } else { s[k + 5 - i] };
            *d = _mm512_add_epi64(*d, _mm512_mul_epu32(ai, bi));
        }
    }
    d
}

#[target_feature(enable = "avx512f")]
fn poly_lanes_avx512(h: [u64; 5], pows: &[[u64; 8]; 5], data: &[u8]) -> [u64; 5] {
    let m26 = _mm512_set1_epi64(0x3ff_ffff);
    let hibit = _mm512_set1_epi64(1 << 24);
    // Block j's low and high words sit at qwords 2j and 2j + 1.
    let lo_idx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    let hi_idx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    let [mut a, mut fold, mut r8] = [[_mm512_setzero_si512(); 5]; 3];
    for i in 0..5 {
        a[i] = _mm512_maskz_set1_epi64(1, h[i] as i64);
        r8[i] = _mm512_set1_epi64(pows[i][0] as i64);
        // SAFETY: AVX-512F is this function's target feature; each row of
        // `pows` is exactly eight `u64`, one unaligned 64-byte load.
        fold[i] = unsafe { _mm512_loadu_si512(pows[i].as_ptr().cast()) };
    }
    for (n, group) in data.chunks_exact(128).enumerate() {
        if n > 0 {
            // Multiply, then carry along two interleaved chains (0-1-2-3
            // and 3-4-0-1): limbs < 2^26 but limbs 1 and 4, which stay
            // < 2^26 + 2^9.
            a = mul26(&a, &r8);
            for i in [0, 3, 1, 4, 2, 0, 3] {
                let c = _mm512_srli_epi64::<26>(a[i]);
                let c = if i == 4 {
                    _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c))
                } else {
                    c
                };
                a[i] = _mm512_and_si512(a[i], m26);
                a[(i + 1) % 5] = _mm512_add_epi64(a[(i + 1) % 5], c);
            }
        }
        // SAFETY: AVX-512F is this function's target feature; `group` is
        // exactly 128 bytes, two unaligned 64-byte loads.
        let (q0, q1) = unsafe {
            let p = group.as_ptr() as *const __m512i;
            (_mm512_loadu_si512(p), _mm512_loadu_si512(p.add(1)))
        };
        let lo = _mm512_permutex2var_epi64(q0, lo_idx, q1);
        let hi = _mm512_permutex2var_epi64(q0, hi_idx, q1);
        let mid = _mm512_or_si512(_mm512_srli_epi64::<52>(lo), _mm512_slli_epi64::<12>(hi));
        let m = [
            _mm512_and_si512(lo, m26),
            _mm512_and_si512(_mm512_srli_epi64::<26>(lo), m26),
            _mm512_and_si512(mid, m26),
            _mm512_and_si512(_mm512_srli_epi64::<14>(hi), m26),
            _mm512_or_si512(_mm512_srli_epi64::<40>(hi), hibit),
        ];
        for (ai, mi) in a.iter_mut().zip(m) {
            *ai = _mm512_add_epi64(*ai, mi);
        }
    }
    let mut out = [0u64; 5];
    for (o, d) in out.iter_mut().zip(mul26(&a, &fold)) {
        *o = _mm512_reduce_add_epi64(d) as u64;
    }
    out
}

/// One field element per lane: `[i]` holds limb `i` of every lane's
/// element, radix 2^51 as in `x25519`.
type Fe8 = [__m512i; 5];

/// Safe front door for the X25519 lanes: lane `j` runs the Montgomery
/// ladder of the clamped scalar `scalars[j]` on the u-coordinate whose
/// radix-2^51 limbs are `u[j]` (each `< 2^51`, as `x25519`'s `from_bytes`
/// leaves them). Returns each lane's `x2 / z2` as limbs `< 2^51 + 2^15`,
/// not yet encoded.
pub(crate) fn ladder_lanes(
    scalars: &[[u8; 32]; LANES],
    u: &[[u64; 5]; LANES],
) -> [[u64; 5]; LANES] {
    assert!(avx512ifma());
    #[cfg(test)]
    {
        LADDER_RUNS.with(|n| n.set(n.get() + 1));
    }
    // SAFETY: AVX-512F and AVX-512 IFMA presence was just verified at
    // runtime.
    unsafe { ladder_lanes_ifma(scalars, u) }
}

/// Word `w` of every lane: `v[w]` lane `j` is `rows[j][w]`.
#[target_feature(enable = "avx512f")]
fn transpose_in<const W: usize>(rows: &[[u64; W]; LANES]) -> [__m512i; W] {
    let mut v = [_mm512_setzero_si512(); W];
    for (w, v) in v.iter_mut().enumerate() {
        let col: [u64; LANES] = core::array::from_fn(|j| rows[j][w]);
        // SAFETY: AVX-512F is this function's target feature; `col` is
        // exactly eight `u64`, one unaligned 64-byte load.
        *v = unsafe { _mm512_loadu_si512(col.as_ptr().cast()) };
    }
    v
}

/// Parallel carry: every limb keeps its low 51 bits and passes the rest
/// up; limb 4's carry re-enters limb 0 times 19. The carries are below
/// 2^13, so that product is exact in the low half of one IFMA.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn carry8(z: Fe8) -> Fe8 {
    let m51 = _mm512_set1_epi64(MASK51 as i64);
    let mut out = [_mm512_setzero_si512(); 5];
    out[0] = _mm512_madd52lo_epu64(
        _mm512_and_si512(z[0], m51),
        _mm512_srli_epi64::<51>(z[4]),
        _mm512_set1_epi64(19),
    );
    for i in 1..5 {
        out[i] = _mm512_add_epi64(
            _mm512_and_si512(z[i], m51),
            _mm512_srli_epi64::<51>(z[i - 1]),
        );
    }
    out
}

/// Assembles a product from its IFMA halves and reduces it: `lo[k]` sums
/// the low 52 bits of the products at weight `2^(51k)`, `hi[k]` their
/// high halves, which sit at `2^(51k + 52)`, i.e. twice column `k + 1`.
/// Columns 5..10 wrap past 2^255 times 19.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce8(lo: [__m512i; 9], hi: [__m512i; 9]) -> Fe8 {
    let mut col = [_mm512_setzero_si512(); 10];
    col[0] = lo[0];
    for k in 1..9 {
        col[k] = _mm512_add_epi64(lo[k], _mm512_slli_epi64::<1>(hi[k - 1]));
    }
    col[9] = _mm512_slli_epi64::<1>(hi[8]);
    let mut z = [_mm512_setzero_si512(); 5];
    for k in 0..5 {
        let w = col[k + 5];
        let w19 = _mm512_add_epi64(
            _mm512_add_epi64(w, _mm512_slli_epi64::<1>(w)),
            _mm512_slli_epi64::<4>(w),
        );
        z[k] = _mm512_add_epi64(col[k], w19);
    }
    carry8(z)
}

#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul8(a: &Fe8, b: &Fe8) -> Fe8 {
    let [mut lo, mut hi] = [[_mm512_setzero_si512(); 9]; 2];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], ai, bj);
            hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], ai, bj);
        }
    }
    reduce8(lo, hi)
}

/// `mul8(a, a)`'s columns with each cross product formed once and the
/// sums doubled before the squares join them.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn square8(a: &Fe8) -> Fe8 {
    let [mut lo, mut hi] = [[_mm512_setzero_si512(); 9]; 2];
    for i in 0..5 {
        for j in i + 1..5 {
            lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], a[j]);
            hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a[i], a[j]);
        }
    }
    for k in 1..8 {
        lo[k] = _mm512_slli_epi64::<1>(lo[k]);
        hi[k] = _mm512_slli_epi64::<1>(hi[k]);
    }
    for i in 0..5 {
        lo[2 * i] = _mm512_madd52lo_epu64(lo[2 * i], a[i], a[i]);
        hi[2 * i] = _mm512_madd52hi_epu64(hi[2 * i], a[i], a[i]);
    }
    reduce8(lo, hi)
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn square8_n(a: &Fe8, n: usize) -> Fe8 {
    let mut t = *a;
    for _ in 0..n {
        t = square8(&t);
    }
    t
}

/// `k * a` for `k < 2^52`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_small8(a: &Fe8, k: u64) -> Fe8 {
    let k = _mm512_set1_epi64(k as i64);
    let [mut lo, mut hi] = [[_mm512_setzero_si512(); 9]; 2];
    for (i, &ai) in a.iter().enumerate() {
        lo[i] = _mm512_madd52lo_epu64(lo[i], ai, k);
        hi[i] = _mm512_madd52hi_epu64(hi[i], ai, k);
    }
    reduce8(lo, hi)
}

#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn add8(a: &Fe8, b: &Fe8) -> Fe8 {
    let mut s = *a;
    for (s, &b) in s.iter_mut().zip(b) {
        *s = _mm512_add_epi64(*s, b);
    }
    carry8(s)
}

/// `a + 2p - b`, carried.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn sub8(a: &Fe8, b: &Fe8) -> Fe8 {
    let mut s = *a;
    for ((s, &b), two_p) in s.iter_mut().zip(b).zip(TWO_P) {
        *s = _mm512_sub_epi64(_mm512_add_epi64(*s, _mm512_set1_epi64(two_p as i64)), b);
    }
    carry8(s)
}

/// Swaps `a` and `b` in the lanes whose bit of `k` is set.
#[inline]
#[target_feature(enable = "avx512f")]
fn cswap8(k: __mmask8, a: &mut Fe8, b: &mut Fe8) {
    for (a, b) in a.iter_mut().zip(b.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = _mm512_mask_blend_epi64(k, x, y);
        *b = _mm512_mask_blend_epi64(k, y, x);
    }
}

/// `a^(p - 2)`: the scalar code's addition chain, in every lane.
#[target_feature(enable = "avx512f,avx512ifma")]
fn invert8(a: &Fe8) -> Fe8 {
    let z2 = square8(a);
    let z9 = mul8(a, &square8_n(&z2, 2));
    let z11 = mul8(&z2, &z9);
    let z_5_0 = mul8(&z9, &square8(&z11));
    let z_10_0 = mul8(&square8_n(&z_5_0, 5), &z_5_0);
    let z_20_0 = mul8(&square8_n(&z_10_0, 10), &z_10_0);
    let z_40_0 = mul8(&square8_n(&z_20_0, 20), &z_20_0);
    let z_50_0 = mul8(&square8_n(&z_40_0, 10), &z_10_0);
    let z_100_0 = mul8(&square8_n(&z_50_0, 50), &z_50_0);
    let z_200_0 = mul8(&square8_n(&z_100_0, 100), &z_100_0);
    let z_250_0 = mul8(&square8_n(&z_200_0, 50), &z_50_0);
    mul8(&square8_n(&z_250_0, 5), &z11)
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn ladder_lanes_ifma(scalars: &[[u8; 32]; LANES], u: &[[u64; 5]; LANES]) -> [[u64; 5]; LANES] {
    let words: [[u64; 4]; LANES] = core::array::from_fn(|j| {
        core::array::from_fn(|w| {
            u64::from_le_bytes(scalars[j][8 * w..8 * w + 8].try_into().expect("8 bytes"))
        })
    });
    let words = transpose_in(&words);
    let x1 = transpose_in(u);
    let zero = _mm512_setzero_si512();
    let one = [_mm512_set1_epi64(1), zero, zero, zero, zero];
    let (mut x2, mut z2, mut x3, mut z3) = (one, [zero; 5], x1, one);
    let mut swap: __mmask8 = 0;

    for t in (0..255).rev() {
        // Lane j's bit t, as bit j of a mask: the index is public, the
        // mask is secret and only ever selects.
        let bit = _mm512_test_epi64_mask(words[t / 64], _mm512_set1_epi64(1 << (t % 64)));
        swap ^= bit;
        cswap8(swap, &mut x2, &mut x3);
        cswap8(swap, &mut z2, &mut z3);
        swap = bit;

        // The scalar ladder's step (RFC 7748 §5), every input and output
        // below 2^51 + 2^15.
        let a = add8(&x2, &z2);
        let aa = square8(&a);
        let b = sub8(&x2, &z2);
        let bb = square8(&b);
        let e = sub8(&aa, &bb);
        let c = add8(&x3, &z3);
        let d = sub8(&x3, &z3);
        let da = mul8(&d, &a);
        let cb = mul8(&c, &b);
        x3 = square8(&add8(&da, &cb));
        z3 = mul8(&x1, &square8(&sub8(&da, &cb)));
        x2 = mul8(&aa, &bb);
        z2 = mul8(&e, &add8(&aa, &mul_small8(&e, 121_665)));
    }
    cswap8(swap, &mut x2, &mut x3);
    cswap8(swap, &mut z2, &mut z3);

    let r = mul8(&x2, &invert8(&z2));
    let mut out = [[0u64; 5]; LANES];
    for (i, limb) in r.iter().enumerate() {
        let mut col = [0u64; LANES];
        // SAFETY: AVX-512F is this function's target feature; `col` is
        // exactly eight `u64`, one unaligned 64-byte store.
        unsafe { _mm512_storeu_si512(col.as_mut_ptr().cast(), *limb) };
        for (o, v) in out.iter_mut().zip(col) {
            o[i] = v;
        }
    }
    out
}

/// Safe front door for the SHA-256 kernel: compresses every 64-byte block
/// of `blocks` (at least one) into `state`, in order, exactly as the
/// scalar `sha256::compress` would one block at a time.
pub(crate) fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(sha_ni() && blocks.len().is_multiple_of(64) && !blocks.is_empty());
    #[cfg(any(test, debug_assertions))]
    {
        SHA_BLOCKS.with(|n| n.set(n.get() + (blocks.len() / 64) as u64));
    }
    // SAFETY: SHA, SSSE3 and SSE4.1 presence was just verified at runtime.
    unsafe { sha256_blocks_ni(state, blocks) }
}

/// The next four schedule words `w[t..t + 4]` from the sixteen before
/// them, held four to a vector, oldest first.
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn sha256_schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// Rounds `4g..4g + 4` on schedule words `w`: one `sha256rnds2` runs two
/// rounds on the low two words of its `w + K` operand.
#[inline]
#[target_feature(enable = "sha")]
fn sha256_rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
    // SAFETY: `K` has 64 words and g < 16, so words 4g..4g + 4 are in
    // bounds: one unaligned 16-byte load.
    let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast()) };
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// SHA-NI kernel. The extensions keep the eight working variables as
/// `abef` (lanes 3..0 = a, b, e, f) and `cdgh`.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte swap within each 32-bit word: the message is big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: SSE2 unaligned loads of the 32-byte `state`, 16 bytes each.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr() as *const __m128i;
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef0, cdgh0) = (abef, cdgh);
        let p = block.as_ptr() as *const __m128i;
        // SAFETY: `block` is exactly 64 bytes, four unaligned 16-byte loads.
        let [mut w0, mut w1, mut w2, mut w3] =
            unsafe { [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap)) };
        sha256_rounds4(&mut abef, &mut cdgh, w0, 0);
        sha256_rounds4(&mut abef, &mut cdgh, w1, 1);
        sha256_rounds4(&mut abef, &mut cdgh, w2, 2);
        sha256_rounds4(&mut abef, &mut cdgh, w3, 3);
        // Each new group of four words replaces the oldest, in turn.
        for g in (4..16).step_by(4) {
            w0 = sha256_schedule(w0, w1, w2, w3);
            sha256_rounds4(&mut abef, &mut cdgh, w0, g);
            w1 = sha256_schedule(w1, w2, w3, w0);
            sha256_rounds4(&mut abef, &mut cdgh, w1, g + 1);
            w2 = sha256_schedule(w2, w3, w0, w1);
            sha256_rounds4(&mut abef, &mut cdgh, w2, g + 2);
            w3 = sha256_schedule(w3, w0, w1, w2);
            sha256_rounds4(&mut abef, &mut cdgh, w3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: SSE2 unaligned stores into the 32-byte `state`, 16 bytes each.
    unsafe {
        let p = state.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}
