//! X25519 Diffie-Hellman (RFC 7748).
//!
//! Field arithmetic over GF(2^255 - 19) in radix-2^51 (five limbs in `u64`,
//! products accumulated in `u128`), with a constant-time Montgomery ladder.
//! Used by the cTLS handshake for ephemeral key agreement.
//!
//! # Lazy reduction and the bounds argument
//!
//! A ladder step is 5 multiplications, 4 squarings, one small multiple and
//! 8 additions/subtractions. Carrying after every one of them makes the
//! step a single serial chain; here only the multiplier carries, so the
//! step is bounded by how fast the core issues 64x64 multiplies rather
//! than by how long a carry chain takes to settle:
//!
//! * `Fe::add` is five limb additions and `Fe::sub` is `a + 2p - b`;
//!   neither carries.
//! * `Fe::mul`, `Fe::square` and `Fe::mul_small` accept *loose*
//!   limbs and return *carried* ones through one shared chain
//!   (`Fe::carry`). The `19 *` wrap of limbs above 2^255 is folded into
//!   a `u64` operand before widening, and squaring forms each cross
//!   product once (15 widening multiplies where `mul` needs 25).
//!
//! The two limb classes, and why nothing overflows:
//!
//! * **carried** — every limb `< 2^51 + 2^13`. `from_bytes` gives
//!   `< 2^51`; `carry` masks every limb to 51 bits and then adds one final
//!   carry `< 2^13` into limb 1.
//! * **loose** — every limb `< 2^54` (`LOOSE`, debug-asserted), what
//!   `mul`/`square`/`mul_small` accept. Then `19 * limb < 2^58.3` and
//!   `38 * limb < 2^59.3` fit a `u64`; a column is at most
//!   `a0*b0 + 19 * (4 products) < 77 * 2^108 < 2^114.3` plus a carry-in
//!   `< 2^63.3`, inside `u128`; the top column is `< 5 * 2^108 + 2^63.3`,
//!   its carry-out `< 2^59.4`, and `19 *` that, computed in `u64`, is
//!   `< 2^63.6`. That last figure is the tight one — 0.4 bits from `2^64`
//!   *at* the loose bound — so the ladder keeps clear of it: `sub` biases
//!   by `2p`, the least that works for a carried right-hand side, and no
//!   ladder intermediate exceeds `2^52.6` (written beside each line of
//!   the step), where the same product is `< 2^60.9`, three bits clear.
//!
//! Every term is a product or sum of non-negative limbs, so the all-limbs-
//! maximal input is the worst case for every column at once; the oracle
//! tests below run exactly that input (and chains of `sub` of tiny values,
//! whose limbs sit just under `2p`'s) in dev, where `u64`/`u128` overflow
//! panics, against a big-integer implementation that shares none of this.
//!
//! # Eight ladders per lane run (AVX-512 IFMA)
//!
//! A handshake's ladders are serial, but a batch of handshakes is not:
//! [`scalarmult_many`] runs eight independent ladders at once, one per
//! 64-bit lane (`simd::ladder_lanes`), each lane in the same radix 2^51,
//! with the swap a per-lane mask blend and the inversion the same chain
//! in every lane. On the 2-core AVX-512 box one run of eight costs
//! 65–68 µs where one scalar ladder costs 39–42 µs: 4.8× the throughput,
//! and already a win at two ladders (`LANES_MIN`).
//!
//! `vpmadd52{lo,hi}uq` multiply the low 52 bits of each operand and add
//! the low or high 52 bits of the 104-bit product to a 64-bit
//! accumulator, so **every multiplier input must be `< 2^52`**; a wider
//! limb is silently truncated, and intrinsics never panic on overflow,
//! so this argument is the check. One limb class serves all lane values:
//! **reduced**, every limb `< 2^51 + 2^15`.
//!
//! * Inputs: `from_bytes` gives `< 2^51`; 1 and 0 are reduced.
//! * Every operation ends in one *parallel* carry: each limb keeps its
//!   low 51 bits and adds the carry of the limb below, and limb 4's carry
//!   re-enters limb 0 times 19. Fed limbs `< 2^60`, the carries are
//!   `< 2^9` and `19 *` that `< 2^13.3`, so the result is reduced.
//! * `add` and `sub` (`a + 2p - b`; a reduced `b` is below `2p`'s
//!   smallest limb, `2^52 - 38`) carry their `< 2^53.01` sums. No lane
//!   value is ever an uncarried sum: with one bit of headroom, two
//!   reduced limbs can already reach 2^52.
//! * A product of reduced limbs is `< 2^102.01`: its low half `< 2^52`
//!   lands in column `i + j`, its high half `< 2^50.01` at weight
//!   `2^(51(i+j) + 52)`, i.e. twice column `i + j + 1`. The largest
//!   column, 4, is five low halves plus twice four high halves, `< 7.01 *
//!   2^52 < 2^54.9`; columns 5..9 fold in times 19, so a limb before the
//!   carry is `< 20 * 2^54.9 < 2^59.3`. Squaring has the same columns (cross
//!   products formed once, then doubled), and `mul_small` by `121 665`
//!   has five low and five high halves, far smaller.
//!
//! The lane result is reduced, so its value is below `2^255 + 2^220 <
//! 2p` and `to_bytes` encodes it canonically. The unit tests compare the
//! lanes against the scalar ladder and against a ladder over the
//! big-integer oracle, with the all-ones input (every limb `2^51 - 1`)
//! among them.

use crate::ct::{ct_eq, ct_swap, zeroize};
use crate::CryptoError;

/// X25519 public/private key and shared-secret length.
pub const KEY_LEN: usize = 32;

/// The X25519 base point (u = 9).
pub const BASEPOINT: [u8; KEY_LEN] = {
    let mut b = [0u8; KEY_LEN];
    b[0] = 9;
    b
};

pub(crate) const MASK51: u64 = (1u64 << 51) - 1;

/// Exclusive limb bound `mul`/`square`/`mul_small` accept (see the module
/// doc).
const LOOSE: u64 = 1 << 54;

/// `2p` in radix-2^51, the bias that keeps `sub` non-negative.
pub(crate) const TWO_P: [u64; 5] = [
    2 * 0x7ffffffffffed,
    2 * 0x7ffffffffffff,
    2 * 0x7ffffffffffff,
    2 * 0x7ffffffffffff,
    2 * 0x7ffffffffffff,
];

/// One 64x64 -> 128 multiply.
#[inline(always)]
fn m(x: u64, y: u64) -> u128 {
    u128::from(x) * u128::from(y)
}

/// Field element: 5 limbs in radix 2^51, little-endian, lazily reduced.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load =
            |i: usize| -> u64 { u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes")) };
        // Overlapping 64-bit loads, shifted into 51-bit limbs; top bit masked
        // per RFC 7748 (u-coordinates are reduced mod 2^255).
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Canonical little-endian encoding of a carried element, or of a
    /// reduced lane result (see the module doc).
    fn to_bytes(self) -> [u8; 32] {
        let mut t = self.0;
        // A carried element is < 2^255 + 2^218 < 2p (a lane result
        // < 2^255 + 2^220), so the quotient by p
        // is q = floor((t + 19) / 2^255), 0 or 1: run the carry chain of
        // t + 19 and keep only what falls out of the top.
        let mut q = (t[0] + 19) >> 51;
        for limb in &t[1..] {
            q = (limb + q) >> 51;
        }
        // t - q*p = t + 19q - q*2^255: add 19q, carry, and drop bit 255.
        t[0] += 19 * q;
        for i in 0..4 {
            t[i + 1] += t[i] >> 51;
            t[i] &= MASK51;
        }
        t[4] &= MASK51;

        let mut out = [0u8; 32];
        let write = |out: &mut [u8; 32], bit: usize, v: u64| {
            let byte = bit / 8;
            let shift = bit % 8;
            let v = (v as u128) << shift;
            for k in 0..8 {
                if byte + k < 32 {
                    out[byte + k] |= (v >> (8 * k)) as u8;
                }
            }
        };
        write(&mut out, 0, t[0]);
        write(&mut out, 51, t[1]);
        write(&mut out, 102, t[2]);
        write(&mut out, 153, t[3]);
        write(&mut out, 204, t[4]);
        out
    }

    fn is_loose(self) -> bool {
        self.0.iter().all(|&limb| limb < LOOSE)
    }

    /// Limb-wise sum, not carried: the bound of the result is the sum of
    /// the operands' bounds.
    #[inline(always)]
    fn add(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self + 2p - rhs`, not carried. `rhs` must be carried (its limbs
    /// must not exceed `2p`'s, the smallest of which is `2^52 - 38`); the
    /// result's limbs are below `self`'s bound plus `2^52`.
    #[inline(always)]
    fn sub(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + TWO_P[0] - b[0],
            a[1] + TWO_P[1] - b[1],
            a[2] + TWO_P[2] - b[2],
            a[3] + TWO_P[3] - b[3],
            a[4] + TWO_P[4] - b[4],
        ])
    }

    /// Product of two loose elements, carried.
    #[inline(always)]
    fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.is_loose() && rhs.is_loose());
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        // Limbs above 2^255 wrap with a factor 19, folded into the `u64`
        // operand so every product below is one 64x64 -> 128 multiply.
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);

        Fe::carry([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// Square of a loose element, carried: the same columns as
    /// `self.mul(self)` with each cross product formed once and doubled
    /// in its `u64` operand.
    #[inline(always)]
    fn square(self) -> Fe {
        debug_assert!(self.is_loose());
        let [a0, a1, a2, a3, a4] = self.0;
        let (a0_2, a1_2) = (2 * a0, 2 * a1);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        let (a3_38, a4_38) = (38 * a3, 38 * a4);

        Fe::carry([
            m(a0, a0) + m(a1, a4_38) + m(a2, a3_38),
            m(a0_2, a1) + m(a2, a4_38) + m(a3, a3_19),
            m(a0_2, a2) + m(a1, a1) + m(a3, a4_38),
            m(a0_2, a3) + m(a1_2, a2) + m(a4, a4_19),
            m(a0_2, a4) + m(a1_2, a3) + m(a2, a2),
        ])
    }

    /// `k * self` for a loose element and `k < 2^51`, carried.
    #[inline(always)]
    fn mul_small(self, k: u64) -> Fe {
        debug_assert!(self.is_loose() && k < 1 << 51);
        Fe::carry(self.0.map(|limb| m(limb, k)))
    }

    /// The one carry chain: five columns, each `< 2^115` (see the module
    /// doc), to a carried element.
    #[inline(always)]
    fn carry(c: [u128; 5]) -> Fe {
        let [c0, mut c1, mut c2, mut c3, mut c4] = c;
        c1 += c0 >> 51;
        c2 += c1 >> 51;
        c3 += c2 >> 51;
        c4 += c3 >> 51;
        // What leaves the top limb re-enters limb 0 with factor 19; that
        // sum is < 2^51 + 2^63.6, so one more carry (< 2^13) into limb 1
        // finishes the job.
        let l0 = (c0 as u64 & MASK51) + 19 * (c4 >> 51) as u64;
        Fe([
            l0 & MASK51,
            (c1 as u64 & MASK51) + (l0 >> 51),
            c2 as u64 & MASK51,
            c3 as u64 & MASK51,
            c4 as u64 & MASK51,
        ])
    }

    /// Computes self^(p-2) = 1/self via Fermat's little theorem.
    fn invert(self) -> Fe {
        // Addition chain for 2^255 - 21 (standard curve25519 chain).
        let z2 = self.square();
        let z8 = z2.square().square();
        let z9 = self.mul(z8);
        let z11 = z2.mul(z9);
        let z22 = z11.square();
        let z_5_0 = z9.mul(z22);
        let z_10_0 = z_5_0.square_n(5).mul(z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(z_100_0);
        let z_250_0 = z_200_0.square_n(50).mul(z_50_0);
        z_250_0.square_n(5).mul(z11)
    }

    /// `self^(2^n)`.
    fn square_n(self, n: usize) -> Fe {
        (0..n).fold(self, |t, _| t.square())
    }
}

/// Clamps a 32-byte scalar per RFC 7748.
fn clamp(scalar: &[u8; 32]) -> [u8; 32] {
    let mut s = *scalar;
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// Scalar multiplication: computes `scalar * point` on Curve25519.
///
/// This is the raw X25519 function; most callers want [`public_key`] or
/// [`shared_secret`].
pub fn scalarmult(scalar: &[u8; 32], point: &[u8; 32]) -> [u8; 32] {
    let s = clamp(scalar);
    let x1 = Fe::from_bytes(point);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let bit = u64::from((s[t / 8] >> (t % 8)) & 1);
        swap ^= bit;
        ct_swap(swap, &mut x2.0, &mut x3.0);
        ct_swap(swap, &mut z2.0, &mut z3.0);
        swap = bit;

        // Montgomery ladder step (RFC 7748 §5). x2, z2, x3, z3 enter
        // carried (< 2^51.01) and x1 is < 2^51; the bound of each
        // intermediate's limbs is on its line, "carried" where a
        // multiplier produced it.
        let a = x2.add(z2); // < 2^52.01
        let aa = a.square(); // carried
        let b = x2.sub(z2); // < 2^52.6
        let bb = b.square(); // carried
        let e = aa.sub(bb); // < 2^52.6
        let c = x3.add(z3); // < 2^52.01
        let d = x3.sub(z3); // < 2^52.6
        let da = d.mul(a); // carried
        let cb = c.mul(b); // carried
        x3 = da.add(cb).square(); // (< 2^52.01)^2, carried
        z3 = x1.mul(da.sub(cb).square()); // (< 2^52.6)^2, carried
        x2 = aa.mul(bb); // carried
        z2 = e.mul(aa.add(e.mul_small(121_665))); // < 2^52.6 times < 2^52.01, carried
    }
    ct_swap(swap, &mut x2.0, &mut x3.0);
    ct_swap(swap, &mut z2.0, &mut z3.0);

    x2.mul(z2.invert()).to_bytes()
}

/// Ladders per lane run: one per 64-bit lane of a `__m512i`.
pub(crate) const LANES: usize = 8;

/// Shortest group of a run that goes to the lanes. One eight-lane run
/// costs what about two scalar ladders do (see the module doc), so a
/// group of two already breaks even; a lone ladder stays scalar.
const LANES_MIN: usize = 2;

/// `out[k] = scalarmult(&scalars[k], &points[k])` for every `k`, byte for
/// byte. On AVX-512 IFMA hosts the run goes to the lanes eight at a time,
/// and a group shorter than `LANES_MIN` (a run of one, or a lone
/// trailing ladder) takes the scalar ladder, as does every group on any
/// other CPU.
///
/// # Panics
///
/// If the three slices differ in length.
pub fn scalarmult_many(scalars: &[[u8; 32]], points: &[[u8; 32]], out: &mut [[u8; 32]]) {
    assert!(
        scalars.len() == points.len() && points.len() == out.len(),
        "one point and one output per scalar"
    );
    let lanes = crate::avx512ifma();
    let groups = scalars.chunks(LANES).zip(points.chunks(LANES));
    for ((s, p), o) in groups.zip(out.chunks_mut(LANES)) {
        if lanes && s.len() >= LANES_MIN {
            scalarmult_lanes(s, p, o);
        } else {
            for ((s, p), o) in s.iter().zip(p).zip(o.iter_mut()) {
                *o = scalarmult(s, p);
            }
        }
    }
}

/// One lane run of up to eight ladders; idle lanes compute on zeros and
/// are discarded.
fn scalarmult_lanes(scalars: &[[u8; 32]], points: &[[u8; 32]], out: &mut [[u8; 32]]) {
    let mut s = [[0u8; 32]; LANES];
    let mut u = [[0u64; 5]; LANES];
    for (j, (scalar, point)) in scalars.iter().zip(points).enumerate() {
        s[j] = clamp(scalar);
        u[j] = Fe::from_bytes(point).0;
    }
    let r = ladder_lanes(&s, &u);
    debug_assert!(r.iter().flatten().all(|&limb| limb < (1 << 51) + (1 << 15)));
    for lane in &mut s {
        zeroize(lane);
    }
    for (o, limbs) in out.iter_mut().zip(r) {
        *o = Fe(limbs).to_bytes();
    }
}

#[cfg(target_arch = "x86_64")]
use crate::simd::ladder_lanes;

/// Off `x86_64` there is no lane kernel, and `avx512ifma()` keeps
/// [`scalarmult_many`] from calling one.
#[cfg(not(target_arch = "x86_64"))]
fn ladder_lanes(_: &[[u8; 32]; LANES], _: &[[u64; 5]; LANES]) -> [[u64; 5]; LANES] {
    unreachable!("no lane kernel on this target")
}

/// The X25519 kernel [`scalarmult_many`] runs on this CPU: `avx512ifma`
/// (eight ladders per lane run) or `scalar`.
pub fn kernel_tier() -> &'static str {
    if crate::avx512ifma() {
        "avx512ifma"
    } else {
        "scalar"
    }
}

/// Derives the public key for a private scalar.
pub fn public_key(private: &[u8; 32]) -> [u8; 32] {
    scalarmult(private, &BASEPOINT)
}

/// Computes the shared secret between `our_private` and `their_public`.
///
/// # Errors
///
/// Returns [`CryptoError::ZeroSharedSecret`] if the result is all-zero
/// (the peer sent a low-order point), as required by RFC 7748 §6.1.
pub fn shared_secret(
    our_private: &[u8; 32],
    their_public: &[u8; 32],
) -> Result<[u8; 32], CryptoError> {
    check_shared(scalarmult(our_private, their_public))
}

/// RFC 7748 §6.1's check on a Diffie-Hellman output, for outputs of
/// [`scalarmult_many`]: the output itself, or
/// [`CryptoError::ZeroSharedSecret`] if it is all-zero.
///
/// # Errors
///
/// [`CryptoError::ZeroSharedSecret`] on the all-zero output.
pub fn check_shared(out: [u8; 32]) -> Result<[u8; 32], CryptoError> {
    // `out` is secret: compare without an early exit on its first
    // non-zero byte.
    if ct_eq(&out, &[0u8; KEY_LEN]) {
        return Err(CryptoError::ZeroSharedSecret);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exclusive limb bound of a carried element (see the module doc).
    const CARRIED: u64 = (1 << 51) + (1 << 13);

    fn unhex(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expected = unhex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(scalarmult(&scalar, &point), expected);
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expected = unhex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(scalarmult(&scalar, &point), expected);
    }

    // RFC 7748 §5.2 iterated test: 1 and 1 000 iterations.
    #[test]
    fn rfc7748_iterated() {
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        // 1 iteration.
        let r = scalarmult(&k, &u);
        u = k;
        k = r;
        assert_eq!(
            k,
            unhex("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079")
        );
        // 999 more.
        for _ in 0..999 {
            let r = scalarmult(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            k,
            unhex("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman test vector.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let alice_pub = public_key(&alice_priv);
        assert_eq!(
            alice_pub,
            unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        let bob_priv = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            bob_pub,
            unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let k1 = shared_secret(&alice_priv, &bob_pub).unwrap();
        let k2 = shared_secret(&bob_priv, &alice_pub).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(
            k1,
            unhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
        );
    }

    /// The seven small-order u-coordinates (orders 1, 2, 4, 8, 8 and the
    /// non-canonical encodings p - 1, p, p + 1 of the first three).
    fn small_order_points() -> [[u8; 32]; 7] {
        let near_p = |low: u8| {
            let mut u = [0xffu8; 32];
            u[0] = low;
            u[31] = 0x7f;
            u
        };
        [
            [0u8; 32],
            unhex("0100000000000000000000000000000000000000000000000000000000000000"),
            unhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            unhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
            near_p(0xec),
            near_p(0xed),
            near_p(0xee),
        ]
    }

    /// u = p + 9, a non-canonical encoding of the base point.
    fn p_plus_9() -> [u8; 32] {
        let mut u = [0xffu8; 32];
        u[0] = 0xf6;
        u[31] = 0x7f;
        u
    }

    /// Every small-order point must yield the all-zero output and be
    /// rejected.
    #[test]
    fn zero_point_rejected() {
        let priv_key = [0x11u8; 32];
        for point in small_order_points() {
            assert_eq!(scalarmult(&priv_key, &point), [0u8; 32], "{point:02x?}");
            assert_eq!(
                shared_secret(&priv_key, &point),
                Err(CryptoError::ZeroSharedSecret),
                "{point:02x?}"
            );
        }
    }

    /// RFC 7748 §5: non-canonical u-coordinates are accepted and mean
    /// their value mod p, so u = p + 9 is the base point.
    #[test]
    fn non_canonical_point_is_reduced() {
        let priv_key = [0x11u8; 32];
        assert_eq!(scalarmult(&priv_key, &p_plus_9()), public_key(&priv_key));
    }

    #[test]
    fn clamping_is_applied() {
        // Two scalars differing only in clamped bits yield the same key.
        let mut a = [0x42u8; 32];
        let mut b = a;
        a[0] = 0b0000_0111; // low 3 bits set -> cleared by clamp
        b[0] = 0b0000_0000;
        a[31] = 0b1100_0000;
        b[31] = 0b0100_0000;
        assert_eq!(public_key(&a), public_key(&b));
    }

    #[test]
    fn field_roundtrip() {
        // from_bytes . to_bytes is the identity for reduced values.
        for i in 0..32 {
            let mut bytes = [0u8; 32];
            bytes[i] = 0xab;
            bytes[31] &= 0x7f;
            let fe = Fe::from_bytes(&bytes);
            assert_eq!(fe.to_bytes(), bytes, "byte index {i}");
        }
    }

    /// Test-only oracle for GF(2^255 - 19): 512-bit integers in 32-bit
    /// digits, schoolbook multiplication and reduction by binary long
    /// division. It shares no radix, fold or lazy carry with `Fe`.
    mod oracle {
        pub type Big = [u32; 16];

        pub fn small(v: u64) -> Big {
            let mut x = [0u32; 16];
            x[0] = v as u32;
            x[1] = (v >> 32) as u32;
            x
        }

        pub fn p() -> Big {
            let mut p = [0u32; 16];
            p[..8].fill(u32::MAX);
            p[0] -= 18;
            p[7] >>= 1;
            p
        }

        pub fn shl(x: &Big, bits: usize) -> Big {
            let (digits, bits) = (bits / 32, bits % 32);
            let mut out = [0u32; 16];
            for i in digits..16 {
                let lo = u64::from(x[i - digits]) << bits;
                let carried = if i > digits {
                    u64::from(x[i - digits - 1]) << bits >> 32
                } else {
                    0
                };
                out[i] = (lo | carried) as u32;
            }
            out
        }

        pub fn add(a: &Big, b: &Big) -> Big {
            let mut out = [0u32; 16];
            let mut carry = 0u64;
            for i in 0..16 {
                let v = u64::from(a[i]) + u64::from(b[i]) + carry;
                out[i] = v as u32;
                carry = v >> 32;
            }
            assert_eq!(carry, 0, "oracle overflow");
            out
        }

        /// `a - b`, or `None` if `a < b`.
        fn checked_sub(a: &Big, b: &Big) -> Option<Big> {
            let mut out = [0u32; 16];
            let mut borrow = 0i64;
            for i in 0..16 {
                let v = i64::from(a[i]) - i64::from(b[i]) - borrow;
                out[i] = v as u32;
                borrow = i64::from(v < 0);
            }
            (borrow == 0).then_some(out)
        }

        /// `x mod p` by shift-and-subtract long division.
        pub fn rem_p(x: &Big) -> Big {
            let mut x = *x;
            for k in (0..=257).rev() {
                if let Some(d) = checked_sub(&x, &shl(&p(), k)) {
                    x = d;
                }
            }
            x
        }

        /// `a * b mod p` for reduced operands.
        pub fn mul(a: &Big, b: &Big) -> Big {
            let mut out = [0u32; 16];
            for i in 0..8 {
                let mut carry = 0u64;
                for j in 0..8 {
                    let v = u64::from(a[i]) * u64::from(b[j]) + u64::from(out[i + j]) + carry;
                    out[i + j] = v as u32;
                    carry = v >> 32;
                }
                out[i + 8] = carry as u32;
            }
            rem_p(&out)
        }

        /// `a - b mod p` for reduced operands.
        pub fn sub(a: &Big, b: &Big) -> Big {
            rem_p(&checked_sub(&add(a, &p()), b).expect("b is reduced"))
        }

        /// `a^(p-2) mod p` by square-and-multiply.
        pub fn invert(a: &Big) -> Big {
            let exponent = checked_sub(&p(), &small(2)).expect("p > 2");
            let mut acc = small(1);
            for bit in (0..255).rev() {
                acc = mul(&acc, &acc);
                if (exponent[bit / 32] >> (bit % 32)) & 1 == 1 {
                    acc = mul(&acc, a);
                }
            }
            acc
        }
    }

    /// The value of `fe` mod p, read limb by limb without any `Fe` code.
    fn value(fe: Fe) -> oracle::Big {
        let mut x = [0u32; 16];
        for (i, &limb) in fe.0.iter().enumerate() {
            x = oracle::add(&x, &oracle::shl(&oracle::small(limb), 51 * i));
        }
        oracle::rem_p(&x)
    }

    fn assert_limbs_below(fe: Fe, bound: u64, what: &str) {
        assert!(fe.0.iter().all(|&l| l < bound), "{what}: {:x?}", fe.0);
    }

    /// Checks every operation on one pair of loose operands (`b` also
    /// carried, as `sub` requires of its right-hand side) against the
    /// oracle, and that multiplier outputs really are carried.
    fn check_ops(a: Fe, b: Fe, what: &str) {
        assert_limbs_below(a, LOOSE, what);
        assert_limbs_below(b, CARRIED, what);
        let (va, vb) = (value(a), value(b));

        assert_eq!(
            value(a.add(b)),
            oracle::rem_p(&oracle::add(&va, &vb)),
            "{what}: add"
        );
        assert_eq!(value(a.sub(b)), oracle::sub(&va, &vb), "{what}: sub");
        let products = [
            ("mul", a.mul(b), oracle::mul(&va, &vb)),
            ("mul, swapped", b.mul(a), oracle::mul(&va, &vb)),
            ("mul by itself", a.mul(a), oracle::mul(&va, &va)),
            ("square", a.square(), oracle::mul(&va, &va)),
            (
                "mul_small",
                a.mul_small(121_665),
                oracle::mul(&va, &oracle::small(121_665)),
            ),
        ];
        for (op, got, want) in products {
            assert_limbs_below(got, CARRIED, what);
            assert_eq!(value(got), want, "{what}: {op}");
            // A carried element encodes canonically: the bytes are the
            // reduced value itself, not merely congruent to it.
            let mut encoded = [0u32; 16];
            for (digit, chunk) in encoded.iter_mut().zip(got.to_bytes().chunks_exact(4)) {
                *digit = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            assert_eq!(encoded, want, "{what}: {op} to_bytes");
        }
    }

    /// Near-maximal limbs. Every column of `mul`/`square` is a sum of
    /// products of non-negative limbs, so all limbs at the loose bound is
    /// the worst case for every column, carry and `19 *` fold at once: in
    /// dev, where overflow panics, this test is the mechanical check of
    /// the module doc's bounds argument.
    #[test]
    fn field_ops_match_oracle_at_the_limb_bounds() {
        let loose_max = Fe([LOOSE - 1; 5]);
        let carried_max = Fe([CARRIED - 1; 5]);
        check_ops(loose_max, carried_max, "all limbs maximal");
        check_ops(carried_max, Fe::ZERO, "carried max, zero");
        check_ops(Fe(TWO_P), Fe::ONE, "2p");
        let k = (1 << 51) - 1;
        assert_eq!(
            value(loose_max.mul_small(k)),
            oracle::mul(&value(loose_max), &oracle::small(k)),
            "mul_small at its largest k"
        );

        // Chains of `sub` of tiny values: each link adds 2p limb-wise, so
        // three links from a carried element is the deepest chain that
        // stays loose, and its limbs sit just under 2^51 + 3 * 2^52.
        let tiny = [Fe::ZERO, Fe::ONE, Fe([0, 0, 0, 0, 1]), Fe([19, 0, 0, 0, 0])];
        for start in [Fe::ZERO, Fe::ONE, carried_max] {
            for t in tiny {
                let mut x = start;
                for depth in 1..=3 {
                    x = x.sub(t);
                    check_ops(x, t, &format!("sub chain depth {depth}"));
                    check_ops(x, carried_max, &format!("sub chain depth {depth} by max"));
                }
            }
        }

        // The largest operands the ladder itself can form: a difference
        // of carried elements squared, and multiplied by a sum of two.
        let diff = carried_max.sub(Fe::ZERO);
        let sum = carried_max.add(carried_max);
        assert_eq!(
            value(diff.mul(sum)),
            oracle::mul(&value(diff), &value(sum)),
            "ladder-shaped product"
        );
    }

    #[test]
    fn field_ops_match_oracle_on_random_limbs() {
        let mut rng = cio_sim::SimRng::seed_from(0x25519);
        for case in 0..200 {
            let a = Fe(core::array::from_fn(|_| rng.next_below(LOOSE)));
            let b = Fe(core::array::from_fn(|_| rng.next_below(CARRIED)));
            check_ops(a, b, &format!("random case {case}"));
        }
    }

    #[test]
    fn invert_matches_oracle() {
        let mut rng = cio_sim::SimRng::seed_from(0x1271);
        let mut inputs = vec![
            Fe::ONE,
            Fe([CARRIED - 1; 5]),
            Fe([LOOSE - 1; 5]),
            Fe(TWO_P),
            Fe::ZERO.sub(Fe::ONE),
        ];
        inputs.extend((0..4).map(|_| Fe(core::array::from_fn(|_| rng.next_below(LOOSE)))));
        for x in inputs {
            let inv = x.invert();
            assert_limbs_below(inv, CARRIED, "invert");
            assert_eq!(value(inv), oracle::invert(&value(x)), "{:x?}", x.0);
        }
    }

    #[test]
    fn inversion() {
        let mut x = [7u8; 32];
        x[31] &= 0x7f;
        let fe = Fe::from_bytes(&x);
        let inv = fe.invert();
        let one = fe.mul(inv).to_bytes();
        let mut expected = [0u8; 32];
        expected[0] = 1;
        assert_eq!(one, expected);
    }

    /// Eight-lane runs this thread has served (0 off `x86_64`).
    fn ladder_runs() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            crate::simd::LADDER_RUNS.with(|n| n.get())
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            0
        }
    }

    fn random_keys(rng: &mut cio_sim::SimRng, n: usize) -> Vec<[u8; 32]> {
        (0..n)
            .map(|_| {
                let mut k = [0u8; 32];
                rng.fill_bytes(&mut k);
                k
            })
            .collect()
    }

    /// Runs `scalarmult_many` and checks every slot against `scalarmult`.
    /// Where the CPU has AVX-512 IFMA, every group of eight, and a
    /// trailing group of two or more, must have gone to the lanes.
    fn check_many(scalars: &[[u8; 32]], points: &[[u8; 32]], what: &str) -> Vec<[u8; 32]> {
        let mut out = vec![[0xa5u8; 32]; scalars.len()];
        let before = ladder_runs();
        scalarmult_many(scalars, points, &mut out);
        let n = scalars.len();
        let groups = n / 8 + usize::from(n % 8 >= 2);
        let lane_runs = if crate::avx512ifma() { groups } else { 0 };
        assert_eq!(
            ladder_runs() - before,
            lane_runs as u64,
            "{what}: lane runs"
        );
        for (k, ((s, p), o)) in scalars.iter().zip(points).zip(&out).enumerate() {
            assert_eq!(*o, scalarmult(s, p), "{what}: slot {k}");
        }
        out
    }

    /// RFC 7748 §5.2 and §6.1 as `(scalar, point, output)`, placed in
    /// every position of a full lane run among random batchmates.
    #[test]
    fn lanes_match_rfc7748_vectors_in_every_position() {
        let alice = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
        let bob_pub = unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
        let shared = unhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        let vectors = [
            (
                unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
                unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
                unhex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
            ),
            (
                unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
                unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
                unhex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
            ),
            (
                BASEPOINT,
                BASEPOINT,
                unhex("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"),
            ),
            (alice, BASEPOINT, alice_pub),
            (bob, BASEPOINT, bob_pub),
            (alice, bob_pub, shared),
            (bob, alice_pub, shared),
        ];
        let mut rng = cio_sim::SimRng::seed_from(0x7748);
        for (scalar, point, expected) in vectors {
            for lane in 0..LANES {
                let mut scalars = random_keys(&mut rng, LANES);
                let mut points = random_keys(&mut rng, LANES);
                scalars[lane] = scalar;
                points[lane] = point;
                let out = check_many(&scalars, &points, &format!("lane {lane}"));
                assert_eq!(out[lane], expected, "lane {lane}");
            }
        }
    }

    #[test]
    fn lanes_match_scalar_on_random_pairs() {
        let mut rng = cio_sim::SimRng::seed_from(0x8_1ADE);
        for run in 0..200 {
            let scalars = random_keys(&mut rng, LANES);
            let points = random_keys(&mut rng, LANES);
            check_many(&scalars, &points, &format!("run {run}"));
        }
    }

    /// The seven small-order points among nine valid ones in a run of
    /// sixteen: exactly their slots come out zero and fail the check.
    #[test]
    fn lanes_zero_exactly_the_small_order_slots() {
        let mut rng = cio_sim::SimRng::seed_from(0x5_0DE);
        let scalars = random_keys(&mut rng, 16);
        let mut points = random_keys(&mut rng, 16);
        let bad = [1, 2, 5, 8, 11, 14, 15];
        for (&slot, point) in bad.iter().zip(small_order_points()) {
            points[slot] = point;
        }
        let out = check_many(&scalars, &points, "small order");
        for (k, o) in out.into_iter().enumerate() {
            if bad.contains(&k) {
                assert_eq!(
                    check_shared(o),
                    Err(CryptoError::ZeroSharedSecret),
                    "slot {k}"
                );
            } else {
                assert!(check_shared(o).is_ok(), "slot {k}");
            }
        }
    }

    /// Non-canonical and extreme inputs: u = p + 9 (the base point),
    /// u = 2^255 - 1 (every limb `2^51 - 1` after `from_bytes`), and
    /// all-ones and all-zero scalars.
    #[test]
    fn lanes_handle_non_canonical_and_all_ones_inputs() {
        let ones = [0xffu8; 32];
        let scalars = [
            ones, [0x11; 32], ones, [0; 32], [0x11; 32], [0; 32], ones, [7; 32],
        ];
        let points = [
            ones,
            p_plus_9(),
            p_plus_9(),
            ones,
            BASEPOINT,
            p_plus_9(),
            BASEPOINT,
            ones,
        ];
        let out = check_many(&scalars, &points, "extremes");
        assert_eq!(out[1], public_key(&[0x11; 32]));
        assert_eq!(out[2], public_key(&ones));
    }

    /// Runs are cut into groups of eight; a lone ladder stays scalar
    /// (`check_many` counts the lane runs).
    #[test]
    fn run_lengths_split_into_lane_groups() {
        let mut rng = cio_sim::SimRng::seed_from(0x1_2_7_8);
        for n in [0, 1, 2, 7, 8, 9, 16, 17] {
            let scalars = random_keys(&mut rng, n);
            let points = random_keys(&mut rng, n);
            check_many(&scalars, &points, &format!("run of {n}"));
        }
    }

    /// RFC 7748's ladder over the oracle's arithmetic, sharing no field
    /// code with `Fe` or the lanes.
    fn oracle_scalarmult(scalar: &[u8; 32], point: &[u8; 32]) -> [u8; 32] {
        use oracle::{add, invert, mul, rem_p, small, sub};
        let s = clamp(scalar);
        let mut u = [0u32; 16];
        for (digit, chunk) in u.iter_mut().zip(point.chunks_exact(4)) {
            *digit = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        u[7] &= 0x7fff_ffff;
        let x1 = rem_p(&u);
        let (mut x2, mut z2, mut x3, mut z3) = (small(1), small(0), x1, small(1));
        let mut swap = 0;
        for t in (0..255).rev() {
            let bit = (s[t / 8] >> (t % 8)) & 1;
            if swap ^ bit == 1 {
                core::mem::swap(&mut x2, &mut x3);
                core::mem::swap(&mut z2, &mut z3);
            }
            swap = bit;
            let a = rem_p(&add(&x2, &z2));
            let aa = mul(&a, &a);
            let b = sub(&x2, &z2);
            let bb = mul(&b, &b);
            let e = sub(&aa, &bb);
            let c = rem_p(&add(&x3, &z3));
            let d = sub(&x3, &z3);
            let da = mul(&d, &a);
            let cb = mul(&c, &b);
            let sum = rem_p(&add(&da, &cb));
            let diff = sub(&da, &cb);
            x3 = mul(&sum, &sum);
            z3 = mul(&x1, &mul(&diff, &diff));
            x2 = mul(&aa, &bb);
            z2 = mul(&e, &rem_p(&add(&aa, &mul(&small(121_665), &e))));
        }
        if swap == 1 {
            core::mem::swap(&mut x2, &mut x3);
            core::mem::swap(&mut z2, &mut z3);
        }
        let r = mul(&x2, &invert(&z2));
        let mut out = [0u8; 32];
        for (chunk, digit) in out.chunks_exact_mut(4).zip(r) {
            chunk.copy_from_slice(&digit.to_le_bytes());
        }
        out
    }

    #[test]
    fn lanes_match_the_big_integer_ladder() {
        let mut rng = cio_sim::SimRng::seed_from(0x0_12AC);
        let mut scalars = random_keys(&mut rng, LANES);
        let mut points = random_keys(&mut rng, LANES);
        scalars[0] = [0xff; 32];
        points[0] = [0xff; 32];
        points[1] = p_plus_9();
        points[2] = BASEPOINT;
        let out = check_many(&scalars, &points, "oracle");
        for (k, ((s, p), o)) in scalars.iter().zip(&points).zip(out).enumerate() {
            assert_eq!(o, oracle_scalarmult(s, p), "slot {k}");
        }
    }
}
