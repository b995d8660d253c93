//! Constant-time helpers.
//!
//! Tag verification and key comparison must not early-exit on the first
//! mismatching byte; these helpers accumulate differences branch-free.

/// Compares two byte slices in time dependent only on their lengths.
///
/// Returns `false` immediately if the lengths differ (lengths are public).
///
/// # Examples
///
/// ```
/// use cio_crypto::ct::ct_eq;
/// assert!(ct_eq(b"tag", b"tag"));
/// assert!(!ct_eq(b"tag", b"tab"));
/// assert!(!ct_eq(b"tag", b"tagg"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Constant-time conditional select: returns `a` if `choice` is 1, `b` if 0.
///
/// `choice` must be exactly 0 or 1; other values produce garbage (debug
/// assertion enforces the contract).
#[inline]
#[must_use]
pub fn ct_select_u64(choice: u64, a: u64, b: u64) -> u64 {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg(); // 0 -> 0x0000..., 1 -> 0xffff...
    (a & mask) | (b & !mask)
}

/// Constant-time swap of two u64 arrays when `choice` is 1.
#[inline]
pub fn ct_swap<const N: usize>(choice: u64, a: &mut [u64; N], b: &mut [u64; N]) {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg();
    for i in 0..N {
        let t = mask & (a[i] ^ b[i]);
        a[i] ^= t;
        b[i] ^= t;
    }
}

/// Zeroizes a byte buffer.
///
/// Best-effort hygiene for key material: the cTLS handshake clears its
/// ephemeral X25519 scalar and the raw Diffie-Hellman output with this
/// once the key schedule is derived. A plain store loop may be elided as
/// dead; a volatile write needs `unsafe`, which this crate confines to
/// the ChaCha20 SIMD kernels, so the buffer is instead passed through
/// `std::hint::black_box` after clearing, which defeats trivial
/// dead-store elimination without guaranteeing more.
pub fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = 0;
    }
    std::hint::black_box(&*buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn eq_differs_anywhere() {
        let a = [0u8; 32];
        for i in 0..32 {
            let mut b = a;
            b[i] = 1;
            assert!(!ct_eq(&a, &b), "difference at {i} missed");
        }
    }

    #[test]
    fn select() {
        assert_eq!(ct_select_u64(1, 7, 9), 7);
        assert_eq!(ct_select_u64(0, 7, 9), 9);
    }

    #[test]
    fn swap() {
        let mut a = [1u64, 2];
        let mut b = [3u64, 4];
        ct_swap(0, &mut a, &mut b);
        assert_eq!((a, b), ([1, 2], [3, 4]));
        ct_swap(1, &mut a, &mut b);
        assert_eq!((a, b), ([3, 4], [1, 2]));
    }

    #[test]
    fn zeroize_clears() {
        let mut k = [0xffu8; 16];
        zeroize(&mut k);
        assert_eq!(k, [0u8; 16]);
    }
}
