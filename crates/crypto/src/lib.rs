//! From-scratch cryptographic primitives for the confidential I/O stack.
//!
//! The paper mandates a TLS layer above the L5 boundary ("a mandatory TLS
//! layer guarantees data integrity and confidentiality", §3.2) and an
//! IDE-encrypted link for direct device assignment (§3.4). Because the
//! reproduction is dependency-free by design, this crate implements the
//! needed primitives directly:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256.
//! * [`hkdf`] — RFC 5869 HKDF-SHA-256 (extract/expand).
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher.
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator.
//! * [`aead`] — RFC 8439 ChaCha20-Poly1305 AEAD.
//! * [`x25519`] — RFC 7748 X25519 Diffie-Hellman.
//! * [`ct`] — constant-time comparison helpers.
//!
//! Every module carries the relevant RFC/NIST test vectors in its unit
//! tests. The implementations favour clarity and branch-free handling of
//! secret data over raw speed, with three exceptions, because the
//! benchmarks are wall-clock and these kernels sit on every connection
//! and every sealed byte:
//!
//! * the ChaCha20 session keystream has explicit SSE2/AVX2 kernels on
//!   `x86_64`. The SIMD code is confined to one module, tested bit-for-bit
//!   against the scalar oracle, and is the only unsafe code in the crate
//!   (`#![deny(unsafe_code)]` with a scoped allow there);
//! * [`poly1305`] absorbs four blocks per carry over cached powers of `r`
//!   once a record is long enough to pay for them;
//! * [`x25519`] reduces lazily: additions and subtractions do not carry,
//!   squaring is a real squaring, and one carry chain follows each
//!   multiply.
//!
//! The last two are plain safe `u64`/`u128` arithmetic whose output is
//! byte-identical to the textbook one-block / carry-after-every-operation
//! forms; each module header gives the limb-bound argument, and the unit
//! tests check it mechanically (dev builds panic on overflow) against an
//! independent oracle.
//!
//! # Security note
//!
//! This is a research reproduction. The primitives pass the standard test
//! vectors and avoid secret-dependent branches/indices, but they have not
//! been audited or hardened against microarchitectural leakage and must not
//! be used to protect real data.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use sha256::Sha256;

/// Errors returned by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An authentication tag did not verify; the ciphertext was discarded.
    BadTag,
    /// A key, nonce, or output length was outside the algorithm's limits.
    BadLength,
    /// A Diffie-Hellman exchange produced the all-zero shared secret
    /// (low-order peer point), which RFC 7748 requires rejecting.
    ZeroSharedSecret,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::BadLength => write!(f, "invalid length for cryptographic operation"),
            CryptoError::ZeroSharedSecret => write!(f, "all-zero shared secret rejected"),
        }
    }
}

impl std::error::Error for CryptoError {}
