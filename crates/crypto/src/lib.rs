//! From-scratch cryptographic primitives for the confidential I/O stack.
//!
//! The paper mandates a TLS layer above the L5 boundary ("a mandatory TLS
//! layer guarantees data integrity and confidentiality", §3.2) and an
//! IDE-encrypted link for direct device assignment (§3.4). Because the
//! reproduction is dependency-free by design, this crate implements the
//! needed primitives directly:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (on the SHA extensions where the CPU
//!   has them).
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
//! secret data over raw speed, with six exceptions, because the
//! benchmarks are wall-clock and these kernels sit on every connection
//! and every sealed byte:
//!
//! * the ChaCha20 session keystream has explicit SSE2/SSSE3/AVX2/AVX-512
//!   kernels on `x86_64`, each selected at run time by CPU feature and
//!   input length;
//! * on AVX-512 hosts [`poly1305`] absorbs long records in eight
//!   radix-2^26 vector lanes;
//! * on AVX-512 IFMA hosts [`x25519::scalarmult_many`] runs a batch of
//!   handshakes' ladders eight at a time, one per radix-2^51 vector lane;
//! * on hosts with the x86 SHA extensions [`sha256`] compresses every
//!   whole block of an update in one SHA-NI kernel call, which puts the
//!   HKDF key schedule, the Finished MACs, quotes and rekeys on it.
//!   SHA-256 has no secret-dependent branch or index to lose, and the
//!   kernel is an instruction-level rendering of the same function, so
//!   the scalar compressor is a complete oracle: the tests compare the
//!   two on random states and blocks and at every padding boundary.
//!   These SIMD kernels are confined to one module, tested bit-for-bit
//!   against the scalar oracles, and are the only unsafe code in the
//!   crate (`#![deny(unsafe_code)]` with a scoped allow there);
//! * [`poly1305`]'s scalar path absorbs four blocks per carry over cached
//!   powers of `r` once a record is long enough to pay for them;
//! * [`x25519`] reduces lazily: additions and subtractions do not carry,
//!   squaring is a real squaring, and one carry chain follows each
//!   multiply.
//!
//! The last two are plain safe `u64`/`u128` arithmetic whose output is
//! byte-identical to the textbook one-block / carry-after-every-operation
//! forms; each module header gives the limb-bound argument (the lanes'
//! too), and the unit tests check it mechanically (dev builds panic on
//! overflow) against an independent oracle. Intrinsics do not panic on
//! overflow, so for the lanes the written argument is the check, and the
//! tests compare their bytes with the scalar code's.
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
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use sha256::Sha256;

/// Whether this CPU runs the AVX-512F kernels: the sixteen-block ChaCha20
/// run and the Poly1305 lanes. `is_x86_feature_detected!` caches the
/// CPUID probe, so this is a relaxed atomic load.
pub(crate) fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs the X25519 lanes (AVX-512F with the 52-bit
/// integer multiply-add of AVX-512 IFMA).
pub(crate) fn avx512ifma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512() && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs the SHA-256 kernel: the SHA extensions, with the
/// SSSE3 and SSE4.1 shuffles that feed them.
pub(crate) fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

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
