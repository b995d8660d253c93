//! cTLS: a TLS-1.3-shaped secure channel with attestation binding.
//!
//! The paper's L5 design mandates a TLS layer that "guarantees data
//! integrity and confidentiality, notably against attempts to break TCP
//! guarantees (e.g., replay attacks, out of order packets)" (§3.2). This
//! crate provides that layer, built on `cio-crypto`:
//!
//! * **Handshake** ([`handshake`]) — X25519 ECDHE with an HKDF-SHA256 key
//!   schedule shaped like TLS 1.3 (transcript-bound traffic secrets,
//!   Finished MACs), plus **attestation binding**: the server embeds a
//!   `cio-tee` quote whose report data commits to its ephemeral public
//!   key, so the client knows the channel terminates inside the measured
//!   TEE — not merely at "someone with a certificate".
//! * **Record layer** ([`record`]) — ChaCha20-Poly1305 records with
//!   strictly sequential nonces: any replay, reorder, drop, truncation, or
//!   bit-flip performed by the untrusted transport (host-run TCP stack,
//!   compromised I/O compartment, hostile network) is detected as an
//!   AEAD/sequence failure.
//!
//! The implementation is sans-io: callers move the opaque byte blobs over
//! whatever transport the boundary configuration provides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handshake;
pub mod record;

pub use handshake::{ClientHandshake, ServerHandshake, ServerIdentity};
pub use record::{Channel, RecordScratch, RECORD_OVERHEAD, REKEY_INTERVAL};

use cio_sim::{Clock, CostModel, Meter, Stage, Telemetry};

/// Errors raised by cTLS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlsError {
    /// A handshake or record failed to parse.
    Malformed,
    /// Cryptographic failure (bad tag, zero shared secret).
    Crypto(cio_crypto::CryptoError),
    /// The peer's Finished MAC did not verify.
    BadFinished,
    /// The attestation quote failed verification.
    BadQuote(cio_tee::TeeError),
    /// A record arrived out of sequence (replay/reorder/drop detected).
    BadSequence,
}

impl From<cio_crypto::CryptoError> for CtlsError {
    fn from(e: cio_crypto::CryptoError) -> Self {
        CtlsError::Crypto(e)
    }
}

impl std::fmt::Display for CtlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlsError::Malformed => write!(f, "malformed cTLS message"),
            CtlsError::Crypto(e) => write!(f, "crypto failure: {e}"),
            CtlsError::BadFinished => write!(f, "finished MAC mismatch"),
            CtlsError::BadQuote(e) => write!(f, "attestation failure: {e}"),
            CtlsError::BadSequence => write!(f, "record out of sequence"),
        }
    }
}

impl std::error::Error for CtlsError {}

/// Optional simulation hooks: when present, AEAD work is charged to the
/// virtual clock and metered.
#[derive(Clone)]
pub struct SimHooks {
    /// The shared virtual clock.
    pub clock: Clock,
    /// The cost model.
    pub cost: CostModel,
    /// The shared meter.
    pub meter: Meter,
    /// Telemetry domain for cycle attribution (disabled handle = no-op).
    /// AEAD charges are booked to [`Stage::Crypto`] on whichever queue's
    /// span is open, so seal/open spans report pure framing self-time.
    pub telemetry: Telemetry,
}

impl SimHooks {
    /// Charges the AEAD work of a run of `records` records totalling
    /// `bytes` bytes ([`CostModel::aead_batch`]: a run of one costs
    /// exactly one serial AEAD). The charge sits above the kernel: it is
    /// what the modelled platform pays for the run, however the record
    /// layer executes it.
    pub(crate) fn charge_aead(&self, records: usize, bytes: usize) {
        let spent = self.cost.aead_batch(records, bytes);
        self.clock.advance(spent);
        self.meter.aead_ops(records as u64);
        self.meter.aead_bytes(bytes as u64);
        self.telemetry.attribute_here(Stage::Crypto, spent);
    }

    /// Charges `mults` X25519 scalar multiplications (handshake key
    /// generation and shared-secret derivation). The dominant cost of
    /// connection churn; [`ServerHandshake::respond_batch`] amortizes the
    /// server's ephemeral key generation across a batch to shave one mult
    /// per connection.
    pub(crate) fn charge_x25519(&self, mults: usize) {
        let spent = self.cost.x25519_mult * mults as u64;
        self.clock.advance(spent);
        self.meter.x25519_ops(mults as u64);
        self.telemetry.attribute_here(Stage::Crypto, spent);
    }
}
