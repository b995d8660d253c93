//! Shared-memory transports between the confidential guest and the host.
//!
//! This crate implements the three transports the paper compares:
//!
//! * [`virtqueue`] — a from-scratch virtio-1.x split virtqueue with the
//!   full legacy surface the paper criticizes (§2.5): descriptor chains
//!   threaded through *shared* memory, a stateful feature-negotiation
//!   control plane, host-writable config space, and doorbell/interrupt
//!   notifications. The driver deliberately trusts host-controlled fields
//!   exactly where unhardened Linux drivers historically did, so the
//!   adversary harness can demonstrate each vulnerability class.
//! * [`netvsc`] — a NetVSC/VMBus-shaped transport (the paper's second
//!   studied driver family): host-written receive buffer + `(offset, len)`
//!   descriptors, in pre- and post-hardening flavours — its signature
//!   vulnerability is an information *leak* through unvalidated offsets,
//!   complementing virtio's state-corruption class.
//! * [`hardened`] — the Linux-style retrofit: the same protocol with
//!   validation on every host-read field, private mirrors of
//!   free-list state, a cached config snapshot, and SWIOTLB bounce
//!   buffering of every payload ("copies systematically even in cases
//!   where double fetch is impossible").
//! * [`cioring`] — the paper's from-scratch interface (§3.2): a stateless,
//!   zero-negotiation ring with power-of-two sizing, masked indices and
//!   offsets, copy-as-first-class data movement, polling by default, and
//!   payloads in a shared area beside the ring.
//!
//! All three move bytes through a [`cio_mem::GuestMemory`] so that the
//! host side manipulates them through a [`cio_mem::HostView`] — i.e. the
//! attack surface is real shared state, not a mock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cioring;
pub mod hardened;
pub mod netvsc;
pub mod virtqueue;

/// Errors raised by ring transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The ring is full (transmit) or a slot is unavailable.
    Full,
    /// Nothing to consume.
    Empty,
    /// A payload exceeds the transport's fixed capacity for one transfer.
    TooLarge,
    /// The host supplied a value that failed validation (hardened paths).
    HostViolation(Violation),
    /// Control-plane misuse: wrong negotiation step, bad feature subset.
    BadState,
    /// Underlying memory error.
    Mem(cio_mem::MemError),
    /// The transport is configured fatally wrong (the paper's "stateless
    /// interface" principle makes such errors fatal at construction).
    Fatal(&'static str),
}

impl From<cio_mem::MemError> for RingError {
    fn from(e: cio_mem::MemError) -> Self {
        RingError::Mem(e)
    }
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full"),
            RingError::Empty => write!(f, "ring empty"),
            RingError::TooLarge => write!(f, "payload exceeds transfer capacity"),
            RingError::HostViolation(v) => write!(f, "host violation detected: {v}"),
            RingError::BadState => write!(f, "control-plane state error"),
            RingError::Mem(e) => write!(f, "memory error: {e}"),
            RingError::Fatal(s) => write!(f, "fatal configuration error: {s}"),
        }
    }
}

impl std::error::Error for RingError {}

/// Classified host-interface violations (what a hardened boundary detects,
/// and what the oracle records when an unhardened boundary *misses* one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Used/completion id out of range or not in flight.
    BadCompletionId,
    /// Host-supplied length exceeds the buffer the guest provided.
    BadLength,
    /// Completion index moved backwards or beyond the in-flight window.
    BadIndex,
    /// A descriptor chain loops or exceeds the queue size.
    ChainLoop,
    /// Config space changed after it was fixed (double fetch).
    ConfigMutation,
    /// A notification arrived for work that does not exist.
    SpuriousNotification,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Violation::BadCompletionId => "bad completion id",
            Violation::BadLength => "bad length",
            Violation::BadIndex => "bad ring index",
            Violation::ChainLoop => "descriptor chain loop",
            Violation::ConfigMutation => "config mutated after negotiation",
            Violation::SpuriousNotification => "spurious notification",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format() {
        let e = RingError::HostViolation(Violation::BadCompletionId);
        assert!(e.to_string().contains("bad completion id"));
        assert!(RingError::Fatal("mtu not power of two")
            .to_string()
            .contains("mtu"));
    }
}
