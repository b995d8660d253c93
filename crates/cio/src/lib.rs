//! # cio — safe and fast confidential I/O
//!
//! This crate is the reproduction's implementation of the paper's
//! contribution: a confidential I/O framework built around two questions —
//! **P1**: *where* in the stack to place the host/TEE trust boundary, and
//! **P2**: *how* to design the interface at that level so it is safe by
//! construction (§2.3).
//!
//! The answer the paper proposes (§3) — and this crate's flagship
//! configuration — is the **dual boundary**: a hardened L2 interface
//! (the cio-ring) between the TEE and the host, and a lightweight one-way
//! L5 boundary between the I/O-stack compartment and the application
//! compartment inside the TEE, with a mandatory cTLS layer above it. The
//! result is the paper's ternary trust model: compromising the I/O stack
//! gains the host only observability, never application data.
//!
//! Every design the paper positions itself against is implemented as a
//! [`BoundaryKind`] with an identical application-facing API
//! ([`world::World`]), so the experiments compare like for like:
//!
//! | kind | boundary | stack location | transport |
//! |---|---|---|---|
//! | [`BoundaryKind::L5Host`] | L5 | host | socket hypercalls |
//! | [`BoundaryKind::L2VirtioUnhardened`] | L2 | TEE | virtio split queue, no hardening |
//! | [`BoundaryKind::L2VirtioHardened`] | L2 | TEE | virtio + checks + SWIOTLB |
//! | [`BoundaryKind::L2CioRing`] | L2 | TEE (one domain) | cio-ring |
//! | [`BoundaryKind::DualBoundary`] | L2 + intra-TEE L5 | TEE I/O compartment | cio-ring |
//! | [`BoundaryKind::Tunneled`] | L2-in-TLS | TEE | sealed blobs to a gateway |
//! | [`BoundaryKind::Dda`] | device | TEE | SPDM-attested, IDE-protected NIC |
//!
//! Supporting modules: [`dev`] adapts each transport to the netstack's
//! device trait; [`world`] builds complete simulated deployments;
//! [`attacks`] runs the E10 adversary suite; [`storage`] builds the §3.3
//! storage analogue; [`policy`] holds the copy/revocation decision logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod dev;
pub mod kv;
pub mod policy;
pub mod session;
pub mod storage;
pub mod world;

pub use session::{SessionError, SessionId, SessionScratch, SessionTable};
pub use world::{BoundaryKind, World, WorldBuilder, WorldOptions};

/// Recoverable conditions: retrying the same call later is expected to
/// succeed without any reconfiguration.
///
/// The §3.2 "errors are fatal" principle applies to *host-facing* faults —
/// a malformed descriptor or forged index tears the interface down rather
/// than entering a renegotiation dance. Backpressure inside the guest's own
/// stack is not a fault at all, so it gets its own non-fatal channel
/// instead of masquerading as one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transient {
    /// The send path is saturated; nothing was accepted. Drain (poll /
    /// step the world) and retry.
    WouldBlock,
    /// The operation made partial progress and should be retried later
    /// for the remainder. (`World::send` never returns it: a record TCP
    /// has buffered is accepted, not partial.)
    AgainLater,
}

impl std::fmt::Display for Transient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transient::WouldBlock => f.write_str("would block"),
            Transient::AgainLater => f.write_str("partial progress, retry later"),
        }
    }
}

/// Errors raised by the cio framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CioError {
    /// Transport-level failure.
    Ring(cio_vring::RingError),
    /// Network-stack failure.
    Net(cio_netstack::NetError),
    /// Memory-model failure.
    Mem(cio_mem::MemError),
    /// TEE/compartment failure.
    Tee(cio_tee::TeeError),
    /// Secure-channel failure.
    Ctls(cio_ctls::CtlsError),
    /// Storage failure.
    Block(cio_block::BlockError),
    /// Host-simulator failure.
    Host(cio_host::HostError),
    /// Session-handle failure: stale, forged, or not-yet-established
    /// handles are typed errors, never aliased state (see
    /// [`session::SessionId`]).
    Session(session::SessionError),
    /// The operation is not supported by this boundary configuration.
    Unsupported(&'static str),
    /// The workload did not make progress within its step budget.
    Timeout(&'static str),
    /// A fatal configuration error (stateless-interface principle: bad
    /// config never becomes a runtime error path).
    Fatal(&'static str),
    /// A recoverable condition — retry later; see [`Transient`].
    Transient(Transient),
}

impl CioError {
    /// Whether this error is recoverable by simply retrying later.
    ///
    /// Everything else is terminal for the operation (and, for host-facing
    /// faults, for the interface — §3.2).
    pub fn is_transient(&self) -> bool {
        matches!(self, CioError::Transient(_))
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CioError {
            fn from(e: $ty) -> Self {
                CioError::$variant(e)
            }
        }
    };
}

from_err!(Ring, cio_vring::RingError);
from_err!(Net, cio_netstack::NetError);
from_err!(Mem, cio_mem::MemError);
from_err!(Tee, cio_tee::TeeError);
from_err!(Ctls, cio_ctls::CtlsError);
from_err!(Block, cio_block::BlockError);
from_err!(Host, cio_host::HostError);
from_err!(Session, session::SessionError);

impl std::fmt::Display for CioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CioError::Ring(e) => write!(f, "ring: {e}"),
            CioError::Net(e) => write!(f, "net: {e}"),
            CioError::Mem(e) => write!(f, "mem: {e}"),
            CioError::Tee(e) => write!(f, "tee: {e}"),
            CioError::Ctls(e) => write!(f, "ctls: {e}"),
            CioError::Block(e) => write!(f, "block: {e}"),
            CioError::Host(e) => write!(f, "host: {e}"),
            CioError::Session(e) => write!(f, "session: {e}"),
            CioError::Unsupported(s) => write!(f, "unsupported by this boundary: {s}"),
            CioError::Timeout(s) => write!(f, "no progress: {s}"),
            CioError::Fatal(s) => write!(f, "fatal configuration error: {s}"),
            CioError::Transient(t) => write!(f, "transient: {t}"),
        }
    }
}

impl std::error::Error for CioError {}
