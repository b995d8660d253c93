//! A from-scratch TCP/IP stack for the confidential I/O reproduction.
//!
//! Three distinct roles in the reproduction use this same stack, which is
//! exactly the point the paper makes about boundary placement (§2.4):
//!
//! * inside the **I/O compartment** of the dual-boundary design (the L2
//!   boundary carries raw Ethernet frames; this stack turns them into
//!   TCP flows behind the L5 boundary);
//! * inside the **confidential unit** of the ShieldBox/rkt-io-style
//!   baseline (large TCB: the whole stack sits next to the application);
//! * on the **host** for the Graphene/CCF-style L5 baseline (the stack is
//!   host software and the guest talks sockets across the boundary).
//!
//! The stack speaks exactly what the reproduction's workloads send:
//! Ethernet II framing, IPv4 (no fragmentation — MTU is enforced, as the
//! paper's fixed-MTU principle requires), and a TCP with the full
//! connection state machine, retransmission, out-of-order reassembly, and
//! flow control. Congestion control is a simple fixed window: the
//! experiments measure interface cost, not WAN fairness.
//!
//! Every other protocol is dropped at the demux, because every parser
//! here is reachable by whoever owns the fabric — in a confidential VM,
//! the host (§2.3, Figure 2). There is no ARP: an interface's neighbour
//! MAC is a static fact of its [`InterfaceConfig`], set when the world is
//! assembled, the way a confidential guest takes its gateway from launch
//! configuration rather than from frames the host sends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod rss;
pub mod stack;
pub mod tcp;
pub mod wire;

pub use device::{NetDevice, PairDevice};
pub use stack::{Interface, InterfaceConfig, SocketHandle};
pub use wire::{EtherType, Ipv4Addr, MacAddr};

/// Errors raised by the network stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// A frame or packet failed structural validation.
    Malformed,
    /// Checksum mismatch.
    BadChecksum,
    /// The device rejected a frame (e.g. over-MTU).
    DeviceFull,
    /// Payload exceeds the MTU and fragmentation is not implemented.
    TooLarge,
    /// A socket operation used a bad or closed handle.
    BadSocket,
    /// The connection is not in a state that allows the operation.
    BadState,
    /// No route to the destination (off our subnet).
    Unreachable,
    /// Connection reset by peer.
    Reset,
    /// All ephemeral ports or socket slots are in use.
    Exhausted,
    /// A segment rewrites bytes already received with different ones.
    Conflict,
    /// In-order bytes run past the window the receiver advertised.
    BeyondWindow,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetError::Malformed => "malformed packet",
            NetError::BadChecksum => "checksum mismatch",
            NetError::DeviceFull => "device queue full",
            NetError::TooLarge => "payload exceeds MTU",
            NetError::BadSocket => "bad socket handle",
            NetError::BadState => "operation invalid in this state",
            NetError::Unreachable => "destination unreachable",
            NetError::Reset => "connection reset",
            NetError::Exhausted => "resources exhausted",
            NetError::Conflict => "segment conflicts with bytes already received",
            NetError::BeyondWindow => "segment runs past the advertised window",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}
