//! The untrusted host: device backends, network fabric, adversary, and
//! observability recorder.
//!
//! Everything in this crate is, by the paper's trust model (§2.1),
//! *attacker-controlled*. It only ever touches guest state through a
//! [`cio_mem::HostView`], so the compiler enforces that the host cannot
//! reach private pages — the same property the RMP enforces on SEV-SNP.
//!
//! * [`fabric`] — a virtual-time network: ports, links with latency and
//!   deterministic loss, implementing [`cio_netstack::NetDevice`] so whole
//!   `cio-netstack` interfaces can run on either end (remote peers, the
//!   host's own stack for the L5 baseline).
//! * [`backend`] — paravirtual device models: a virtio-net backend over
//!   two split virtqueues and a cio-net backend over a cio-ring pair.
//! * [`l5`] — the Graphene/CCF-shaped design's NIC: the I/O stack runs
//!   *in the host* over an observed fabric port, and every guest socket
//!   call crosses the boundary (charged and tallied in `cio::world`).
//! * [`observe`] — records what the host can see (call types, sizes,
//!   timings), quantifying the paper's "observability" axis (Figure 5,
//!   experiment E11).
//! * [`adversary`] — scripted interface attacks (double fetches, forged
//!   completions, index storms) used by experiment E10.
//! * [`mq`] — [`MultiQueue`] / [`QueueLane`]: N independent cio-ring
//!   endpoints steered as one multi-queue device model, each lane with its
//!   own traffic meter.
//! * [`parallel`] — thread-per-queue execution: a [`CioNetBackend`]
//!   splits into a [`ParallelHost`], itself a [`Backend`], whose
//!   per-queue workers run the same servicing routine as the serial
//!   backend on their own OS threads while fabric I/O and the admission
//!   decision stay on the coordinator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod backend;
pub mod fabric;
pub mod l5;
pub mod mq;
pub mod observe;
pub mod parallel;
mod worker;

pub use backend::{Backend, CioNetBackend, NullBackend, VirtioNetBackend};
pub use fabric::{Fabric, FabricPort, LinkParams};
pub use mq::{MultiQueue, QueueLane};
pub use observe::Recorder;
pub use parallel::ParallelHost;

/// Errors raised by host components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostError {
    /// The backend hit a transport error.
    Ring(cio_vring::RingError),
    /// The backend hit a network error.
    Net(cio_netstack::NetError),
    /// Memory error (e.g. the guest revoked a page mid-operation).
    Mem(cio_mem::MemError),
    /// A fabric port id was invalid or unlinked.
    BadPort,
    /// The thread-per-queue host could not start a worker thread, or one
    /// died mid-round.
    Worker(&'static str),
}

impl From<cio_vring::RingError> for HostError {
    fn from(e: cio_vring::RingError) -> Self {
        HostError::Ring(e)
    }
}

impl From<cio_netstack::NetError> for HostError {
    fn from(e: cio_netstack::NetError) -> Self {
        HostError::Net(e)
    }
}

impl From<cio_mem::MemError> for HostError {
    fn from(e: cio_mem::MemError) -> Self {
        HostError::Mem(e)
    }
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Ring(e) => write!(f, "ring: {e}"),
            HostError::Net(e) => write!(f, "net: {e}"),
            HostError::Mem(e) => write!(f, "mem: {e}"),
            HostError::BadPort => write!(f, "bad fabric port"),
            HostError::Worker(s) => write!(f, "worker thread: {s}"),
        }
    }
}

impl std::error::Error for HostError {}
