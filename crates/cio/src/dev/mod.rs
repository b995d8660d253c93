//! Adapters that present each guest-side transport as a
//! [`cio_netstack::NetDevice`], so the same TCP/IP stack runs over every
//! boundary design — one file per transport, because each file is trusted
//! by exactly the designs that run it (`cio-study::tcb` charges them by
//! file).
//!
//! The accounting convention, applied uniformly so designs are comparable:
//! the unavoidable materialization of a frame as guest bytes is *not*
//! metered (every design does it); what IS metered is each design's
//! distinctive data movement — bounce copies in the hardened retrofit, the
//! early first-class copy or the page revocation in the cio-ring, AEAD
//! passes on the tunneled/DDA paths.

mod cioring;
mod hardened;
mod ide;
mod tunnel;
mod virtio;

pub use cioring::{CioRingDevice, RecvMode, SendMode};
pub use hardened::HardenedVirtioNetDevice;
pub use ide::IdeNetDevice;
pub use tunnel::TunnelDevice;
pub use virtio::{VirtqueueNetDevice, VqArena};
