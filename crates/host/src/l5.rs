//! The L5 (socket-level) host's own NIC: the Graphene/CCF-shaped
//! boundary.
//!
//! Here the entire network stack is *host software* (§2.4: "enclave
//! approaches that perform networking via the system call interface
//! operate at OSI layer 5"): the same `cio-netstack` interface every other
//! design runs in the TEE, over the host's fabric port. The guest issues
//! socket operations across the trust boundary; what each one costs and
//! what the host learns from it — operation type, socket identity,
//! endpoint, exact length, timing — is charged and tallied where the call
//! crosses (`cio::world`, the `Host` crossing). What is left on this side
//! is the wire: the L5 host sees socket calls *and* every frame.

use crate::fabric::FabricPort;
use crate::observe::{bits, Recorder};
use cio_netstack::{MacAddr, NetDevice, NetError};

/// A device wrapper recording every frame the host's own NIC moves.
pub struct ObservedPort {
    inner: FabricPort,
    recorder: Recorder,
}

impl ObservedPort {
    /// Wraps the host's fabric port, tallying its frames in `recorder`.
    pub fn new(port: FabricPort, recorder: Recorder) -> Self {
        ObservedPort {
            inner: port,
            recorder,
        }
    }
}

impl NetDevice for ObservedPort {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.recorder.record(
            "frame.tx",
            bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
        );
        self.inner.transmit(frame)
    }
    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        let got = self.inner.receive(frame);
        if got {
            self.recorder.record(
                "frame.rx",
                bits::FRAME_HEADERS + bits::LENGTH + bits::TIMING,
            );
        }
        got
    }
    fn mac(&self) -> MacAddr {
        self.inner.mac()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
}
