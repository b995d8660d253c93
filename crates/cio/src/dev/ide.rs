//! The attested, IDE-protected NIC of the DDA design.

use cio_netstack::{MacAddr, NetDevice, NetError};
use cio_tee::dda::IdeChannel;

/// The attested, IDE-protected NIC of the DDA path (§3.4).
///
/// The TEE end protects/unprotects every frame; the device end (inside
/// this struct — the host cannot see into the device) forwards to the
/// fabric. `tamper_after_attestation` models the paper's §3.4 caveat.
pub struct IdeNetDevice {
    tee_end: IdeChannel,
    dev_end: IdeChannel,
    port: cio_host::FabricPort,
    recorder: cio_host::Recorder,
    mac: MacAddr,
    mtu: usize,
    /// When set, the (attested!) device flips a bit in every forwarded
    /// frame — post-attestation compromise.
    pub tamper_after_attestation: bool,
}

impl IdeNetDevice {
    /// Builds the device from two ends of an attested IDE session.
    pub fn new(
        tee_end: IdeChannel,
        dev_end: IdeChannel,
        port: cio_host::FabricPort,
        recorder: cio_host::Recorder,
        mac: MacAddr,
        mtu: usize,
    ) -> Self {
        IdeNetDevice {
            tee_end,
            dev_end,
            port,
            recorder,
            mac,
            mtu,
            tamper_after_attestation: false,
        }
    }

    fn record_tlp(&self) {
        // The host sees only encrypted TLPs: size and timing, no headers.
        self.recorder.record(
            "tlp",
            cio_host::observe::bits::LENGTH + cio_host::observe::bits::TIMING,
        );
    }
}

impl NetDevice for IdeNetDevice {
    fn transmit(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.mtu + cio_netstack::wire::ETH_HDR_LEN {
            return Err(NetError::TooLarge);
        }
        let tlp = self.tee_end.protect(frame);
        self.record_tlp();
        // The device decrypts on its side of the link and puts the frame
        // on the wire.
        let mut inner = self
            .dev_end
            .unprotect(&tlp)
            .map_err(|_| NetError::Malformed)?;
        if self.tamper_after_attestation && !inner.is_empty() {
            let idx = inner.len() / 2;
            inner[idx] ^= 0x01;
        }
        self.port.transmit(&inner)
    }

    fn receive(&mut self, frame: &mut Vec<u8>) -> bool {
        if !self.port.receive(frame) {
            return false;
        }
        let tlp = self.dev_end.protect(frame);
        self.record_tlp();
        match self.tee_end.unprotect(&tlp) {
            Ok(inner) => *frame = inner,
            Err(_) => return false,
        }
        true
    }

    fn mac(&self) -> MacAddr {
        self.mac
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}
