//! The TEE model: confidential VMs, enclaves, intra-TEE compartments,
//! attestation, and the direct-device-assignment (TDISP-shaped) path.
//!
//! This crate substitutes for SEV-SNP/TDX/SGX hardware. What the paper
//! needs from the hardware is small and structural:
//!
//! * a *world switch* whose cost dwarfs an intra-TEE compartment switch
//!   (that asymmetry motivates the dual-boundary design of §3.1) —
//!   modelled by [`Tee::exit_to_host`] vs. [`Gate::call`];
//! * *intra-TEE memory isolation* so the I/O stack compartment and the
//!   application compartment distrust each other one-way — modelled by
//!   [`compartment`] page-ownership tables enforced in software;
//! * *attestation* so a remote peer (or a PCIe device, §3.4) can bind a
//!   secure channel to a measured workload — modelled by [`attest`] with
//!   HMAC-based platform keys.
//!
//! The *ternary trust model* itself is not a type here: it is the rule by
//! which `cio-study`'s TCB accounting counts each design's crossing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod compartment;
pub mod dda;

pub use attest::{Measurement, Quote};
pub use compartment::{CompartmentId, Gate};

use cio_mem::GuestMemory;
use cio_sim::{Clock, CostModel, Cycles, Meter};

/// Which TEE technology the confidential unit runs on.
///
/// The simulation distinguishes them only by transition cost: a
/// confidential VM pays a VM-exit round trip to reach the host, an enclave
/// pays an OCALL round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeeKind {
    /// SEV-SNP/TDX-style confidential virtual machine.
    ConfidentialVm,
    /// SGX-style process enclave.
    Enclave,
}

/// Errors raised by the TEE model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeeError {
    /// A compartment id did not name a live compartment.
    NoSuchCompartment,
    /// An access violated compartment page ownership.
    CompartmentViolation,
    /// A quote or attestation check failed.
    AttestationFailed,
    /// The DDA handshake failed (bad device measurement or MAC).
    DeviceRejected,
    /// Memory-model error during a TEE operation.
    Mem(cio_mem::MemError),
}

impl From<cio_mem::MemError> for TeeError {
    fn from(e: cio_mem::MemError) -> Self {
        TeeError::Mem(e)
    }
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::NoSuchCompartment => write!(f, "no such compartment"),
            TeeError::CompartmentViolation => write!(f, "compartment page-ownership violation"),
            TeeError::AttestationFailed => write!(f, "attestation verification failed"),
            TeeError::DeviceRejected => write!(f, "device attestation rejected"),
            TeeError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for TeeError {}

/// One trusted execution environment instance.
///
/// Owns the guest memory, the compartment table, and the transition
/// accounting. The host side of the simulation holds a [`cio_mem::HostView`]
/// of the same memory, never a `Tee` reference: the type system mirrors the
/// trust boundary.
pub struct Tee {
    kind: TeeKind,
    mem: GuestMemory,
    clock: Clock,
    cost: CostModel,
    meter: Meter,
    compartments: compartment::Table,
}

impl Tee {
    /// Creates a TEE with `pages` pages of private memory.
    pub fn new(kind: TeeKind, pages: usize, cost: CostModel) -> Self {
        let clock = Clock::new();
        let meter = Meter::new();
        let mem = GuestMemory::new(pages, clock.clone(), cost.clone(), meter.clone());
        Tee {
            kind,
            mem,
            clock,
            cost,
            meter,
            compartments: compartment::Table::new(),
        }
    }

    /// The TEE flavour.
    pub fn kind(&self) -> TeeKind {
        self.kind
    }

    /// The guest memory (share it with a host simulator via
    /// [`GuestMemory::host`]).
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The cost of one host transition round trip for this TEE kind.
    pub fn transition_cost(&self) -> Cycles {
        match self.kind {
            TeeKind::ConfidentialVm => self.cost.vm_exit_roundtrip,
            TeeKind::Enclave => self.cost.ocall_roundtrip,
        }
    }

    /// Performs a world switch to the host and back (hypercall/OCALL),
    /// charging the transition cost and metering it.
    pub fn exit_to_host(&self) {
        self.clock.advance(self.transition_cost());
        self.meter.host_transitions(1);
    }

    /// Access to the compartment table.
    pub fn compartments(&self) -> &compartment::Table {
        &self.compartments
    }

    /// Mutable access to the compartment table (setup phase).
    pub fn compartments_mut(&mut self) -> &mut compartment::Table {
        &mut self.compartments
    }

    /// Builds a call gate between two compartments of this TEE.
    ///
    /// # Errors
    ///
    /// [`TeeError::NoSuchCompartment`] if either id is dead.
    pub fn gate(&self, from: CompartmentId, to: CompartmentId) -> Result<Gate, TeeError> {
        self.compartments.check_exists(from)?;
        self.compartments.check_exists(to)?;
        Ok(Gate::new(
            from,
            to,
            self.clock.clone(),
            self.cost.compartment_switch,
            self.meter.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cvm_and_enclave_transition_costs_differ() {
        let cvm = Tee::new(TeeKind::ConfidentialVm, 4, CostModel::default());
        let encl = Tee::new(TeeKind::Enclave, 4, CostModel::default());
        assert!(encl.transition_cost() > cvm.transition_cost());
    }

    #[test]
    fn exit_charges_and_meters() {
        let tee = Tee::new(TeeKind::ConfidentialVm, 4, CostModel::default());
        let t0 = tee.clock().now();
        tee.exit_to_host();
        tee.exit_to_host();
        assert_eq!(tee.clock().now() - t0, tee.transition_cost() * 2);
        assert_eq!(tee.meter().snapshot().host_transitions, 2);
    }

    #[test]
    fn gate_requires_live_compartments() {
        let mut tee = Tee::new(TeeKind::ConfidentialVm, 4, CostModel::default());
        let a = tee.compartments_mut().create("app");
        let bogus = CompartmentId(99);
        assert!(matches!(
            tee.gate(a, bogus),
            Err(TeeError::NoSuchCompartment)
        ));
        let b = tee.compartments_mut().create("iostack");
        assert!(tee.gate(a, b).is_ok());
    }

    #[test]
    fn memory_is_private_by_default() {
        let tee = Tee::new(TeeKind::ConfidentialVm, 2, CostModel::default());
        let host = tee.memory().host();
        let mut b = [0u8; 1];
        assert!(host.read(cio_mem::GuestAddr(0), &mut b).is_err());
    }
}
