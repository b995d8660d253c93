//! The guest side of a world, and the L5 seam: what it costs and what it
//! reveals when the application calls the stack that serves its sockets.
//!
//! Every design runs the same [`Interface`] over some
//! [`NetDevice`] — that is P2, the transport. P1 is the [`Crossing`]:
//! what separates the application from that stack. A design is the pair,
//! and [`World::cross`] is the only code that charges for the second
//! half:
//!
//! | crossing | per call | payload | host learns |
//! |---|---|---|---|
//! | [`None`](Crossing::None) — stack in the app's domain | nothing | nothing | nothing |
//! | [`Compartment`](Crossing::Compartment) — dual boundary | entry + return switch | handed over in place (E9), or one copy under `l5_app_copy` / `CopyEarly` | nothing |
//! | [`Host`](Crossing::Host) — L5, the stack is host software | one world switch | one marshalling copy per non-empty payload, each way | one `sock.*` event |

use super::World;
use crate::CioError;
use cio_host::observe::{bits, Recorder};
use cio_netstack::stack::{Interface, SocketHandle};
use cio_netstack::{NetDevice, NetError};
use cio_sim::Stage;
use cio_tee::compartment::Gate;
use cio_tee::CompartmentId;

/// What separates the application from the stack serving its sockets.
pub(super) enum Crossing {
    /// Nothing: one confidential domain holds both.
    None,
    /// The intra-TEE compartment boundary of the dual design; the gate
    /// leads from the application's compartment into the I/O stack's.
    Compartment(Gate),
    /// The host/TEE boundary itself: the stack is host software, every
    /// socket call is a world switch, and the host tallies what it sees.
    Host(Recorder),
}

impl Crossing {
    /// The (app, iostack) compartments on either side, when the crossing
    /// is a compartment boundary.
    pub(super) fn compartments(&self) -> Option<(CompartmentId, CompartmentId)> {
        match self {
            Crossing::Compartment(gate) => Some((gate.from(), gate.to())),
            Crossing::None | Crossing::Host(_) => None,
        }
    }
}

/// The one stack of a world and the crossing in front of it.
pub(super) struct GuestStack {
    pub(super) iface: Interface<Box<dyn NetDevice>>,
    pub(super) crossing: Crossing,
}

/// The socket calls an application makes across the L5 seam.
#[derive(Debug, Clone, Copy)]
pub(super) enum Call {
    Connect,
    Send,
    Recv,
    /// Status polling (`established`).
    Poll,
    /// Closing a socket, and releasing its slot once drained — one kind to
    /// the host.
    Close,
}

impl Call {
    /// What a host serving this call learns beyond operation type, socket
    /// identity and timing: the tally kind and the extra metadata bits.
    fn seen_by_host(self) -> (&'static str, u32) {
        match self {
            Call::Connect => ("sock.connect", bits::ENDPOINT),
            Call::Send => ("sock.send", bits::LENGTH),
            Call::Recv => ("sock.recv", bits::LENGTH),
            Call::Poll => ("sock.poll", 0),
            Call::Close => ("sock.close", 0),
        }
    }
}

/// What a socket call hands back across the seam: how many payload bytes
/// the reply carries (the return leg of a marshalled call copies them).
pub(super) trait Reply {
    fn payload(&self) -> usize {
        0
    }
}
impl Reply for () {}
impl Reply for bool {}
impl Reply for SocketHandle {}
/// A receive replies with the bytes it appended.
impl Reply for usize {
    fn payload(&self) -> usize {
        *self
    }
}

impl World {
    /// Makes one socket call across the world's crossing: charges the
    /// clock and meter, tallies what the host observes, spans the exit,
    /// and runs `f` on the stack. `sent` is the payload the call carries
    /// toward the stack (0 for calls that carry none).
    pub(super) fn cross<T: Reply>(
        &mut self,
        call: Call,
        sent: usize,
        f: impl FnOnce(&mut Interface<Box<dyn NetDevice>>) -> Result<T, NetError>,
    ) -> Result<T, CioError> {
        let GuestStack { iface, crossing } = &mut self.guest;
        let copy = |bytes: usize| {
            self.clock.advance(self.opts.cost.copy(bytes));
            self.meter.copies(1);
            self.meter.bytes_copied(bytes as u64);
        };
        Ok(match crossing {
            Crossing::None => f(iface)?,
            Crossing::Compartment(gate) => {
                // Trusted-component-allocates zero-copy hand-over (E9)
                // needs both the zero-copy option and an in-place copy
                // policy; otherwise the app→stack payload copy is charged.
                if sent > 0 {
                    if self.opts.l5_app_copy || !self.opts.copy_policy.allows_in_place() {
                        copy(sent);
                    } else {
                        self.meter.bytes_zero_copy(sent as u64);
                    }
                }
                gate.call(|| f(iface))?
            }
            Crossing::Host(recorder) => {
                // The calls that carry a payload are the dataplane's exit
                // stage; the rest stay with whatever span encloses them.
                let _exit = matches!(call, Call::Send | Call::Recv)
                    .then(|| self.telemetry.span(0, Stage::HostExit));
                self.tee.exit_to_host();
                // Marshalling: payloads cross through an untrusted
                // exchange buffer, one copy per direction.
                if sent > 0 {
                    copy(sent);
                }
                let (kind, extra) = call.seen_by_host();
                recorder.record(kind, bits::OP_TYPE + bits::SOCKET_ID + bits::TIMING + extra);
                let reply = f(iface)?;
                let received = reply.payload();
                if received > 0 {
                    copy(received);
                }
                reply
            }
        })
    }
}
