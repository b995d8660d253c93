//! Secure endpoints: the remote confidential peer, the client-side stream
//! state machine, and the LightBox-style tunnel gateway.
//!
//! Application traffic in the experiments is end-to-end protected on every
//! boundary configuration (a confidential workload would never trust the
//! network): the peer terminates cTLS, verifies nothing about the client
//! beyond the protocol, and serves two services on fixed ports — echo
//! ([`ECHO_PORT`]) and a size-request RPC ([`RPC_PORT`]).

use crate::CioError;
use cio_ctls::handshake::{ServerHello, SERVER_HELLO_LEN};
use cio_ctls::{
    Channel, ClientHandshake, CtlsError, RecordScratch, ServerHandshake, ServerIdentity,
};
use cio_netstack::stack::{Interface, InterfaceConfig, SocketHandle};
use cio_netstack::{Ipv4Addr, NetDevice};
use cio_sim::{Clock, SimRng, Stage, Telemetry};
use cio_tee::attest::Measurement;
use cio_vring::cioring::{BatchPolicy, BufPool, MAX_BATCH};

/// Echo service port.
pub const ECHO_PORT: u16 = 7;
/// RPC (size-request) service port.
pub const RPC_PORT: u16 = 8080;
/// The peer's attested workload image.
pub const PEER_IMAGE: &[u8] = b"cio-secure-peer-v1";
/// The model's platform attestation key.
pub const PLATFORM_KEY: [u8; 32] = [0x42; 32];

/// The peer's measurement (what clients pin).
pub fn peer_measurement() -> Measurement {
    Measurement::of(PEER_IMAGE)
}

/// Largest `[len]` prefix a buffered record may carry. The prefix is
/// host-writable (the carrier is untrusted), so a larger one fails the
/// stream closed instead of buffering toward it.
const MAX_RECORD_BODY: usize = 1 << 22;

/// Gathers the run of complete `[len u32-le][body]` records buffered at
/// the head of `inbuf` — at most `outs.len()`, the batch policy's run
/// (`Serial`: one) — and opens it in place out of the buffer with one
/// record-layer pass. Returns how many records opened (plaintexts in
/// `outs[..n]`), the buffered bytes they span (for the caller to drain
/// once served), and the verdict on the first record that did not:
/// records before a failure are still delivered, records after it are
/// discarded, and the caller must drop the connection. `(0, 0, Ok)`
/// means no complete record is buffered yet.
///
/// The record layer's run primitive consumes a failed record's sequence
/// number; that is unobservable here because a failure ends the stream.
fn open_buffered_run(
    chan: &mut Channel,
    inbuf: &[u8],
    outs: &mut [RecordScratch],
) -> (usize, usize, Result<(), CtlsError>) {
    let mut recs: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
    let mut cnt = 0usize;
    let mut rest = inbuf;
    while cnt < outs.len() {
        let Some((head, body)) = rest.split_first_chunk::<4>() else {
            break;
        };
        let len = u32::from_le_bytes(*head) as usize;
        // An oversize prefix behind complete records is judged when it
        // reaches the head, after those records were served.
        if len > MAX_RECORD_BODY && cnt == 0 {
            return (0, 0, Err(CtlsError::Malformed));
        }
        if len > MAX_RECORD_BODY.min(body.len()) {
            break;
        }
        (recs[cnt], rest) = rest.split_at(4 + len);
        cnt += 1;
    }
    if cnt == 0 {
        return (0, 0, Ok(()));
    }
    let mut results: [Result<(), CtlsError>; MAX_BATCH] = [Ok(()); MAX_BATCH];
    chan.open_batch_in_slots(&recs[..cnt], &mut outs[..cnt], &mut results[..cnt]);
    let good = results[..cnt].iter().take_while(|r| r.is_ok()).count();
    let used = recs[..good].iter().map(|r| r.len()).sum();
    let verdict = results[..cnt].get(good).copied().unwrap_or(Ok(()));
    (good, used, verdict)
}

#[allow(clippy::large_enum_variant)] // few, long-lived per-connection states
enum PeerTls {
    Plain,
    AwaitHello,
    AwaitFinished(Box<ServerHandshake>),
    Open(Box<Channel>),
}

struct PeerConn {
    h: SocketHandle,
    port: u16,
    tls: PeerTls,
    inbuf: Vec<u8>,
}

/// The remote confidential peer: echo + RPC, plaintext or cTLS.
///
/// The record dataplane is allocation-free in steady state: records are
/// opened in place out of the connection's receive buffer into reusable
/// scratches, responses are sealed straight into the reusable send
/// buffer, and receive buffers of closed connections are recycled
/// through a small [`BufPool`].
pub struct SecurePeer<D: NetDevice> {
    iface: Interface<D>,
    tls: bool,
    rng: SimRng,
    conns: Vec<PeerConn>,
    pool: BufPool,
    txbuf: Vec<u8>,
    telemetry: Telemetry,
    /// Per-record scratches for the open pass, one per record of the
    /// batch policy's run: buffered records are opened a run at a time
    /// and the responses sealed as one run (`Serial`, the default: one).
    batch_outs: Vec<RecordScratch>,
    /// Per-record RPC response staging, sized like `batch_outs`.
    batch_resps: Vec<Vec<u8>>,
    /// Pending key-rotation override (`Some(interval)`): applied to every
    /// channel already open and to every future handshake, so both ends
    /// of each session rotate in lockstep.
    rekey: Option<Option<u64>>,
}

impl<D: NetDevice> SecurePeer<D> {
    /// Creates the peer, listening on both service ports.
    pub fn new(dev: D, ip: Ipv4Addr, clock: Clock, tls: bool, seed: u64) -> Self {
        let mut iface = Interface::new(dev, InterfaceConfig::new(ip), clock);
        iface.tcp_listen(ECHO_PORT);
        iface.tcp_listen(RPC_PORT);
        SecurePeer {
            iface,
            tls,
            rng: SimRng::seed_from(seed),
            conns: Vec::new(),
            pool: BufPool::default(),
            txbuf: Vec::new(),
            telemetry: Telemetry::disabled(),
            batch_outs: vec![RecordScratch::new()],
            batch_resps: vec![Vec::new()],
            rekey: None,
        }
    }

    /// Attaches a telemetry domain; peer work is booked to [`Stage::Peer`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Selects the record-batch discipline for open connections.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch_outs
            .resize_with(batch.max_batch(), RecordScratch::new);
        self.batch_resps.resize_with(batch.max_batch(), Vec::new);
    }

    /// Overrides the per-session key-rotation interval (`None` disables
    /// rotation) for every open channel and every future handshake. The
    /// world applies the same override to its client streams, so both
    /// directions cross each epoch boundary on the same record.
    pub fn set_rekey_interval(&mut self, interval: Option<u64>) {
        self.rekey = Some(interval);
        for conn in &mut self.conns {
            if let PeerTls::Open(chan) = &mut conn.tls {
                chan.set_rekey_interval(interval);
            }
        }
    }

    fn identity() -> ServerIdentity {
        ServerIdentity {
            platform_key: PLATFORM_KEY,
            measurement: peer_measurement(),
        }
    }

    /// RPC: 4-byte LE size request -> length-prefixed 0x5A response.
    fn serve_rpc(request: &[u8], resp: &mut Vec<u8>) {
        resp.clear();
        if request.len() < 4 {
            return;
        }
        let want = u32::from_le_bytes([request[0], request[1], request[2], request[3]]) as usize;
        let want = want.min(1 << 20);
        resp.reserve(4 + want);
        resp.extend_from_slice(&(want as u32).to_le_bytes());
        resp.extend(std::iter::repeat_n(0x5A, want));
    }

    /// Drives the peer one round; returns the frames its stack received
    /// or sent (zero: the peer had nothing to do).
    pub fn poll(&mut self) -> usize {
        let _span = self.telemetry.span(0, Stage::Peer);
        let sent_before = self.iface.frames_sent();
        let mut received = self.iface.poll().unwrap_or(0);
        for port in [ECHO_PORT, RPC_PORT] {
            while let Some(h) = self.iface.tcp_accept(port) {
                let inbuf = self.pool.get();
                self.conns.push(PeerConn {
                    h,
                    port,
                    tls: if self.tls {
                        PeerTls::AwaitHello
                    } else {
                        PeerTls::Plain
                    },
                    inbuf,
                });
            }
        }

        let mut dead = Vec::new();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if self.iface.tcp_recv_into(conn.h, &mut conn.inbuf).is_err() {
                dead.push(i);
                continue;
            }

            self.txbuf.clear();
            loop {
                match &mut conn.tls {
                    PeerTls::Plain => {
                        if conn.port == RPC_PORT {
                            // Fixed 4-byte requests: consume exactly whole
                            // requests, keep fragments buffered.
                            if conn.inbuf.len() < 4 {
                                break;
                            }
                            Self::serve_rpc(&conn.inbuf[..4], &mut self.batch_resps[0]);
                            conn.inbuf.drain(..4);
                            self.txbuf.extend_from_slice(&self.batch_resps[0]);
                        } else {
                            // Echo: the response is the buffered bytes.
                            if conn.inbuf.is_empty() {
                                break;
                            }
                            self.txbuf.extend_from_slice(&conn.inbuf);
                            conn.inbuf.clear();
                            break;
                        }
                    }
                    PeerTls::AwaitHello => {
                        if conn.inbuf.len() < cio_ctls::handshake::CLIENT_HELLO_LEN {
                            break;
                        }
                        let hello: Vec<u8> = conn
                            .inbuf
                            .drain(..cio_ctls::handshake::CLIENT_HELLO_LEN)
                            .collect();
                        let mut entropy = [0u8; 64];
                        self.rng.fill_bytes(&mut entropy);
                        match ServerHandshake::respond(&hello, &Self::identity(), entropy, None) {
                            Ok((sh, cont)) => {
                                self.txbuf.extend_from_slice(&sh.to_bytes());
                                conn.tls = PeerTls::AwaitFinished(Box::new(cont));
                            }
                            Err(_) => {
                                dead.push(i);
                                break;
                            }
                        }
                    }
                    PeerTls::AwaitFinished(_) => {
                        if conn.inbuf.len() < 32 {
                            break;
                        }
                        let fin: Vec<u8> = conn.inbuf.drain(..32).collect();
                        let PeerTls::AwaitFinished(cont) =
                            std::mem::replace(&mut conn.tls, PeerTls::Plain)
                        else {
                            unreachable!("matched AwaitFinished above");
                        };
                        match cont.verify_finished(&fin) {
                            Ok(mut chan) => {
                                if let Some(interval) = self.rekey {
                                    chan.set_rekey_interval(interval);
                                }
                                conn.tls = PeerTls::Open(Box::new(chan));
                            }
                            Err(_) => {
                                dead.push(i);
                                break;
                            }
                        }
                    }
                    PeerTls::Open(chan) => {
                        let (good, used, verdict) =
                            open_buffered_run(chan, &conn.inbuf, &mut self.batch_outs);
                        // Echo replies seal straight from the opened
                        // request scratches; RPC stages its responses.
                        let mut pts: [&[u8]; MAX_BATCH] = [&[]; MAX_BATCH];
                        let mut m = 0usize;
                        for (out, resp) in self.batch_outs[..good].iter().zip(&mut self.batch_resps)
                        {
                            let reply = if conn.port == ECHO_PORT {
                                out.as_slice()
                            } else {
                                Self::serve_rpc(out.as_slice(), resp);
                                resp
                            };
                            if !reply.is_empty() {
                                pts[m] = reply;
                                m += 1;
                            }
                        }
                        // One seal run covers every non-empty response,
                        // written straight into the send buffer (no
                        // per-record scratch bounce).
                        if m > 0 {
                            let base = self.txbuf.len();
                            let total: usize = pts[..m]
                                .iter()
                                .map(|p| p.len() + cio_ctls::RECORD_OVERHEAD)
                                .sum();
                            self.txbuf.resize(base + total, 0);
                            let mut slots: [&mut [u8]; MAX_BATCH] =
                                std::array::from_fn(|_| &mut [][..]);
                            let mut rest = &mut self.txbuf[base..];
                            for (slot, pt) in slots.iter_mut().zip(&pts[..m]) {
                                (*slot, rest) = std::mem::take(&mut rest)
                                    .split_at_mut(pt.len() + cio_ctls::RECORD_OVERHEAD);
                            }
                            let mut lens = [0usize; MAX_BATCH];
                            if chan
                                .seal_batch_into_slots(&pts[..m], &mut slots[..m], &mut lens[..m])
                                .is_err()
                            {
                                dead.push(i);
                                break;
                            }
                        }
                        conn.inbuf.drain(..used);
                        // A failed record ends the connection: records
                        // before it were served, records after it are
                        // discarded.
                        if verdict.is_err() {
                            dead.push(i);
                            break;
                        }
                        if good == 0 {
                            break;
                        }
                    }
                }
            }
            if !self.txbuf.is_empty() {
                let _ = self.iface.tcp_send(conn.h, &self.txbuf);
            }
            if self.iface.tcp_peer_closed(conn.h).unwrap_or(true) {
                let _ = self.iface.tcp_close(conn.h);
                dead.push(i);
            }
        }
        dead.sort_unstable();
        dead.dedup();
        for i in dead.into_iter().rev() {
            let conn = self.conns.remove(i);
            self.pool.put(conn.inbuf);
        }
        received += self.iface.poll().unwrap_or(0);
        received + (self.iface.frames_sent() - sent_before) as usize
    }

    /// Live connections (diagnostic).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }
}

/// Result of feeding received bytes into a [`SecureStream`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FeedResult {
    /// Bytes the caller must transmit (handshake continuations).
    pub to_send: Vec<u8>,
    /// Decrypted application bytes.
    pub app_data: Vec<u8>,
}

#[allow(clippy::large_enum_variant)] // one per connection, long-lived
enum StreamState {
    Plain,
    AwaitServerHello {
        hs: Option<ClientHandshake>,
        inbuf: Vec<u8>,
    },
    Open {
        chan: Box<Channel>,
        inbuf: Vec<u8>,
    },
}

/// Client-side stream protection: plaintext pass-through or cTLS.
pub struct SecureStream {
    state: StreamState,
    /// Per-record decrypt scratches, one per record of the batch
    /// policy's run and reused across the stream's life: buffered
    /// records are drained a run at a time (`Serial`, the default: one).
    batch_outs: Vec<RecordScratch>,
    /// Pending key-rotation override (`Some(interval)`): applied as soon
    /// as the channel opens (and immediately when already open).
    rekey: Option<Option<u64>>,
}

impl SecureStream {
    /// A pass-through stream (no protection).
    pub fn plain() -> Self {
        SecureStream {
            state: StreamState::Plain,
            batch_outs: vec![RecordScratch::new()],
            rekey: None,
        }
    }

    /// Starts a cTLS client stream; returns the ClientHello to transmit.
    pub fn client(entropy: [u8; 64], hooks: Option<cio_ctls::SimHooks>) -> (Vec<u8>, Self) {
        let (hello, hs) = ClientHandshake::start(entropy, hooks);
        (
            hello,
            SecureStream {
                state: StreamState::AwaitServerHello {
                    hs: Some(hs),
                    inbuf: Vec::new(),
                },
                batch_outs: vec![RecordScratch::new()],
                rekey: None,
            },
        )
    }

    /// Selects the record-batch discipline for inbound records.
    pub fn set_batch_policy(&mut self, batch: BatchPolicy) {
        self.batch_outs
            .resize_with(batch.max_batch(), RecordScratch::new);
    }

    /// Overrides the per-session key-rotation interval (`None` disables
    /// rotation). Takes effect immediately on an open channel, or at the
    /// moment the handshake completes otherwise.
    pub fn set_rekey_interval(&mut self, interval: Option<u64>) {
        self.rekey = Some(interval);
        if let StreamState::Open { chan, .. } = &mut self.state {
            chan.set_rekey_interval(interval);
        }
    }

    /// Whether application data can flow.
    pub fn is_open(&self) -> bool {
        matches!(self.state, StreamState::Plain | StreamState::Open { .. })
    }

    /// Whether the cTLS handshake is still in flight (application data
    /// cannot flow yet; see [`crate::session::SessionError::Handshaking`]).
    pub fn is_handshaking(&self) -> bool {
        matches!(self.state, StreamState::AwaitServerHello { .. })
    }

    /// The transmit-direction key epoch, when the stream runs cTLS: `0`
    /// until the first rotation, incrementing at every rekey boundary.
    /// `None` for plaintext streams and unfinished handshakes.
    pub fn tx_epoch(&self) -> Option<u64> {
        match &self.state {
            StreamState::Open { chan, .. } => Some(chan.tx_generation()),
            _ => None,
        }
    }

    /// Protects outgoing application bytes.
    ///
    /// # Errors
    ///
    /// [`CioError::Ctls`] if called before the handshake completes.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, CioError> {
        let mut out = RecordScratch::new();
        self.seal_into(plaintext, &mut out)?;
        Ok(out.as_slice().to_vec())
    }

    /// Protects outgoing application bytes into a reusable scratch.
    ///
    /// # Errors
    ///
    /// [`CioError::Ctls`] if called before the handshake completes.
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut RecordScratch) -> Result<(), CioError> {
        match &mut self.state {
            StreamState::Plain => {
                out.copy_from(plaintext);
                Ok(())
            }
            StreamState::Open { chan, .. } => Ok(chan.seal_into(plaintext, out)?),
            StreamState::AwaitServerHello { .. } => Err(CioError::Ctls(CtlsError::BadSequence)),
        }
    }

    /// Feeds raw bytes received from the transport.
    ///
    /// Allocating convenience over [`SecureStream::feed_into`].
    ///
    /// # Errors
    ///
    /// Handshake/record failures; the stream is dead afterwards.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<FeedResult, CioError> {
        let mut result = FeedResult::default();
        self.feed_into(bytes, &mut result)?;
        Ok(result)
    }

    /// Feeds raw bytes received from the transport, reusing the caller's
    /// [`FeedResult`] buffers (cleared first).
    ///
    /// # Errors
    ///
    /// Handshake/record failures; the stream is dead afterwards.
    pub fn feed_into(&mut self, bytes: &[u8], result: &mut FeedResult) -> Result<(), CioError> {
        result.to_send.clear();
        result.app_data.clear();
        self.feed_append(bytes, result)
    }

    fn feed_append(&mut self, bytes: &[u8], result: &mut FeedResult) -> Result<(), CioError> {
        match &mut self.state {
            StreamState::Plain => {
                result.app_data.extend_from_slice(bytes);
            }
            StreamState::AwaitServerHello { hs, inbuf } => {
                inbuf.extend_from_slice(bytes);
                if inbuf.len() >= SERVER_HELLO_LEN {
                    let sh_bytes: Vec<u8> = inbuf.drain(..SERVER_HELLO_LEN).collect();
                    let leftover: Vec<u8> = std::mem::take(inbuf);
                    let sh = ServerHello::from_bytes(&sh_bytes)?;
                    let hs = hs.take().expect("handshake consumed once");
                    let (fin, mut chan) = hs.finish(&sh, &PLATFORM_KEY, &peer_measurement())?;
                    if let Some(interval) = self.rekey {
                        chan.set_rekey_interval(interval);
                    }
                    result.to_send.extend_from_slice(&fin);
                    self.state = StreamState::Open {
                        chan: Box::new(chan),
                        inbuf: leftover,
                    };
                    // Any piggybacked records are processed below.
                    self.feed_append(&[], result)?;
                }
            }
            StreamState::Open { chan, inbuf } => {
                inbuf.extend_from_slice(bytes);
                loop {
                    // A failed record kills the stream: plaintexts before
                    // it are delivered, the error propagates, and the
                    // stream is dead to the caller.
                    let (good, used, verdict) =
                        open_buffered_run(chan, inbuf, &mut self.batch_outs);
                    for out in &self.batch_outs[..good] {
                        result.app_data.extend_from_slice(out.as_slice());
                    }
                    inbuf.drain(..used);
                    verdict?;
                    if good == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The LightBox-style tunnel gateway: a *trusted* middlebox that
/// terminates the L2-over-TLS tunnel and switches inner frames onto the
/// safe network segment where the peer lives.
pub struct TunnelGateway {
    chan: Channel,
    /// Gateway side of the safe segment (the peer holds the other end).
    pub segment: cio_netstack::PairDevice,
    open_scratch: RecordScratch,
    seal_scratch: RecordScratch,
}

impl TunnelGateway {
    /// Creates the gateway from the provisioned tunnel channel.
    pub fn new(chan: Channel, segment: cio_netstack::PairDevice) -> Self {
        TunnelGateway {
            chan,
            segment,
            open_scratch: RecordScratch::new(),
            seal_scratch: RecordScratch::new(),
        }
    }

    /// Decapsulates one blob from the untrusted side; returns whether the
    /// inner frame was valid and forwarded. The decrypted frame lives in a
    /// reusable scratch — no per-blob allocation.
    pub fn ingress(&mut self, blob: &[u8]) -> bool {
        match self.chan.open_into(blob, &mut self.open_scratch) {
            Ok(()) => self.segment.transmit(self.open_scratch.as_slice()).is_ok(),
            Err(_) => false,
        }
    }

    /// Encapsulates frames arriving from the safe segment, handing each
    /// sealed blob to `emit` straight out of a reusable scratch.
    pub fn egress_each<F: FnMut(&[u8])>(&mut self, mut emit: F) {
        while let Some(frame) = self.segment.receive() {
            if self.chan.seal_into(&frame, &mut self.seal_scratch).is_ok() {
                emit(self.seal_scratch.as_slice());
            }
        }
    }

    /// Encapsulates frames arriving from the safe segment; returns sealed
    /// blobs for the untrusted side.
    ///
    /// Allocating convenience over [`TunnelGateway::egress_each`].
    pub fn egress(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.egress_each(|blob| out.push(blob.to_vec()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header whose length prefix is one past [`MAX_RECORD_BODY`].
    fn oversize_header() -> [u8; 5] {
        let mut h = [0u8; 5];
        h[..4].copy_from_slice(&(MAX_RECORD_BODY as u32 + 1).to_le_bytes());
        h
    }

    #[test]
    fn oversize_length_prefix_fails_the_stream_closed() {
        let (hello, mut stream) = SecureStream::client([3u8; 64], None);
        let identity = ServerIdentity {
            platform_key: PLATFORM_KEY,
            measurement: peer_measurement(),
        };
        let (sh, _) = ServerHandshake::respond(&hello, &identity, [4u8; 64], None).unwrap();
        stream.feed(&sh.to_bytes()).unwrap();
        assert!(stream.is_open());
        // Not "incomplete, keep buffering": a typed error, at once.
        assert_eq!(
            stream.feed(&oversize_header()),
            Err(CioError::Ctls(CtlsError::Malformed))
        );
    }

    #[test]
    fn oversize_length_prefix_drops_the_peer_connection() {
        let clock = Clock::new();
        let (cdev, pdev) = cio_netstack::PairDevice::pair(
            [cio_netstack::MacAddr([1; 6]), cio_netstack::MacAddr([2; 6])],
            1500,
        );
        let (cip, pip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut client = Interface::new(cdev, InterfaceConfig::new(cip), clock.clone());
        let mut peer = SecurePeer::new(pdev, pip, clock, true, 1);
        let h = client.tcp_connect(pip, ECHO_PORT).unwrap();
        let (hello, mut stream) = SecureStream::client([5u8; 64], None);
        let mut to_send = hello;
        let mut pump = |stream: &mut SecureStream, extra: &[u8]| {
            to_send.extend_from_slice(extra);
            for _ in 0..8 {
                client.poll().unwrap();
                peer.poll();
                if client.tcp_established(h).unwrap() && !to_send.is_empty() {
                    client.tcp_send(h, &to_send).unwrap();
                    to_send.clear();
                }
                let rx = client.tcp_recv(h, usize::MAX).unwrap();
                to_send.extend(stream.feed(&rx).unwrap().to_send);
            }
            peer.connections()
        };
        assert_eq!(pump(&mut stream, &[]), 1);
        assert!(stream.is_open());
        assert_eq!(
            pump(&mut stream, &oversize_header()),
            0,
            "connection dropped"
        );
    }

    #[test]
    fn stream_plain_passthrough() {
        let mut s = SecureStream::plain();
        assert!(s.is_open());
        assert_eq!(s.seal(b"data").unwrap(), b"data");
        let r = s.feed(b"reply").unwrap();
        assert_eq!(r.app_data, b"reply");
        assert!(r.to_send.is_empty());
    }

    #[test]
    fn stream_handshake_against_server() {
        let (hello, mut stream) = SecureStream::client([7u8; 64], None);
        assert!(!stream.is_open());
        assert!(stream.seal(b"too early").is_err());

        let identity = ServerIdentity {
            platform_key: PLATFORM_KEY,
            measurement: peer_measurement(),
        };
        let (sh, cont) = ServerHandshake::respond(&hello, &identity, [9u8; 64], None).unwrap();
        let r = stream.feed(&sh.to_bytes()).unwrap();
        assert!(stream.is_open());
        let mut server_chan = cont.verify_finished(&r.to_send).unwrap();

        // Bidirectional data.
        let rec = stream.seal(b"request").unwrap();
        assert_eq!(server_chan.open(&rec).unwrap(), b"request");
        let resp = server_chan.seal(b"response").unwrap();
        let r = stream.feed(&resp).unwrap();
        assert_eq!(r.app_data, b"response");
    }

    #[test]
    fn stream_handles_fragmented_delivery() {
        let (hello, mut stream) = SecureStream::client([1u8; 64], None);
        let identity = ServerIdentity {
            platform_key: PLATFORM_KEY,
            measurement: peer_measurement(),
        };
        let (sh, cont) = ServerHandshake::respond(&hello, &identity, [2u8; 64], None).unwrap();
        let sh_bytes = sh.to_bytes();
        // Deliver the ServerHello one byte at a time.
        let mut fin = Vec::new();
        for b in sh_bytes.iter() {
            fin.extend(stream.feed(std::slice::from_ref(b)).unwrap().to_send);
        }
        let mut server_chan = cont.verify_finished(&fin).unwrap();
        // Deliver a record split in two.
        let resp = server_chan.seal(b"fragmented").unwrap();
        let r1 = stream.feed(&resp[..3]).unwrap();
        assert!(r1.app_data.is_empty());
        let r2 = stream.feed(&resp[3..]).unwrap();
        assert_eq!(r2.app_data, b"fragmented");
    }

    #[test]
    fn stream_reused_scratches_roundtrip() {
        let (hello, mut stream) = SecureStream::client([5u8; 64], None);
        let identity = ServerIdentity {
            platform_key: PLATFORM_KEY,
            measurement: peer_measurement(),
        };
        let (sh, cont) = ServerHandshake::respond(&hello, &identity, [6u8; 64], None).unwrap();
        let mut result = FeedResult::default();
        stream.feed_into(&sh.to_bytes(), &mut result).unwrap();
        let mut server_chan = cont.verify_finished(&result.to_send).unwrap();

        // One record scratch and one feed result, reused across messages
        // of varying size in both directions.
        let mut rec = RecordScratch::new();
        for i in 0..8usize {
            let msg = vec![i as u8; i * 31];
            stream.seal_into(&msg, &mut rec).unwrap();
            assert_eq!(server_chan.open(rec.as_slice()).unwrap(), msg);
            let resp = server_chan.seal(&msg).unwrap();
            stream.feed_into(&resp, &mut result).unwrap();
            assert_eq!(result.app_data, msg);
            assert!(result.to_send.is_empty());
        }
    }

    #[test]
    fn gateway_tunnels_frames() {
        let (gw_side, mut peer_side) = cio_netstack::PairDevice::pair(
            [cio_netstack::MacAddr([1; 6]), cio_netstack::MacAddr([2; 6])],
            1500,
        );
        let guest_end = Channel::from_secrets([3; 32], [4; 32], true, None);
        let gw_end = Channel::from_secrets([3; 32], [4; 32], false, None);
        let mut guest = guest_end;
        let mut gw = TunnelGateway::new(gw_end, gw_side);

        // Guest -> gateway -> segment.
        let blob = guest.seal(b"inner ethernet frame").unwrap();
        assert!(gw.ingress(&blob));
        assert_eq!(peer_side.receive().unwrap(), b"inner ethernet frame");

        // Segment -> gateway -> guest.
        peer_side.transmit(b"reply frame").unwrap();
        let blobs = gw.egress();
        assert_eq!(blobs.len(), 1);
        assert_eq!(guest.open(&blobs[0]).unwrap(), b"reply frame");

        // Host-forged blob is dropped at the gateway.
        assert!(!gw.ingress(b"garbage from the host"));
    }
}
