//! The cTLS handshake: ECDHE + transcript-bound key schedule + attestation.
//!
//! Message flow (client C, attested server S):
//!
//! ```text
//! C -> S: ClientHello  { random[32], x25519_pub[32] }
//! S -> C: ServerHello  { random[32], x25519_pub[32], quote, finished[32] }
//! C -> S: Finished     { finished[32] }
//! ```
//!
//! The server's quote carries `report_data = SHA-256(server_pub)` so the
//! key exchange is bound to the attested TEE. Both Finished MACs are HMACs
//! over the running transcript hash under direction-specific keys derived
//! from the ECDHE secret — the TLS-1.3 shape, minus certificates and
//! negotiation (there is nothing to negotiate: one suite, fixed by
//! deployment, in the same spirit as the paper's zero-negotiation L2).

use crate::record::Channel;
use crate::{CtlsError, SimHooks};
use cio_crypto::ct::{ct_eq, zeroize};
use cio_crypto::hkdf;
use cio_crypto::hmac::HmacSha256;
use cio_crypto::sha256::Sha256;
use cio_crypto::x25519;
use cio_tee::attest::{Measurement, Quote};

/// Client hello wire size.
pub const CLIENT_HELLO_LEN: usize = 64;

/// What the server needs to identify itself.
pub struct ServerIdentity {
    /// Platform attestation key (shared with the verifier's root of trust
    /// in this model).
    pub platform_key: [u8; 32],
    /// The server TEE's launch measurement.
    pub measurement: Measurement,
}

fn transcript_hash(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

struct Schedule {
    client_secret: [u8; 32],
    server_secret: [u8; 32],
    client_finished_key: [u8; 32],
    server_finished_key: [u8; 32],
}

/// Derives the key schedule and clears `shared`: nothing reads the raw
/// Diffie-Hellman output once the PRK exists.
fn schedule(shared: &mut [u8; 32], transcript: &[u8; 32]) -> Result<Schedule, CtlsError> {
    let prk = hkdf::extract(transcript, shared);
    zeroize(shared);
    let make = |label: &[u8]| -> Result<[u8; 32], CtlsError> {
        let mut info = Vec::with_capacity(16 + label.len());
        info.extend_from_slice(b"ctls1 ");
        info.extend_from_slice(label);
        let mut out = [0u8; 32];
        hkdf::expand(&prk, &info, &mut out)?;
        Ok(out)
    };
    Ok(Schedule {
        client_secret: make(b"c ap traffic")?,
        server_secret: make(b"s ap traffic")?,
        client_finished_key: make(b"c finished")?,
        server_finished_key: make(b"s finished")?,
    })
}

fn finished_mac(key: &[u8; 32], transcript: &[u8; 32]) -> [u8; 32] {
    HmacSha256::mac(key, transcript)
}

/// Serialized ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Server random.
    pub random: [u8; 32],
    /// Server ephemeral public key.
    pub public: [u8; 32],
    /// Attestation quote binding `public` to the measured TEE.
    pub quote: Quote,
    /// Server Finished MAC.
    pub finished: [u8; 32],
}

/// Serialized ServerHello wire size.
pub const SERVER_HELLO_LEN: usize = 224;

impl ServerHello {
    /// Serializes: random || public || finished || quote(128).
    pub fn to_bytes(&self) -> [u8; SERVER_HELLO_LEN] {
        let mut b = [0u8; SERVER_HELLO_LEN];
        b[0..32].copy_from_slice(&self.random);
        b[32..64].copy_from_slice(&self.public);
        b[64..96].copy_from_slice(&self.finished);
        b[96..224].copy_from_slice(&self.quote.to_bytes());
        b
    }

    /// Parses a serialized ServerHello.
    ///
    /// # Errors
    ///
    /// [`CtlsError::Malformed`] on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServerHello, CtlsError> {
        if bytes.len() != SERVER_HELLO_LEN {
            return Err(CtlsError::Malformed);
        }
        let quote = Quote::from_bytes(&bytes[96..224]).map_err(|_| CtlsError::Malformed)?;
        Ok(ServerHello {
            random: bytes[0..32].try_into().expect("32 bytes"),
            public: bytes[32..64].try_into().expect("32 bytes"),
            finished: bytes[64..96].try_into().expect("32 bytes"),
            quote,
        })
    }
}

/// Client side of the handshake.
pub struct ClientHandshake {
    private: [u8; 32],
    hello: Vec<u8>,
    hooks: Option<SimHooks>,
}

impl ClientHandshake {
    /// Starts a handshake; returns the ClientHello bytes to send.
    ///
    /// `entropy` must be fresh per connection (the caller's RNG).
    pub fn start(entropy: [u8; 64], hooks: Option<SimHooks>) -> (Vec<u8>, ClientHandshake) {
        let mut random = [0u8; 32];
        random.copy_from_slice(&entropy[..32]);
        let mut private = [0u8; 32];
        private.copy_from_slice(&entropy[32..]);
        if let Some(h) = &hooks {
            h.charge_x25519(1);
        }
        let public = x25519::public_key(&private);
        let mut hello = Vec::with_capacity(CLIENT_HELLO_LEN);
        hello.extend_from_slice(&random);
        hello.extend_from_slice(&public);
        (
            hello.clone(),
            ClientHandshake {
                private,
                hello,
                hooks,
            },
        )
    }

    /// Processes the ServerHello: verifies the quote (against the expected
    /// measurement and platform key) and the server Finished, then derives
    /// the channel and the client Finished bytes to send.
    ///
    /// # Errors
    ///
    /// [`CtlsError::BadQuote`] / [`CtlsError::BadFinished`] /
    /// [`CtlsError::Crypto`] on any verification failure — no channel is
    /// produced in that case.
    pub fn finish(
        mut self,
        sh: &ServerHello,
        platform_key: &[u8; 32],
        expected: &Measurement,
    ) -> Result<(Vec<u8>, Channel), CtlsError> {
        // 1. Attestation: the quote must verify, match the expected
        //    measurement, use our transcript-derived nonce, and commit to
        //    the server public key.
        let nonce = transcript_hash(&[&self.hello]);
        sh.quote
            .verify(platform_key, expected, &nonce)
            .map_err(CtlsError::BadQuote)?;
        let binding = Sha256::digest(&sh.public);
        if !ct_eq(&binding, &sh.quote.report_data) {
            return Err(CtlsError::BadQuote(cio_tee::TeeError::AttestationFailed));
        }

        // 2. Key agreement and schedule.
        if let Some(h) = &self.hooks {
            h.charge_x25519(1);
        }
        let shared = x25519::shared_secret(&self.private, &sh.public);
        zeroize(&mut self.private);
        let mut shared = shared?;
        let transcript = transcript_hash(&[&self.hello, &sh.random, &sh.public]);
        let sched = schedule(&mut shared, &transcript)?;

        // 3. Server Finished.
        let expected_fin = finished_mac(&sched.server_finished_key, &transcript);
        if !ct_eq(&expected_fin, &sh.finished) {
            return Err(CtlsError::BadFinished);
        }

        // 4. Our Finished over the transcript including the server hello.
        let full_transcript = transcript_hash(&[&self.hello, &sh.random, &sh.public, &sh.finished]);
        let fin = finished_mac(&sched.client_finished_key, &full_transcript);

        let channel = Channel::new(sched.client_secret, sched.server_secret, true, self.hooks);
        Ok((fin.to_vec(), channel))
    }
}

/// Server side of the handshake.
pub struct ServerHandshake {
    sched: Schedule,
    full_transcript: [u8; 32],
    hooks: Option<SimHooks>,
}

impl ServerHandshake {
    /// Responds to a ClientHello. Returns the ServerHello and the
    /// continuation awaiting the client Finished.
    ///
    /// `entropy` must be fresh per connection.
    ///
    /// # Errors
    ///
    /// [`CtlsError::Malformed`] on a bad hello; [`CtlsError::Crypto`] on a
    /// degenerate key share.
    pub fn respond(
        client_hello: &[u8],
        identity: &ServerIdentity,
        entropy: [u8; 64],
        hooks: Option<SimHooks>,
    ) -> Result<(ServerHello, ServerHandshake), CtlsError> {
        if client_hello.len() != CLIENT_HELLO_LEN {
            return Err(CtlsError::Malformed);
        }
        let mut random = [0u8; 32];
        random.copy_from_slice(&entropy[..32]);
        let mut private = [0u8; 32];
        private.copy_from_slice(&entropy[32..]);
        if let Some(h) = &hooks {
            h.charge_x25519(1);
        }
        let public = x25519::public_key(&private);
        let response =
            Self::respond_with_key(client_hello, identity, random, &private, &public, hooks);
        zeroize(&mut private);
        response
    }

    /// Responds to a run of ClientHellos with one shared server ephemeral
    /// key: the X25519 key generation (one scalar multiplication) runs
    /// once per batch instead of once per connection. Everything
    /// connection-specific stays per hello — the shared secret, the
    /// transcript-bound key schedule, the quote (its nonce hashes that
    /// client's hello, so freshness binding is unweakened), and both
    /// Finished MACs. The ephemeral remains ephemeral (it lives for one
    /// accept batch), trading intra-batch key-share reuse for a
    /// `2 → 1 + 1/n` scalar-multiplication churn cost per connection.
    ///
    /// Failures are per slot: a malformed or degenerate hello yields
    /// `Err` in its position without poisoning its batchmates.
    pub fn respond_batch(
        client_hellos: &[&[u8]],
        identity: &ServerIdentity,
        entropy: [u8; 64],
        hooks: Option<SimHooks>,
    ) -> Vec<Result<(ServerHello, ServerHandshake), CtlsError>> {
        let mut random = [0u8; 32];
        random.copy_from_slice(&entropy[..32]);
        let mut private = [0u8; 32];
        private.copy_from_slice(&entropy[32..]);
        if let Some(h) = &hooks {
            h.charge_x25519(1);
        }
        let public = x25519::public_key(&private);
        let responses = client_hellos
            .iter()
            .map(|hello| {
                if hello.len() != CLIENT_HELLO_LEN {
                    return Err(CtlsError::Malformed);
                }
                Self::respond_with_key(hello, identity, random, &private, &public, hooks.clone())
            })
            .collect();
        zeroize(&mut private);
        responses
    }

    /// The per-connection half of a server response: shared secret, key
    /// schedule, quote, and Finished under an already-generated ephemeral.
    fn respond_with_key(
        client_hello: &[u8],
        identity: &ServerIdentity,
        random: [u8; 32],
        private: &[u8; 32],
        public: &[u8; 32],
        hooks: Option<SimHooks>,
    ) -> Result<(ServerHello, ServerHandshake), CtlsError> {
        let mut client_pub = [0u8; 32];
        client_pub.copy_from_slice(&client_hello[32..]);
        if let Some(h) = &hooks {
            h.charge_x25519(1);
        }
        let mut shared = x25519::shared_secret(private, &client_pub)?;
        let transcript = transcript_hash(&[client_hello, &random, public]);
        let sched = schedule(&mut shared, &transcript)?;

        // Quote: nonce is the hash of the client hello (freshness), report
        // data commits to our ephemeral key (binding).
        let nonce = transcript_hash(&[client_hello]);
        let quote = Quote::generate(
            &identity.platform_key,
            identity.measurement,
            nonce,
            Sha256::digest(public),
        );

        let finished = finished_mac(&sched.server_finished_key, &transcript);
        let full_transcript = transcript_hash(&[client_hello, &random, public, &finished]);

        Ok((
            ServerHello {
                random,
                public: *public,
                quote,
                finished,
            },
            ServerHandshake {
                sched,
                full_transcript,
                hooks,
            },
        ))
    }

    /// Verifies the client Finished and produces the server channel.
    ///
    /// # Errors
    ///
    /// [`CtlsError::BadFinished`] on mismatch.
    pub fn verify_finished(self, client_finished: &[u8]) -> Result<Channel, CtlsError> {
        let expected = finished_mac(&self.sched.client_finished_key, &self.full_transcript);
        if !ct_eq(&expected, client_finished) {
            return Err(CtlsError::BadFinished);
        }
        Ok(Channel::new(
            self.sched.client_secret,
            self.sched.server_secret,
            false,
            self.hooks,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLATFORM: [u8; 32] = [0x42; 32];

    fn identity() -> ServerIdentity {
        ServerIdentity {
            platform_key: PLATFORM,
            measurement: Measurement::of(b"server-workload-v1"),
        }
    }

    fn entropy(seed: u8) -> [u8; 64] {
        let mut e = [seed; 64];
        e[0] ^= 0x55;
        e
    }

    fn handshake() -> (Channel, Channel) {
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (sh, server) = ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        let (fin, c_chan) = client
            .finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"))
            .unwrap();
        let s_chan = server.verify_finished(&fin).unwrap();
        (c_chan, s_chan)
    }

    #[test]
    fn full_handshake_succeeds() {
        let (mut c, mut s) = handshake();
        let rec = c.seal(b"first application data").unwrap();
        assert_eq!(s.open(&rec).unwrap(), b"first application data");
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (sh, _server) =
            ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        let r = client.finish(&sh, &PLATFORM, &Measurement::of(b"evil-workload"));
        assert!(matches!(r, Err(CtlsError::BadQuote(_))));
    }

    #[test]
    fn wrong_platform_key_rejected() {
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (sh, _server) =
            ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        let r = client.finish(&sh, &[0x43; 32], &Measurement::of(b"server-workload-v1"));
        assert!(matches!(r, Err(CtlsError::BadQuote(_))));
    }

    #[test]
    fn mitm_key_substitution_rejected() {
        // A host-in-the-middle swaps the server's key share for its own;
        // the quote's report_data no longer matches.
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (mut sh, _server) =
            ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        let mitm_private = [9u8; 32];
        sh.public = x25519::public_key(&mitm_private);
        let r = client.finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"));
        assert!(matches!(r, Err(CtlsError::BadQuote(_))));
    }

    #[test]
    fn tampered_server_finished_rejected() {
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (mut sh, _server) =
            ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        sh.finished[5] ^= 1;
        let r = client.finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"));
        assert!(matches!(r, Err(CtlsError::BadFinished)));
    }

    #[test]
    fn tampered_client_finished_rejected() {
        let (hello, client) = ClientHandshake::start(entropy(1), None);
        let (sh, server) = ServerHandshake::respond(&hello, &identity(), entropy(2), None).unwrap();
        let (mut fin, _chan) = client
            .finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"))
            .unwrap();
        fin[0] ^= 1;
        assert!(matches!(
            server.verify_finished(&fin),
            Err(CtlsError::BadFinished)
        ));
    }

    #[test]
    fn short_hello_rejected() {
        assert!(matches!(
            ServerHandshake::respond(&[0u8; 10], &identity(), entropy(2), None),
            Err(CtlsError::Malformed)
        ));
    }

    #[test]
    fn distinct_sessions_distinct_keys() {
        let (mut c1, mut s1) = handshake();
        let (hello, client) = ClientHandshake::start(entropy(7), None);
        let (sh, server) = ServerHandshake::respond(&hello, &identity(), entropy(8), None).unwrap();
        let (fin, mut c2) = client
            .finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"))
            .unwrap();
        let mut s2 = server.verify_finished(&fin).unwrap();

        // A record from session 1 is garbage in session 2.
        let rec = c1.seal(b"session one").unwrap();
        assert!(s2.open(&rec).is_err());
        // Each session still works internally.
        assert_eq!(s1.open(&rec).unwrap(), b"session one");
        let rec2 = c2.seal(b"session two").unwrap();
        assert_eq!(s2.open(&rec2).unwrap(), b"session two");
    }

    #[test]
    fn batched_respond_completes_every_handshake() {
        let clients: Vec<_> = (0..4u8)
            .map(|i| ClientHandshake::start(entropy(10 + i), None))
            .collect();
        let hellos: Vec<&[u8]> = clients.iter().map(|(h, _)| h.as_slice()).collect();
        let responses = ServerHandshake::respond_batch(&hellos, &identity(), entropy(99), None);
        assert_eq!(responses.len(), 4);
        let mut channels = Vec::new();
        for ((_, client), resp) in clients.into_iter().zip(responses) {
            let (sh, server) = resp.unwrap();
            let (fin, c_chan) = client
                .finish(&sh, &PLATFORM, &Measurement::of(b"server-workload-v1"))
                .unwrap();
            let s_chan = server.verify_finished(&fin).unwrap();
            channels.push((c_chan, s_chan));
        }
        // Sessions sharing the batch ephemeral still have distinct keys:
        // a record from one is garbage in another.
        let rec = channels[0].0.seal(b"batchmate secret").unwrap();
        assert!(channels[1].1.open(&rec).is_err());
        assert_eq!(channels[0].1.open(&rec).unwrap(), b"batchmate secret");
    }

    #[test]
    fn batched_respond_fails_per_slot() {
        let (good, client) = ClientHandshake::start(entropy(21), None);
        let bad = [0u8; 10];
        let responses =
            ServerHandshake::respond_batch(&[&bad, &good], &identity(), entropy(22), None);
        assert!(matches!(responses[0], Err(CtlsError::Malformed)));
        let (sh, _server) = responses[1].as_ref().unwrap();
        assert!(client
            .finish(sh, &PLATFORM, &Measurement::of(b"server-workload-v1"))
            .is_ok());
    }
}
