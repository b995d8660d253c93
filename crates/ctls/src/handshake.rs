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
    let make = |info: &[u8]| -> Result<[u8; 32], CtlsError> {
        let mut out = [0u8; 32];
        hkdf::expand(&prk, info, &mut out)?;
        Ok(out)
    };
    Ok(Schedule {
        client_secret: make(b"ctls1 c ap traffic")?,
        server_secret: make(b"ctls1 s ap traffic")?,
        client_finished_key: make(b"ctls1 c finished")?,
        server_finished_key: make(b"ctls1 s finished")?,
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
        Self::start_batch(&[entropy], hooks)
            .pop()
            .expect("one hello per entropy")
    }

    /// Starts one handshake per entropy (each must be fresh per
    /// connection): the key generations of the whole run are one
    /// [`x25519::scalarmult_many`] call. Returns the ClientHello bytes
    /// to send and the continuation, in entropy order.
    pub fn start_batch(
        entropies: &[[u8; 64]],
        hooks: Option<SimHooks>,
    ) -> Vec<(Vec<u8>, ClientHandshake)> {
        let mut privates: Vec<[u8; 32]> = entropies
            .iter()
            .map(|e| e[32..].try_into().expect("32 bytes"))
            .collect();
        if let Some(h) = &hooks {
            for _ in entropies {
                h.charge_x25519(1);
            }
        }
        let mut publics = vec![[0u8; 32]; entropies.len()];
        let bases = vec![x25519::BASEPOINT; entropies.len()];
        x25519::scalarmult_many(&privates, &bases, &mut publics);
        let handshakes = entropies
            .iter()
            .zip(&privates)
            .zip(publics)
            .map(|((entropy, private), public)| {
                let mut hello = Vec::with_capacity(CLIENT_HELLO_LEN);
                hello.extend_from_slice(&entropy[..32]);
                hello.extend_from_slice(&public);
                let hs = ClientHandshake {
                    private: *private,
                    hello: hello.clone(),
                    hooks: hooks.clone(),
                };
                (hello, hs)
            })
            .collect();
        privates.iter_mut().for_each(|p| zeroize(p));
        handshakes
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
        self,
        sh: &ServerHello,
        platform_key: &[u8; 32],
        expected: &Measurement,
    ) -> Result<(Vec<u8>, Channel), CtlsError> {
        Self::finish_batch(vec![self], std::slice::from_ref(sh), platform_key, expected)
            .pop()
            .expect("one result per handshake")
    }

    /// [`ClientHandshake::finish`] for a run: `handshakes[k]` processes
    /// `server_hellos[k]`. The shared secrets of every slot whose quote
    /// verifies are one [`x25519::scalarmult_many`] call.
    ///
    /// Failures are per slot, with `finish`'s typed errors: a bad quote,
    /// a key that the quote does not bind, a low-order server key or a
    /// bad server Finished fails its slot alone.
    ///
    /// # Panics
    ///
    /// If `handshakes` and `server_hellos` differ in length.
    pub fn finish_batch(
        mut handshakes: Vec<ClientHandshake>,
        server_hellos: &[ServerHello],
        platform_key: &[u8; 32],
        expected: &Measurement,
    ) -> Vec<Result<(Vec<u8>, Channel), CtlsError>> {
        assert_eq!(
            handshakes.len(),
            server_hellos.len(),
            "one ServerHello per handshake"
        );
        // 1. Attestation: the quote must verify, match the expected
        //    measurement, use our transcript-derived nonce, and commit to
        //    the server public key. Only attested slots reach a
        //    multiplication.
        let attested: Vec<Result<(), CtlsError>> = handshakes
            .iter()
            .zip(server_hellos)
            .map(|(hs, sh)| {
                let nonce = transcript_hash(&[&hs.hello]);
                sh.quote
                    .verify(platform_key, expected, &nonce)
                    .map_err(CtlsError::BadQuote)?;
                let binding = Sha256::digest(&sh.public);
                if !ct_eq(&binding, &sh.quote.report_data) {
                    return Err(CtlsError::BadQuote(cio_tee::TeeError::AttestationFailed));
                }
                if let Some(h) = &hs.hooks {
                    h.charge_x25519(1);
                }
                Ok(())
            })
            .collect();

        // 2. Key agreement for the attested slots, in one run.
        let mut scalars = Vec::with_capacity(handshakes.len());
        let mut points = Vec::with_capacity(handshakes.len());
        for ((hs, sh), ok) in handshakes.iter().zip(server_hellos).zip(&attested) {
            if ok.is_ok() {
                scalars.push(hs.private);
                points.push(sh.public);
            }
        }
        let mut shared = vec![[0u8; 32]; scalars.len()];
        x25519::scalarmult_many(&scalars, &points, &mut shared);
        scalars.iter_mut().for_each(|s| zeroize(s));
        handshakes
            .iter_mut()
            .for_each(|hs| zeroize(&mut hs.private));

        // Each secret leaves the buffer as it is taken, zeros behind it.
        let mut shared = shared.iter_mut();
        handshakes
            .into_iter()
            .zip(server_hellos)
            .zip(attested)
            .map(|((hs, sh), ok)| {
                ok?;
                let secret = shared.next().expect("one secret per attested slot");
                hs.finish_with_secret(sh, std::mem::take(secret))
            })
            .collect()
    }

    /// The rest of [`ClientHandshake::finish`] once the Diffie-Hellman
    /// output exists: the low-order check, key schedule, server Finished
    /// and our Finished.
    fn finish_with_secret(
        self,
        sh: &ServerHello,
        shared: [u8; 32],
    ) -> Result<(Vec<u8>, Channel), CtlsError> {
        let mut shared = x25519::check_shared(shared)?;
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
        Self::respond_batch(&[client_hello], identity, entropy, hooks)
            .pop()
            .expect("one response per hello")
    }

    /// Responds to a run of ClientHellos with one shared server ephemeral
    /// key: the X25519 key generation (one scalar multiplication) runs
    /// once per batch instead of once per connection, and it and every
    /// slot's shared secret are one [`x25519::scalarmult_many`] call.
    /// Everything connection-specific stays per hello — the shared
    /// secret, the transcript-bound key schedule, the quote (its nonce
    /// hashes that client's hello, so freshness binding is unweakened),
    /// and both Finished MACs. The ephemeral remains ephemeral (it lives
    /// for one accept batch), trading intra-batch key-share reuse for a
    /// `2 → 1 + 1/n` scalar-multiplication churn cost per connection.
    ///
    /// Failures are per slot: a malformed or degenerate hello yields
    /// `Err` in its position without poisoning its batchmates. A batch
    /// with no well-formed hello generates no ephemeral.
    pub fn respond_batch(
        client_hellos: &[&[u8]],
        identity: &ServerIdentity,
        entropy: [u8; 64],
        hooks: Option<SimHooks>,
    ) -> Vec<Result<(ServerHello, ServerHandshake), CtlsError>> {
        let well_formed = |hello: &[u8]| hello.len() == CLIENT_HELLO_LEN;
        // Run entry 0 is the ephemeral, then one shared secret per
        // well-formed hello, in order.
        let mut points = vec![x25519::BASEPOINT];
        points.extend(
            client_hellos
                .iter()
                .filter(|h| well_formed(h))
                .map(|hello| <[u8; 32]>::try_from(&hello[32..]).expect("32 bytes")),
        );
        if points.len() == 1 {
            return client_hellos
                .iter()
                .map(|_| Err(CtlsError::Malformed))
                .collect();
        }
        if let Some(h) = &hooks {
            for _ in &points {
                h.charge_x25519(1);
            }
        }
        let random: [u8; 32] = entropy[..32].try_into().expect("32 bytes");
        let mut private: [u8; 32] = entropy[32..].try_into().expect("32 bytes");
        let mut scalars = vec![private; points.len()];
        let mut out = vec![[0u8; 32]; points.len()];
        x25519::scalarmult_many(&scalars, &points, &mut out);
        scalars.iter_mut().for_each(|s| zeroize(s));
        zeroize(&mut private);

        let public = out[0];
        // The quote's report data commits to the batch's one ephemeral.
        let binding = Sha256::digest(&public);
        // Each secret leaves the buffer as it is taken, zeros behind it.
        let mut shared = out[1..].iter_mut();
        client_hellos
            .iter()
            .map(|hello| {
                if !well_formed(hello) {
                    return Err(CtlsError::Malformed);
                }
                let secret = shared.next().expect("one secret per well-formed hello");
                Self::respond_with_secret(
                    hello,
                    identity,
                    random,
                    &public,
                    binding,
                    std::mem::take(secret),
                    hooks.clone(),
                )
            })
            .collect()
    }

    /// The per-connection half of a server response once its
    /// Diffie-Hellman output exists: the low-order check, key schedule,
    /// quote, and Finished under the batch's ephemeral `public`, whose
    /// hash is `binding`.
    fn respond_with_secret(
        client_hello: &[u8],
        identity: &ServerIdentity,
        random: [u8; 32],
        public: &[u8; 32],
        binding: [u8; 32],
        shared: [u8; 32],
        hooks: Option<SimHooks>,
    ) -> Result<(ServerHello, ServerHandshake), CtlsError> {
        let mut shared = x25519::check_shared(shared)?;
        let transcript = transcript_hash(&[client_hello, &random, public]);
        let sched = schedule(&mut shared, &transcript)?;

        // Quote: nonce is the hash of the client hello (freshness), report
        // data commits to our ephemeral key (binding).
        let nonce = transcript_hash(&[client_hello]);
        let quote = Quote::generate(&identity.platform_key, identity.measurement, nonce, binding);

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
    use crate::record::tests::{open, seal};

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

    /// Debug builds count the SHA-256 kernel's blocks: on a SHA-NI host
    /// the whole key schedule, every quote and Finished MAC, runs there.
    #[cfg(debug_assertions)]
    #[test]
    fn handshake_hashes_on_the_sha_kernel() {
        use cio_crypto::sha256::{kernel_blocks, kernel_tier};
        let before = kernel_blocks();
        handshake();
        let blocks = kernel_blocks() - before;
        if kernel_tier() == "sha-ni" {
            // 84 compressions for the handshake, 2 for the measurements.
            assert_eq!(blocks, 86);
        } else {
            assert_eq!(blocks, 0);
        }
    }

    #[test]
    fn full_handshake_succeeds() {
        let (mut c, mut s) = handshake();
        let rec = seal(&mut c, b"first application data");
        assert_eq!(open(&mut s, &rec).unwrap(), b"first application data");
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
        let rec = seal(&mut c1, b"session one");
        assert!(open(&mut s2, &rec).is_err());
        // Each session still works internally.
        assert_eq!(open(&mut s1, &rec).unwrap(), b"session one");
        let rec2 = seal(&mut c2, b"session two");
        assert_eq!(open(&mut s2, &rec2).unwrap(), b"session two");
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
        let rec = seal(&mut channels[0].0, b"batchmate secret");
        assert!(open(&mut channels[1].1, &rec).is_err());
        assert_eq!(open(&mut channels[0].1, &rec).unwrap(), b"batchmate secret");
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

    /// One client batch meets a bad quote, a host-substituted key, a
    /// tampered server Finished and an attested low-order key beside good
    /// slots: each bad slot fails alone with `finish`'s typed error, only
    /// attested slots are charged a multiplication, and the good slots
    /// interoperate.
    #[test]
    fn batched_finish_fails_per_slot() {
        let hooks = SimHooks {
            clock: cio_sim::Clock::new(),
            cost: cio_sim::CostModel::default(),
            meter: cio_sim::Meter::new(),
            telemetry: cio_sim::Telemetry::disabled(),
        };
        let entropies: Vec<[u8; 64]> = (0..7u8).map(|i| entropy(30 + i)).collect();
        let (hellos, clients): (Vec<_>, Vec<_>) =
            ClientHandshake::start_batch(&entropies, Some(hooks.clone()))
                .into_iter()
                .unzip();
        let hello_refs: Vec<&[u8]> = hellos.iter().map(Vec::as_slice).collect();
        let (mut shs, servers): (Vec<_>, Vec<_>) =
            ServerHandshake::respond_batch(&hello_refs, &identity(), entropy(40), None)
                .into_iter()
                .map(Result::unwrap)
                .unzip();
        let measurement = Measurement::of(b"server-workload-v1");
        // Slot 1: a quote that no longer verifies.
        shs[1].quote.nonce[0] ^= 1;
        // Slot 2: the host swaps in its own key share.
        shs[2].public = x25519::public_key(&[9u8; 32]);
        // Slot 4: a tampered server Finished.
        shs[4].finished[5] ^= 1;
        // Slot 5: a low-order key, attested by a quote that binds it.
        let low_order = [0u8; 32];
        shs[5].public = low_order;
        shs[5].quote = Quote::generate(
            &PLATFORM,
            measurement,
            transcript_hash(&[&hellos[5]]),
            Sha256::digest(&low_order),
        );

        let results = ClientHandshake::finish_batch(clients, &shs, &PLATFORM, &measurement);
        // Seven key generations, then one shared secret per attested slot
        // (all but slots 1 and 2).
        assert_eq!(hooks.meter.snapshot().x25519_ops, 7 + 5);
        let mut channels = Vec::new();
        for (slot, (result, server)) in results.into_iter().zip(servers).enumerate() {
            match slot {
                1 | 2 => assert!(matches!(result, Err(CtlsError::BadQuote(_))), "slot {slot}"),
                4 => assert!(matches!(result, Err(CtlsError::BadFinished)), "slot {slot}"),
                5 => assert!(
                    matches!(
                        result,
                        Err(CtlsError::Crypto(cio_crypto::CryptoError::ZeroSharedSecret))
                    ),
                    "slot {slot}"
                ),
                _ => {
                    let (fin, c_chan) = result.unwrap();
                    channels.push((c_chan, server.verify_finished(&fin).unwrap()));
                }
            }
        }
        assert_eq!(channels.len(), 3);
        for (c, s) in &mut channels {
            let rec = seal(c, b"good slot");
            assert_eq!(open(s, &rec).unwrap(), b"good slot");
        }
    }
}
