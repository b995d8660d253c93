//! Property tests on the cryptographic primitives, beyond the RFC
//! vectors: algebraic identities that must hold for all inputs.
//!
//! Cases are generated by the in-repo deterministic `cio_sim::SimRng`
//! (no external proptest dependency), so the suite runs fully offline and
//! every failure is reproducible from the fixed seed.

use cio_sim::SimRng;

fn rand_vec(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.range(lo, hi);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn rand_array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

/// Diffie-Hellman commutativity: both sides derive the same secret.
#[test]
fn x25519_dh_commutes() {
    use cio_crypto::x25519;
    let mut rng = SimRng::seed_from(0x25519);
    for case in 0..16 {
        let a: [u8; 32] = rand_array(&mut rng);
        let b: [u8; 32] = rand_array(&mut rng);
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        let s1 = x25519::shared_secret(&a, &pb);
        let s2 = x25519::shared_secret(&b, &pa);
        match (s1, s2) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}"),
            // Degenerate shares are rejected identically on both sides.
            (Err(_), Err(_)) => {}
            (x, y) => panic!("asymmetric: {x:?} vs {y:?}"),
        }
    }
}

/// ChaCha20 keystream is position-independent: encrypting a suffix
/// starting at a block boundary equals the suffix of encrypting the
/// whole (counter composition).
#[test]
fn chacha20_counter_composition() {
    use cio_crypto::chacha20::xor_stream;
    let mut rng = SimRng::seed_from(0xc4ac4a);
    for case in 0..64 {
        let key: [u8; 32] = rand_array(&mut rng);
        let nonce: [u8; 12] = rand_array(&mut rng);
        let data = rand_vec(&mut rng, 128, 512);
        let mut whole = data.clone();
        xor_stream(&key, 0, &nonce, &mut whole);
        let mut tail = data[64..].to_vec();
        xor_stream(&key, 1, &nonce, &mut tail);
        assert_eq!(&whole[64..], &tail[..], "case {case}");
    }
}

/// Poly1305 incremental == one-shot for arbitrary chunking.
#[test]
fn poly1305_chunking_invariant() {
    use cio_crypto::poly1305::Poly1305;
    let mut rng = SimRng::seed_from(0x1305);
    for case in 0..128 {
        let key: [u8; 32] = rand_array(&mut rng);
        let data = rand_vec(&mut rng, 0, 400);
        let cut = rng.next_below(data.len() as u64 + 1) as usize;
        let mut inc = Poly1305::new(&key);
        inc.update(&data[..cut]);
        inc.update(&data[cut..]);
        let mut whole = Poly1305::new(&key);
        whole.update(&data);
        assert_eq!(inc.finalize(), whole.finalize(), "case {case}");
    }
}

/// HMAC distinguishes keys and messages.
#[test]
fn hmac_sensitivity() {
    use cio_crypto::hmac::HmacSha256;
    let mut rng = SimRng::seed_from(0xac);
    for _ in 0..64 {
        let key = rand_vec(&mut rng, 1, 100);
        let msg = rand_vec(&mut rng, 0, 100);
        let flip = rng.next_u64() as usize;
        let base = HmacSha256::mac(&key, &msg);
        let mut key2 = key.clone();
        key2[flip % key.len()] ^= 1;
        assert_ne!(base, HmacSha256::mac(&key2, &msg));
        if !msg.is_empty() {
            let mut msg2 = msg.clone();
            msg2[flip % msg.len()] ^= 1;
            assert_ne!(base, HmacSha256::mac(&key, &msg2));
        }
    }
}

/// HKDF expand produces prefix-consistent output: a shorter request is
/// a prefix of a longer one (streams, not independent draws).
#[test]
fn hkdf_expand_prefix_property() {
    use cio_crypto::hkdf;
    let mut rng = SimRng::seed_from(0xdf);
    for _ in 0..64 {
        let ikm = rand_vec(&mut rng, 1, 64);
        let info = rand_vec(&mut rng, 0, 32);
        let short = rng.range(1, 64);
        let extra = rng.range(1, 64);
        let prk = hkdf::extract(b"salt", &ikm);
        let mut a = vec![0u8; short];
        let mut b = vec![0u8; short + extra];
        hkdf::expand(&prk, &info, &mut a).unwrap();
        hkdf::expand(&prk, &info, &mut b).unwrap();
        assert_eq!(&a[..], &b[..short]);
    }
}

/// Constant-time equality agrees with `==` on all inputs.
#[test]
fn ct_eq_agrees_with_eq() {
    let mut rng = SimRng::seed_from(0xc7);
    for _ in 0..256 {
        let a = rand_vec(&mut rng, 0, 64);
        // Half the cases compare against a copy, half against fresh bytes.
        let b = if rng.chance(0.5) {
            a.clone()
        } else {
            rand_vec(&mut rng, 0, 64)
        };
        assert_eq!(cio_crypto::ct::ct_eq(&a, &b), a == b);
    }
}

/// Sealing is deterministic given (key, nonce, aad, msg) — a property
/// the deterministic simulator depends on.
#[test]
fn aead_is_deterministic() {
    let mut rng = SimRng::seed_from(0xaead);
    for _ in 0..64 {
        let key: [u8; 32] = rand_array(&mut rng);
        let nonce: [u8; 12] = rand_array(&mut rng);
        let msg = rand_vec(&mut rng, 0, 200);
        let aead = cio_crypto::ChaCha20Poly1305::new(key);
        assert_eq!(aead.seal(&nonce, b"a", &msg), aead.seal(&nonce, b"a", &msg));
    }
}
