//! Differential tests: the fused one-pass AEAD dataplane must be
//! bit-identical to the two-pass reference API on every input — same
//! ciphertext, same tag, same accept/reject decisions.

use cio_crypto::poly1305::TAG_LEN;
use cio_crypto::{ChaCha20Poly1305, CryptoError};
use cio_sim::SimRng;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Every length from 0 to past four 1 KiB fused chunks: fused seal ==
/// two-pass seal, fused open == two-pass open, for pseudo-random
/// key/nonce/aad/payload — every small record, every tail after the
/// sixteen-block runs and the Poly1305 lane groups, and every length at
/// which the lanes engage.
#[test]
fn fused_equals_two_pass_all_lengths() {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        assert_eq!(cio_crypto::aead::kernel_tier(), "avx512");
    }
    let mut rng = SimRng::seed_from(0xf05ed);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let aead = ChaCha20Poly1305::new(key);
    let mut payload = vec![0u8; 4160];
    rng.fill_bytes(&mut payload);

    for len in 0..=4160usize {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&(len as u64).to_le_bytes());
        let aad_len = len % 33;
        let aad = &payload[..aad_len];
        let msg = &payload[..len];

        let sealed = aead.seal(&nonce, aad, msg);
        let fused = aead.seal_fused(&nonce, aad, msg);
        assert_eq!(sealed, fused, "seal mismatch at len {len}");

        let opened = aead.open(&nonce, aad, &sealed).unwrap();
        let fused_open = aead.open_fused(&nonce, aad, &sealed).unwrap();
        assert_eq!(opened, fused_open, "open mismatch at len {len}");
        assert_eq!(fused_open, msg, "roundtrip mismatch at len {len}");

        // The shared-memory shapes: scatter seal and gather open.
        let (ct, tag) = sealed.split_at(len);
        let mut scattered = vec![0u8; len];
        let scatter_tag = aead.seal_fused_scatter(&nonce, aad, msg, &mut scattered);
        assert_eq!(
            (&scattered[..], &scatter_tag[..]),
            (ct, tag),
            "scatter at len {len}"
        );
        let mut gathered = vec![0u8; len];
        aead.open_fused_gather(&nonce, aad, ct, &mut gathered, &scatter_tag)
            .unwrap();
        assert_eq!(gathered, msg, "gather at len {len}");
    }
}

/// In-place variants agree with the Vec APIs and with each other.
#[test]
fn fused_in_place_equals_two_pass_in_place() {
    let mut rng = SimRng::seed_from(0x1ace);
    for case in 0..64 {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let len = rng.range(0, 2048);
        let mut msg = vec![0u8; len];
        rng.fill_bytes(&mut msg);
        let aead = ChaCha20Poly1305::new(key);

        let mut two_pass = msg.clone();
        let tag_ref = aead.seal_in_place(&nonce, b"hdr", &mut two_pass);
        let mut fused = msg.clone();
        let tag_fused = aead.seal_fused_in_place(&nonce, b"hdr", &mut fused);
        assert_eq!(two_pass, fused, "case {case}");
        assert_eq!(tag_ref, tag_fused, "case {case}");

        aead.open_fused_in_place(&nonce, b"hdr", &mut fused, &tag_fused)
            .unwrap();
        assert_eq!(fused, msg, "case {case}");

        // The buffer-reusing open agrees too.
        let mut sealed = two_pass.clone();
        sealed.extend_from_slice(&tag_ref);
        let mut out = Vec::new();
        aead.open_fused_into(&nonce, b"hdr", &sealed, &mut out)
            .unwrap();
        assert_eq!(out, msg, "case {case}");
    }
}

/// The RFC 8439 §2.8.2 AEAD vector through the fused path.
#[test]
fn rfc8439_vector_through_fused_path() {
    let key: [u8; 32] = unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
        .try_into()
        .unwrap();
    let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
    let aad = unhex("50515253c0c1c2c3c4c5c6c7");
    let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

    let sealed = ChaCha20Poly1305::new(key).seal_fused(&nonce, &aad, plaintext);
    let expected_ct = unhex(
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
         3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
         92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
         3ff4def08e4b7a9de576d26586cec64b6116",
    );
    let expected_tag = unhex("1ae10b594f09e26a7e902ecbd0600691");
    assert_eq!(&sealed[..plaintext.len()], &expected_ct[..]);
    assert_eq!(&sealed[plaintext.len()..], &expected_tag[..]);

    let opened = ChaCha20Poly1305::new(key)
        .open_fused(&nonce, &aad, &sealed)
        .unwrap();
    assert_eq!(opened, plaintext);
}

/// Tamper and truncation behave exactly like the two-pass path: every
/// bit flip rejected, truncation below a tag reports BadLength, failed
/// in-place opens restore the ciphertext, failed buffer opens leave the
/// output empty.
#[test]
fn fused_failure_modes() {
    let aead = ChaCha20Poly1305::new([9u8; 32]);
    let nonce = [1u8; 12];
    let msg = b"one-pass dataplane payload";
    let sealed = aead.seal_fused(&nonce, b"aad", msg);

    for i in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[i] ^= 0x01;
        assert_eq!(
            aead.open_fused(&nonce, b"aad", &bad),
            Err(CryptoError::BadTag),
            "byte {i}"
        );
        assert_eq!(
            aead.open(&nonce, b"aad", &bad),
            Err(CryptoError::BadTag),
            "two-pass agrees, byte {i}"
        );
    }
    assert!(aead.open_fused(&nonce, b"dad", &sealed).is_err());
    assert!(aead.open_fused(&[2u8; 12], b"aad", &sealed).is_err());
    assert_eq!(
        aead.open_fused(&nonce, b"aad", &sealed[..TAG_LEN - 1]),
        Err(CryptoError::BadLength)
    );

    // Failed in-place open restores the ciphertext bytes.
    let ct = &sealed[..msg.len()];
    let mut buf = ct.to_vec();
    let bad_tag = [0u8; TAG_LEN];
    assert_eq!(
        aead.open_fused_in_place(&nonce, b"aad", &mut buf, &bad_tag),
        Err(CryptoError::BadTag)
    );
    assert_eq!(&buf[..], ct, "ciphertext must be restored");

    // Failed buffer-reusing open leaves the output empty.
    let mut out = b"stale plaintext from the previous record".to_vec();
    let mut bad = sealed.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    assert!(aead
        .open_fused_into(&nonce, b"aad", &bad, &mut out)
        .is_err());
    assert!(out.is_empty(), "no stale or speculative plaintext");
}
