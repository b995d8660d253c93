//! HKDF-SHA-256 (RFC 5869).
//!
//! The cTLS key schedule (handshake secrets, traffic keys, rekeying) is
//! built entirely from `extract` and `expand`.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;
use crate::CryptoError;

/// Maximum HKDF-Expand output: 255 blocks of the hash length.
pub const MAX_OUTPUT: usize = 255 * DIGEST_LEN;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
///
/// An empty `salt` is treated as a zero-filled hash-length salt, per the
/// RFC.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let zeros = [0u8; DIGEST_LEN];
    let salt = if salt.is_empty() { &zeros[..] } else { salt };
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes of keying material
/// bound to `info`.
///
/// # Errors
///
/// Returns [`CryptoError::BadLength`] if more than `255 * 32` bytes are
/// requested.
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
    if out.len() > MAX_OUTPUT {
        return Err(CryptoError::BadLength);
    }
    // T(0) is empty; T(i) is the previous block. No heap: in-band rekeys
    // run this on the dataplane.
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0;
    let mut written = 0usize;
    let mut counter = 1u8;
    while written < out.len() {
        let mut mac = HmacSha256::new(prk);
        mac.update(&t[..t_len]);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        t_len = DIGEST_LEN;
        let take = (out.len() - written).min(DIGEST_LEN);
        out[written..written + take].copy_from_slice(&t[..take]);
        written += take;
        counter = counter.wrapping_add(1);
    }
    Ok(())
}

/// Convenience: extract-then-expand into an `N`-byte array.
pub fn derive<const N: usize>(
    salt: &[u8],
    ikm: &[u8],
    info: &[u8],
) -> Result<[u8; N], CryptoError> {
    let prk = extract(salt, ikm);
    let mut out = [0u8; N];
    expand(&prk, info, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm).unwrap();
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = extract(&salt, &ikm);
        let mut okm = [0u8; 82];
        expand(&prk, &info, &mut okm).unwrap();
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    // RFC 5869 test case 3 (empty salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let prk = extract(&[], &ikm);
        assert_eq!(
            hex(&prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &[], &mut okm).unwrap();
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_rejects_oversize() {
        let prk = [0u8; DIGEST_LEN];
        let mut out = vec![0u8; MAX_OUTPUT + 1];
        assert_eq!(expand(&prk, b"", &mut out), Err(CryptoError::BadLength));
        let mut ok = vec![0u8; MAX_OUTPUT];
        assert!(expand(&prk, b"", &mut ok).is_ok());
    }

    #[test]
    fn derive_helper_matches_manual() {
        let okm: [u8; 16] = derive(b"salt", b"ikm", b"info").unwrap();
        let prk = extract(b"salt", b"ikm");
        let mut manual = [0u8; 16];
        expand(&prk, b"info", &mut manual).unwrap();
        assert_eq!(okm, manual);
    }

    #[test]
    fn different_info_different_keys() {
        let a: [u8; 32] = derive(b"s", b"ikm", b"client").unwrap();
        let b: [u8; 32] = derive(b"s", b"ikm", b"server").unwrap();
        assert_ne!(a, b);
    }
}
