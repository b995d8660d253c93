//! SHA-256 (FIPS 180-4).
//!
//! Incremental (init/update/finalize) interface plus a one-shot helper.
//! Used for attestation measurements, HMAC, and the HKDF key schedule.
//!
//! On a CPU with the x86 SHA extensions every block goes through one
//! kernel in `simd.rs` (see [`kernel_tier`]); elsewhere the scalar
//! compression function below runs, and it is the oracle the kernel's
//! tests compare against.

/// SHA-256 digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// SHA-256 block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// The round constants, shared with the SHA-NI kernel.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
///
/// # Examples
///
/// ```
/// use cio_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state. Every whole block of `data`
    /// past the buffered partial one is compressed in place, in one
    /// kernel call.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = input.len() - input.len() % BLOCK_LEN;
        if whole > 0 {
            compress_blocks(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length at
        // the end of the first block with room for it after the 0x80 — one
        // block, or two when 56 or more bytes are buffered.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        let n = self.buffered;
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress_blocks(&mut state, &tail[..len]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: `Sha256::digest(m)`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// The SHA-256 kernel this CPU runs: `sha-ni` (the x86 SHA extensions) or
/// `scalar`.
pub fn kernel_tier() -> &'static str {
    if crate::sha_ni() {
        "sha-ni"
    } else {
        "scalar"
    }
}

/// Blocks this thread has compressed on the SHA-NI kernel (0 on a CPU
/// without it). Test and debug builds only: tests, this crate's and
/// others', read it to prove that their hashing reached the kernel.
#[cfg(any(test, debug_assertions))]
#[doc(hidden)]
pub fn kernel_blocks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::SHA_BLOCKS.with(|n| n.get())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// Compresses every block of `blocks` (a whole number of them) into
/// `state`: one SHA-NI kernel call where the CPU has the extensions,
/// otherwise the scalar [`compress`] per block.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(BLOCK_LEN));
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni() {
        crate::simd::sha256_blocks(state, blocks);
        return;
    }
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress(state, block.try_into().expect("one block"));
    }
}

/// The FIPS 180-4 compression function, one block: the fallback on CPUs
/// without SHA-NI and the oracle the kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 180-4 / classic test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The textbook digest: the whole padded message built in memory,
    /// then the scalar [`compress`] one block at a time.
    fn oracle_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(BLOCK_LEN) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn kernel_matches_scalar_compress() {
        let mut rng = cio_sim::SimRng::seed_from(0x5a_256);
        let before = kernel_blocks();
        let mut blocks = 0;
        for i in 0..20_000 {
            let state: [u32; 8] = core::array::from_fn(|_| rng.next_u64() as u32);
            // Mostly single blocks, every eighth case a run of 2..=9.
            let n = if i % 8 == 7 { 2 + i / 8 % 8 } else { 1 };
            let mut data = vec![0u8; n * BLOCK_LEN];
            rng.fill_bytes(&mut data);
            let mut expected = state;
            for block in data.chunks_exact(BLOCK_LEN) {
                compress(&mut expected, block.try_into().unwrap());
            }
            let mut got = state;
            compress_blocks(&mut got, &data);
            assert_eq!(got, expected, "case {i}");
            blocks += n as u64;
        }
        if crate::sha_ni() {
            assert_eq!(
                kernel_blocks() - before,
                blocks,
                "every block on the kernel"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expected = oracle_digest(&data);
        let mut blockwise = Sha256::new();
        for block in data.chunks(BLOCK_LEN) {
            blockwise.update(block);
        }
        assert_eq!(blockwise.finalize(), expected);
        for split in (0..=130).chain([999, 1000]) {
            let before = kernel_blocks();
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split {split}");
            if crate::sha_ni() {
                // Fifteen whole blocks and one padding block, every one
                // of them on the kernel.
                assert_eq!(kernel_blocks() - before, 16, "split {split}");
            }
        }
    }

    #[test]
    fn length_boundary_paddings() {
        // One padding block below 56 buffered bytes, two from 56 up:
        // one-shot and a byte per update, against the textbook digest.
        for len in [0usize, 55, 56, 57, 63, 64, 119, 120, 1_000_000] {
            let data = vec![b'a'; len];
            let d1 = Sha256::digest(&data);
            assert_eq!(d1, oracle_digest(&data), "len {len}");
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
