//! Workload inputs. Everything here is a pure function of `--seed`: the
//! benchmark owns the `SimRng`, the program only ever sees generated
//! bytes and keys.

use cio_sim::SimRng;

/// Largest single payload any workload draws.
pub const MAX_PAYLOAD: usize = 16 * 1024;

/// Random bytes every payload and value is a window of. A window is
/// named by its offset, so verifying an echo or a KV hit is one slice
/// comparison against bytes the benchmark already holds.
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    const LEN: usize = 4 * MAX_PAYLOAD;

    pub fn new(seed: u64) -> Pool {
        let mut bytes = vec![0u8; Pool::LEN];
        SimRng::seed_from(seed ^ 0x9001_B17E5).fill_bytes(&mut bytes);
        Pool { bytes }
    }

    /// Draws the offset of a `len`-byte window.
    pub fn draw(&self, rng: &mut SimRng, len: usize) -> u32 {
        rng.next_below((self.bytes.len() - len + 1) as u64) as u32
    }

    pub fn window(&self, off: u32, len: usize) -> &[u8] {
        &self.bytes[off as usize..off as usize + len]
    }
}

/// KV value sizes, bytes.
pub const KV_SIZES: [u32; 5] = [64, 256, 1024, 4096, 16_384];
/// Keys in the KV keyspace (all preloaded before the window).
pub const KV_KEYS: usize = 512;
/// Ops per balanced deck (see [`KvGen`]).
const DECK: usize = 100;

/// One generated KV operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    pub put: bool,
    pub key: u16,
    /// Value window (puts only).
    pub off: u32,
    pub len: u32,
}

/// The KV key table: fixed-width printable keys.
pub fn kv_keys() -> Vec<[u8; 8]> {
    (0..KV_KEYS)
        .map(|i| {
            let mut k = *b"key-0000";
            let digits = format!("{i:04}");
            k[4..].copy_from_slice(digits.as_bytes());
            k
        })
        .collect()
}

/// Generates KV operations in shuffled decks of 100: every deck holds
/// exactly `put_pct` puts and the value sizes in equal numbers, and only
/// the order, keys and value bytes depend on the seed. The op and size
/// mix is therefore identical for every seed, which keeps bytes written,
/// flushes and cycles per op steady from seed to seed while the access
/// pattern still varies.
pub struct KvGen {
    rng: SimRng,
    put_pct: usize,
    deck: [(bool, u32); DECK],
    next: usize,
}

impl KvGen {
    pub fn new(seed: u64, put_pct: usize) -> KvGen {
        assert!(put_pct <= DECK);
        KvGen {
            rng: SimRng::seed_from(seed ^ 0x6B76_6F70),
            put_pct,
            deck: [(false, 0); DECK],
            next: DECK,
        }
    }

    fn deal(&mut self) {
        for (i, card) in self.deck.iter_mut().enumerate() {
            *card = (i < self.put_pct, KV_SIZES[i % KV_SIZES.len()]);
        }
        for i in (1..DECK).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            self.deck.swap(i, j);
        }
        self.next = 0;
    }

    pub fn next_op(&mut self, pool: &Pool) -> KvOp {
        if self.next == DECK {
            self.deal();
        }
        let (put, len) = self.deck[self.next];
        self.next += 1;
        let key = self.rng.next_below(KV_KEYS as u64) as u16;
        let (off, len) = if put {
            (pool.draw(&mut self.rng, len as usize), len)
        } else {
            (0, 0)
        };
        KvOp { put, key, off, len }
    }
}

/// The preload: every key once, sizes cycling the ladder, in key order.
pub fn kv_preload(seed: u64, pool: &Pool) -> Vec<KvOp> {
    let mut rng = SimRng::seed_from(seed ^ 0x7072_656C);
    (0..KV_KEYS)
        .map(|i| {
            let len = KV_SIZES[i % KV_SIZES.len()];
            KvOp {
                put: true,
                key: i as u16,
                off: pool.draw(&mut rng, len as usize),
                len,
            }
        })
        .collect()
}

/// Draws the payload windows of the network workloads: one offset per
/// flow per op.
pub struct NetGen {
    rng: SimRng,
}

impl NetGen {
    pub fn new(seed: u64) -> NetGen {
        NetGen {
            rng: SimRng::seed_from(seed ^ 0x6E65_7470),
        }
    }

    pub fn next_off(&mut self, pool: &Pool, len: usize) -> u32 {
        pool.draw(&mut self.rng, len)
    }
}

/// The seed handed to the session plane's own load generator (the one
/// workload whose arrivals, closes and record sizes are drawn inside the
/// program).
pub fn session_seed(seed: u64) -> u64 {
    SimRng::seed_from(seed ^ 0x5E55_10AD).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_trace(seed: u64, put_pct: usize, n: usize) -> Vec<KvOp> {
        let pool = Pool::new(seed);
        let mut g = KvGen::new(seed, put_pct);
        (0..n).map(|_| g.next_op(&pool)).collect()
    }

    fn net_trace(seed: u64, n: usize) -> Vec<u32> {
        let pool = Pool::new(seed);
        let mut g = NetGen::new(seed);
        (0..n).map(|_| g.next_off(&pool, 64)).collect()
    }

    #[test]
    fn generators_are_a_pure_function_of_the_seed() {
        assert_eq!(kv_trace(0xC10B, 95, 1_000), kv_trace(0xC10B, 95, 1_000));
        assert_ne!(kv_trace(0xC10B, 95, 1_000), kv_trace(0x5EED2, 95, 1_000));
        assert_eq!(net_trace(0xC10B, 1_000), net_trace(0xC10B, 1_000));
        assert_ne!(net_trace(0xC10B, 1_000), net_trace(0x5EED2, 1_000));
        assert_eq!(Pool::new(7).bytes, Pool::new(7).bytes);
        assert_ne!(Pool::new(7).bytes, Pool::new(8).bytes);
        assert_eq!(session_seed(7), session_seed(7));
        assert_ne!(session_seed(7), session_seed(8));
        let pool = Pool::new(3);
        assert_eq!(kv_preload(3, &pool), kv_preload(3, &pool));
    }

    #[test]
    fn every_deck_holds_the_declared_mix() {
        for (seed, put_pct) in [(1u64, 95usize), (2, 5)] {
            let ops = kv_trace(seed, put_pct, 10 * DECK);
            for deck in ops.chunks(DECK) {
                assert_eq!(deck.iter().filter(|o| o.put).count(), put_pct);
            }
            let puts: Vec<_> = ops.iter().filter(|o| o.put).collect();
            for size in KV_SIZES {
                let n = puts.iter().filter(|o| o.len == size).count();
                assert_eq!(n, puts.len() / KV_SIZES.len(), "size {size}");
            }
            assert!(ops.iter().all(|o| (o.key as usize) < KV_KEYS));
        }
    }

    #[test]
    fn windows_stay_inside_the_pool() {
        let pool = Pool::new(9);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let off = pool.draw(&mut rng, MAX_PAYLOAD);
            assert_eq!(pool.window(off, MAX_PAYLOAD).len(), MAX_PAYLOAD);
        }
        assert_eq!(kv_keys()[511], *b"key-0511");
    }
}
