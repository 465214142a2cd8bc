//! Deterministic yield injection for seeded interleaving stress tests.
//!
//! Lock-free protocols have race windows (between a load and its CAS,
//! between a flag store and the notify check) that real schedulers hit
//! only rarely. The stress tests widen those windows deterministically: a
//! seeded fair coin decides, at every marked injection point, whether the
//! thread yields its timeslice. The same seed replays the same decision
//! sequence, so a failing interleaving is reproducible. Disabled (and
//! branch-predicted away) in normal operation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A seeded source of deterministic `yield_now` decisions shared by all
/// threads of one stressed structure.
pub struct YieldInject {
    seed: u64,
    ticket: AtomicU64,
}

impl YieldInject {
    /// A new injector; the same seed reproduces the same decision stream.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ticket: AtomicU64::new(0),
        }
    }

    /// Flips the next coin in the stream and yields on heads.
    pub fn maybe_yield(&self) {
        let t = self.ticket.fetch_add(1, Ordering::Relaxed);
        // splitmix64 finalizer over (seed, ticket): a fair deterministic coin.
        let mut z = self
            .seed
            .wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (z ^ (z >> 31)) & 1 == 0 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_fair_and_deterministic() {
        // The same seed produces the same stream; the coin is roughly fair.
        let heads = |seed: u64| {
            let inj = YieldInject::new(seed);
            let mut count = 0;
            for _ in 0..1000 {
                let t = inj.ticket.load(Ordering::Relaxed);
                inj.maybe_yield();
                // Re-derive the coin to count without sleeping on it.
                let mut z = seed.wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                if (z ^ (z >> 31)) & 1 == 0 {
                    count += 1;
                }
            }
            count
        };
        let a = heads(7);
        assert_eq!(a, heads(7));
        assert!((300..700).contains(&a), "coin badly biased: {a}/1000");
    }
}
