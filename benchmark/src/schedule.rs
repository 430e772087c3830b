//! Everything the seed decides.
//!
//! The workloads are deterministic programs over a virtual clock, so the
//! seed cannot vary their inputs. It varies what a measurement could be
//! biased by instead: which side of a bare/profiled pair runs first, the
//! order in which ladder rungs run within a round, and the iterations at
//! which `live_timeline` takes a live read. The program under test sees
//! only the resulting schedule.

/// SplitMix64: small, seedable, and good enough to shuffle a handful of
/// rungs; the generator is part of the benchmark's definition, so it
/// lives here rather than behind the repo's `rand` shim.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the workload called `salt`: workloads
    /// run under one seed must not all draw the same order.
    pub fn new(seed: u64, salt: &str) -> Self {
        // FNV-1a over the name, folded into the seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Which side of each bare/profiled pair runs first: the first pair's
/// order is drawn from the seed and the order then alternates, so over
/// any even number of pairs each side leads exactly half of them.
#[derive(Debug, Clone)]
pub struct PairOrder {
    first_bare: bool,
}

impl PairOrder {
    pub fn new(rng: &mut Rng) -> Self {
        PairOrder {
            first_bare: rng.next_u64() & 1 == 0,
        }
    }

    /// Whether the bare side of pair `index` (0-based) runs first.
    pub fn bare_first(&self, index: usize) -> bool {
        index.is_multiple_of(2) == self.first_bare
    }
}

/// Splits `iterations` into the chunks run between live reads: a read
/// follows every chunk but the last. Reads sit on a grid of one per
/// `cadence` iterations, each moved by up to `jitter` either way, so
/// every seed takes the same number of reads (their cost is part of
/// `overhead_x`) while where they fall relative to the timeline ring's
/// fill and the sampler's phase differs.
pub fn preview_chunks(rng: &mut Rng, iterations: u32, cadence: u32, jitter: u32) -> Vec<u32> {
    assert!(2 * jitter < cadence, "jittered reads must stay ordered");
    let mut chunks = Vec::new();
    let mut done = 0;
    for k in 1..iterations / cadence {
        let at = k * cadence - jitter + rng.range(0, 2 * jitter);
        chunks.push(at - done);
        done = at;
    }
    chunks.push(iterations - done);
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, "live_timeline");
            let order = PairOrder::new(&mut rng);
            let firsts: Vec<bool> = (0..12).map(|i| order.bare_first(i)).collect();
            let chunks = preview_chunks(&mut rng, 20_000, 500, 100);
            let mut rungs = vec![0, 1, 2, 3, 4, 5, 6];
            rng.shuffle(&mut rungs);
            (firsts, chunks, rungs)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).1, draw(8).1);
    }

    #[test]
    fn workloads_under_one_seed_draw_differently() {
        let a = Rng::new(1, "eager_llm").next_u64();
        let b = Rng::new(1, "jit_train").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn pair_order_alternates_and_balances() {
        for seed in 0..8 {
            let order = PairOrder::new(&mut Rng::new(seed, "w"));
            let firsts: Vec<bool> = (0..12).map(|i| order.bare_first(i)).collect();
            assert!(firsts.windows(2).all(|w| w[0] != w[1]));
            assert_eq!(firsts.iter().filter(|b| **b).count(), 6);
        }
    }

    #[test]
    fn preview_chunks_cover_the_run_with_a_fixed_number_of_reads() {
        for seed in 0..32 {
            let chunks = preview_chunks(&mut Rng::new(seed, "w"), 20_000, 500, 100);
            assert_eq!(chunks.iter().sum::<u32>(), 20_000);
            assert_eq!(chunks.len(), 40, "39 reads on every seed");
            let mut at = 0;
            for (k, chunk) in chunks[..39].iter().enumerate() {
                at += chunk;
                let grid = (k as u32 + 1) * 500;
                assert!((grid - 100..=grid + 100).contains(&at), "read {k} at {at}");
            }
        }
    }

    #[test]
    fn a_run_shorter_than_two_gaps_is_one_chunk() {
        let mut rng = Rng::new(3, "w");
        assert_eq!(preview_chunks(&mut rng, 300, 500, 100), vec![300]);
        assert_eq!(preview_chunks(&mut rng, 999, 500, 100), vec![999]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..9).collect();
        Rng::new(11, "w").shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<u32>>());
    }
}
