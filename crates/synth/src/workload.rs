//! The seeded RNG that shapes generated traffic. The traffic generator
//! itself lives in `fv_api::workload`, where it builds typed script items
//! that the one request formatter writes; this module keeps only the
//! generator's random source, which other seeded harnesses share.

/// Deterministic xorshift64* RNG (the balance_sim pattern): tiny, seeded,
/// and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct WorkloadRng(u64);

impl WorkloadRng {
    pub fn new(seed: u64) -> WorkloadRng {
        WorkloadRng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform draw in `0..bound` (`bound` 0 is treated as 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}
