//! Machine-speed reference.
//!
//! On the shared two-core box this benchmark runs on, identical CPU-bound
//! work takes 290 ms one minute and 330 ms the next, and CPU time moves
//! with latency: it is the machine, not the program. The phases last tens
//! of seconds, longer than any window the run budget allows, so a median
//! inside the window cannot remove them (and they go both ways, so a low
//! quantile or a best block does worse than the median).
//!
//! A fixed compute kernel run by the driver right after an op slows down
//! and speeds up with them. So the driver runs this reference after ops
//! (after every op of a CPU-heavy workload; see `SAMPLE_EVERY_CPU_MS` in
//! the harness) and re-prices the *CPU share* of each op's timing at
//! reference speed:
//!
//! ```text
//! slowness = mean(last reference before the op, first after it) / nominal
//! cpu_norm = cpu / slowness
//! lat_norm = lat - min(cpu, lat) * (1 - 1/slowness)
//! ```
//!
//! Waiting (a 40 ms delayed-ACK timer, a socket transfer) is left as
//! measured; only time the server spent on a CPU is corrected.
//!
//! The kernel was chosen by measurement, not taste. 25 consecutive 20 s
//! `recluster` windows (66 ops each), every op followed by four candidate
//! probes, then every estimator computed offline on the same data; spread
//! of the 25 window values, as quartile distance and range over median:
//!
//! | estimator of the op's median latency        | IQR    | range  |
//! |---|---|---|
//! | raw median                                  | 6.7 %  | 21.7 % |
//! | raw p25 / p10 / best block                  | 8–17 % | 29–31 % |
//! | ÷ dot kernel, warm, mean of before & after  | 1.1 %  | 4.0 %  |
//! | ÷ dot kernel, first run after wake-up       | 1.5 %  | 4.7 %  |
//! | ÷ dot kernel, median within ±2.5 s          | 1.8 %  | 5.7 %  |
//! | ÷ dot kernel, one value per window          | 2.1 %  | 8.1 %  |
//! | ÷ (dots + pointer walk over 4 MiB) / 2      | 2.6 %  | 9.9 %  |
//! | ÷ pointer walk alone                        | 3.1 %  | 16.9 % |
//!
//! Hence: pairwise dot products (the flavour of the distance kernels),
//! sampled right after ops, each op divided by the mean of its two
//! neighbouring samples. A sample is the fastest of a few back-to-back
//! runs, which in the study did as well as a single warm run (1.1 %) and
//! survives the driver being time-sliced against a still-busy server. The
//! kernel lives in the benchmark, not in the program, so no change to the
//! program can move it.

use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 400;
const COLS: usize = 48;

/// Nominal kernel time in milliseconds: what one run takes on this class
/// of machine in a quiet minute. It only fixes the scale of "reference
/// speed"; every comparison is between runs on one machine.
const NOMINAL_MS: f64 = 1.25;
/// Kernel runs per sample.
const RUNS: usize = 5;

pub struct Reference {
    matrix: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let matrix = (0..ROWS * COLS)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f32 / 1000.0)
            .collect();
        Reference { matrix }
    }

    fn dots(&self) -> f32 {
        let a = &self.matrix;
        let mut acc = 0.0f32;
        for i in 0..ROWS {
            let ri = &a[i * COLS..(i + 1) * COLS];
            for j in (i + 1)..ROWS {
                let rj = &a[j * COLS..(j + 1) * COLS];
                let mut s = 0.0f32;
                for k in 0..COLS {
                    s += ri[k] * rj[k];
                }
                acc += s;
            }
        }
        acc
    }

    /// How slow the machine is right now, 1.0 being nominal and 1.2
    /// meaning CPU work takes a fifth longer: the **fastest** of
    /// [`RUNS`] kernel runs, about 7 ms in all. The first run also gets
    /// the core out of its wake-up ramp. The minimum, because on two
    /// vCPUs the driver sometimes shares its core with a server thread
    /// that is still busy (checkpoint writes after a `restore` op): a
    /// time-sliced run reads 2–6× long, while the fastest of a handful
    /// stayed within 1.54–1.72 ms over the same ops.
    pub fn slowness(&self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..RUNS {
            let started = Instant::now();
            black_box(black_box(self).dots());
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
        }
        best / NOMINAL_MS
    }
}

/// A wall-clock duration with its CPU share re-priced at reference speed.
pub fn normalise(wall_ms: f64, cpu_ms: f64, slowness: f64) -> f64 {
    let slowness = slowness.max(1e-6);
    wall_ms - cpu_ms.clamp(0.0, wall_ms) * (1.0 - 1.0 / slowness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_cpu_share_is_repriced() {
        // all CPU, machine 25 % slow: 500 ms of work is 400 ms at nominal
        assert!((normalise(500.0, 500.0, 1.25) - 400.0).abs() < 1e-9);
        // all waiting: untouched however slow the machine is
        assert_eq!(normalise(44.0, 0.0, 1.25), 44.0);
        // 44 ms of stall plus 25 ms of CPU on a 25 % slow machine
        assert!((normalise(69.0, 25.0, 1.25) - 64.0).abs() < 1e-9);
        // CPU time above the wall time (two busy processes) is capped
        assert!((normalise(100.0, 180.0, 2.0) - 50.0).abs() < 1e-9);
        // nominal machine: nothing changes
        assert_eq!(normalise(300.0, 290.0, 1.0), 300.0);
    }

    #[test]
    fn slowness_is_a_positive_finite_ratio() {
        let s = Reference::new().slowness();
        assert!(s.is_finite() && s > 0.0);
    }
}
