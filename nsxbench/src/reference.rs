//! A fixed reference kernel that reads how fast the host runs right now.
//!
//! On a shared host, other tenants slow whole stretches of a run, by tens
//! of percent for seconds to minutes, and they slow the benchmark's own
//! code as much as the program's. The kernel below belongs to the
//! benchmark and never changes with the program, so a time measured in
//! one stretch, divided by the kernel's time read in the same stretch,
//! follows the program rather than its neighbours. Gated times are quoted
//! at the speed the kernel reads [`NOMINAL_NS`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes the kernel copies and sums per pass: more than the private L1
/// caches hold, as a frame-copying datapath's working set does.
const BUF_BYTES: usize = 64 * 1024;
/// Copy-and-sum passes per kernel run.
const PASSES: usize = 8;
/// Kernel runs per reading; a reading keeps the fastest.
const RUNS: usize = 3;
/// The kernel's time on a quiet 2.1 GHz Xeon vCPU. Scaled times read
/// as wall times on a host running at that speed.
pub const NOMINAL_NS: f64 = 100_000.0;
/// Wall time between readings inside a timed phase.
pub const EVERY: Duration = Duration::from_millis(50);

/// The kernel's two buffers.
pub struct Reference {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            src: (0..BUF_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; BUF_BYTES],
        }
    }

    /// One reading: the kernel's fastest of [`RUNS`] back-to-back runs,
    /// in wall ns. A run copies one buffer into the other and sums the
    /// copy, [`PASSES`] times.
    pub fn read(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..RUNS {
            let t0 = Instant::now();
            for _ in 0..PASSES {
                self.dst.copy_from_slice(black_box(&self.src));
                let sum: u64 = self.dst.iter().map(|&b| u64::from(b)).sum();
                self.src[sum as usize % BUF_BYTES] ^= 1;
            }
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    }
}

/// A time measured while the kernel read `ref_ns`, as it would read on a
/// host where the kernel takes [`NOMINAL_NS`].
pub fn scale_time(ns: f64, ref_ns: f64) -> f64 {
    ns * NOMINAL_NS / ref_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniformly_slower_host() {
        // Twice as slow: every time doubles, and so does the reading.
        let (t, r) = (150.0, 1.5 * NOMINAL_NS);
        assert_eq!(scale_time(2.0 * t, 2.0 * r), scale_time(t, r));
        assert_eq!(scale_time(t, NOMINAL_NS), t);
    }

    #[test]
    fn a_reading_is_positive_and_leaves_the_copy_equal() {
        let mut k = Reference::new();
        assert!(k.read() > 0.0);
        let flipped = k.src.iter().zip(&k.dst).filter(|(a, b)| a != b).count();
        assert!(flipped <= 1, "only the last pass's flipped byte differs");
    }
}
