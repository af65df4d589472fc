//! Ethernet line-rate arithmetic.
//!
//! Converts between link speed, frame size, and packet rate, accounting for
//! the 20 bytes of per-frame wire overhead (7-byte preamble, 1-byte SFD,
//! 12-byte inter-frame gap) that sit outside the frame itself. With this
//! math a 10 GbE link carries 14.88 Mpps of 64-byte frames and a 25 GbE
//! link carries 2.03 Mpps of 1518-byte frames — the ceilings visible in
//! Table 5 ("14 Mpps line rate for a 10 Gbps link") and Fig 12.

/// Preamble + SFD + inter-frame gap, bytes per frame on the wire.
pub const WIRE_OVERHEAD_BYTES: usize = 20;

/// A link's nominal bit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRate {
    bits_per_sec: f64,
}

impl LineRate {
    /// A link of `gbps` gigabits per second.
    pub fn gbps(gbps: f64) -> Self {
        Self {
            bits_per_sec: gbps * 1e9,
        }
    }

    /// The paper's NSX testbed: Intel X540 10 GbE.
    pub fn ten_gbe() -> Self {
        Self::gbps(10.0)
    }

    /// The paper's microbenchmark testbed: Mellanox ConnectX-6 Dx 25 GbE.
    pub fn twenty_five_gbe() -> Self {
        Self::gbps(25.0)
    }

    /// Maximum frames per second for `frame_len`-byte frames (including FCS).
    pub fn max_pps(&self, frame_len: usize) -> f64 {
        self.bits_per_sec / (((frame_len + WIRE_OVERHEAD_BYTES) * 8) as f64)
    }

    /// Maximum frame rate in Mpps.
    pub fn max_mpps(&self, frame_len: usize) -> f64 {
        self.max_pps(frame_len) / 1e6
    }

    /// Goodput (frame bits only, no wire overhead) at a given packet rate,
    /// in Gbps. Saturates at what the line can carry.
    pub fn goodput_gbps(&self, frame_len: usize, mpps: f64) -> f64 {
        let capped = mpps.min(self.max_mpps(frame_len));
        capped * 1e6 * (frame_len * 8) as f64 / 1e9
    }

    /// Serialization time of one frame, nanoseconds.
    pub fn serialization_ns(&self, frame_len: usize) -> f64 {
        ((frame_len + WIRE_OVERHEAD_BYTES) * 8) as f64 * 1e9 / self.bits_per_sec
    }
}

/// Line-rate packet rate in Mpps for a link speed and frame size.
pub fn line_rate_mpps(gbps: f64, frame_len: usize) -> f64 {
    LineRate::gbps(gbps).max_mpps(frame_len)
}

/// Convert a packet rate (Mpps) to frame-payload throughput (Gbps).
pub fn mpps_to_gbps(mpps: f64, frame_len: usize) -> f64 {
    mpps * 1e6 * (frame_len * 8) as f64 / 1e9
}

/// Convert throughput (Gbps of frame bits) to a packet rate (Mpps).
pub fn gbps_to_mpps(gbps: f64, frame_len: usize) -> f64 {
    gbps * 1e9 / ((frame_len * 8) as f64) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gbe_64b_is_14_88_mpps() {
        let r = LineRate::ten_gbe().max_mpps(64);
        assert!((r - 14.8809).abs() < 0.001, "got {r}");
    }

    #[test]
    fn twenty_five_gbe_1518b_is_2_03_mpps() {
        let r = LineRate::twenty_five_gbe().max_mpps(1518);
        assert!((r - 2.0319).abs() < 0.001, "got {r}");
    }

    #[test]
    fn goodput_caps_at_line_rate() {
        let line = LineRate::ten_gbe();
        // Offered 100 Mpps of 64B is capped to line rate.
        let g = line.goodput_gbps(64, 100.0);
        let max = line.max_mpps(64) * 1e6 * 512.0 / 1e9;
        assert!((g - max).abs() < 1e-9);
    }

    #[test]
    fn mpps_gbps_roundtrip() {
        let g = mpps_to_gbps(2.0, 1518);
        assert!((gbps_to_mpps(g, 1518) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn serialization_time_64b_10g() {
        // 84 bytes * 8 / 10 Gbps = 67.2 ns
        let ns = LineRate::ten_gbe().serialization_ns(64);
        assert!((ns - 67.2).abs() < 0.01);
    }
}
