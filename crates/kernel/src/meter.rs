//! OpenFlow meters: token-bucket rate limiting.
//!
//! "Traffic shaping and policing is still missing, so we currently use
//! the OpenFlow meter action to support rate limiting, which is not fully
//! equivalent" (§6). This is that substitute: a policer that drops over-
//! rate packets, with no queueing/shaping. Both datapaths run it: the
//! kernel module's `meters` and ovs-core's `DpifNetdev::meters` are each
//! a [`MeterSet`], offered every packet that reaches a `Meter` action, as
//! the kernel's `OVS_ACTION_ATTR_METER` (Linux 4.15+) and userspace
//! meters are in OVS.

/// One token-bucket meter.
#[derive(Debug, Clone)]
pub struct Meter {
    /// Rate in bits per second.
    pub rate_bps: u64,
    /// Bucket depth in bits.
    pub burst_bits: u64,
    tokens_bits: f64,
    last_ns: u64,
    /// Packets dropped by this meter.
    pub drops: u64,
    /// Packets passed.
    pub passes: u64,
}

impl Meter {
    /// A meter passing `rate_bps` with `burst_bits` of burst tolerance.
    pub fn new(rate_bps: u64, burst_bits: u64) -> Self {
        Self {
            rate_bps,
            burst_bits,
            tokens_bits: burst_bits as f64,
            last_ns: 0,
            drops: 0,
            passes: 0,
        }
    }

    /// Offer a packet of `len` bytes at virtual time `now_ns`. Returns
    /// `true` if it passes, `false` if the policer drops it.
    pub fn offer(&mut self, now_ns: u64, len: usize) -> bool {
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        self.tokens_bits = (self.tokens_bits + elapsed as f64 * self.rate_bps as f64 / 1e9)
            .min(self.burst_bits as f64);
        let need = (len * 8) as f64;
        if self.tokens_bits >= need {
            self.tokens_bits -= need;
            self.passes += 1;
            true
        } else {
            self.drops += 1;
            false
        }
    }
}

/// A meter table keyed by meter id.
#[derive(Debug, Default)]
pub struct MeterSet {
    meters: std::collections::HashMap<u32, Meter>,
}

impl MeterSet {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace a meter.
    pub fn set(&mut self, id: u32, meter: Meter) {
        self.meters.insert(id, meter);
    }

    /// Remove a meter.
    pub fn remove(&mut self, id: u32) -> bool {
        self.meters.remove(&id).is_some()
    }

    /// Offer a packet to meter `id`. Unknown meters pass (as OVS does).
    pub fn offer(&mut self, id: u32, now_ns: u64, len: usize) -> bool {
        match self.meters.get_mut(&id) {
            Some(m) => m.offer(now_ns, len),
            None => true,
        }
    }

    /// Borrow a meter for stats.
    pub fn get(&self, id: u32) -> Option<&Meter> {
        self.meters.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_under_rate_drops_over() {
        // 8 Mbps, small burst of one 1000-byte packet.
        let mut m = Meter::new(8_000_000, 8_000);
        assert!(m.offer(0, 1000), "burst allows the first packet");
        assert!(!m.offer(1, 1000), "bucket empty immediately after");
        // After 1 ms at 8 Mbps, 8000 bits accumulate: one more packet.
        assert!(m.offer(1_000_000, 1000));
        assert_eq!(m.passes, 2);
        assert_eq!(m.drops, 1);
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 80 Mbps; offer 64-byte packets every 1 us (512 Mbps offered).
        let mut m = Meter::new(80_000_000, 10_000);
        let mut passed = 0;
        for i in 0..10_000u64 {
            if m.offer(i * 1_000, 64) {
                passed += 1;
            }
        }
        // 10 ms at 80 Mbps = 800,000 bits = ~1562 packets of 512 bits.
        let expected = 800_000 / 512;
        assert!(
            (passed as i64 - expected as i64).abs() < 50,
            "passed {passed}, expected ~{expected}"
        );
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut m = Meter::new(1_000_000, 4_096);
        // A long idle period must not accumulate unbounded tokens.
        assert!(m.offer(10_000_000_000, 512)); // 4096 bits
        assert!(!m.offer(10_000_000_001, 512), "only one burst's worth");
    }

    #[test]
    fn meterset_unknown_passes() {
        let mut ms = MeterSet::new();
        assert!(ms.offer(9, 0, 1500));
        ms.set(1, Meter::new(8_000, 800));
        assert!(ms.offer(1, 0, 100));
        assert!(!ms.offer(1, 1, 100));
        assert!(ms.remove(1));
        assert!(ms.offer(1, 2, 100), "removed meter passes again");
    }
}
