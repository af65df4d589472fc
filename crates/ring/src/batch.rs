//! The per-iteration packet batch.
//!
//! The OVS userspace datapath processes packets in batches of up to 32;
//! "the basic AF_XDP design assumes that packets arrive in a userspace rx
//! ring in batches" (§3.2, O3). A [`PacketBatch`] is the unit every netdev
//! `rx`/`tx` call and every datapath pass operates on.

use ovs_packet::DpPacket;

/// Maximum packets per batch, matching OVS's `NETDEV_MAX_BURST`.
pub const BATCH_SIZE: usize = 32;

/// A batch of up to [`BATCH_SIZE`] packets.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pkts: Vec<DpPacket>,
}

impl PacketBatch {
    /// An empty batch with capacity reserved.
    pub fn new() -> Self {
        Self {
            pkts: Vec::with_capacity(BATCH_SIZE),
        }
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// True when the batch is at capacity.
    pub fn is_full(&self) -> bool {
        self.pkts.len() >= BATCH_SIZE
    }

    /// Add a packet. Returns `Err(pkt)` when full — the rejected packet
    /// goes back to the caller by value so it can be retried or counted.
    pub fn push(&mut self, pkt: DpPacket) -> Result<(), DpPacket> {
        if self.is_full() {
            return Err(pkt);
        }
        self.pkts.push(pkt);
        Ok(())
    }

    /// Remove and return all packets.
    pub fn drain(&mut self) -> impl Iterator<Item = DpPacket> + '_ {
        self.pkts.drain(..)
    }

    /// Iterate over the packets.
    pub fn iter(&self) -> impl Iterator<Item = &DpPacket> {
        self.pkts.iter()
    }

    /// Iterate mutably over the packets.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut DpPacket> {
        self.pkts.iter_mut()
    }

    /// Total bytes across the batch.
    pub fn total_bytes(&self) -> usize {
        self.pkts.iter().map(|p| p.len()).sum()
    }
}

impl FromIterator<DpPacket> for PacketBatch {
    fn from_iter<I: IntoIterator<Item = DpPacket>>(iter: I) -> Self {
        let mut b = Self::new();
        for p in iter.into_iter().take(BATCH_SIZE) {
            let _ = b.push(p);
        }
        b
    }
}

impl IntoIterator for PacketBatch {
    type Item = DpPacket;
    type IntoIter = std::vec::IntoIter<DpPacket>;

    fn into_iter(self) -> Self::IntoIter {
        self.pkts.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full() {
        let mut b = PacketBatch::new();
        for i in 0..BATCH_SIZE {
            assert!(b.push(DpPacket::from_data(&[i as u8])).is_ok());
        }
        assert!(b.is_full());
        assert!(b.push(DpPacket::from_data(&[0])).is_err());
        assert_eq!(b.len(), BATCH_SIZE);
    }

    #[test]
    fn drain_empties() {
        let mut b: PacketBatch = (0..5).map(|i| DpPacket::from_data(&[i])).collect();
        assert_eq!(b.len(), 5);
        let drained: Vec<_> = b.drain().collect();
        assert_eq!(drained.len(), 5);
        assert!(b.is_empty());
        assert_eq!(drained[3].data(), &[3]);
    }

    #[test]
    fn total_bytes() {
        let b: PacketBatch = [vec![0u8; 10], vec![0u8; 20]]
            .into_iter()
            .map(|d| DpPacket::from_data(&d))
            .collect();
        assert_eq!(b.total_bytes(), 30);
    }

    #[test]
    fn from_iter_caps_at_batch_size() {
        let b: PacketBatch = (0..100).map(|_| DpPacket::from_data(&[0])).collect();
        assert_eq!(b.len(), BATCH_SIZE);
    }
}
