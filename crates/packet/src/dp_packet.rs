//! `DpPacket` — the per-packet descriptor the OVS datapath carries.
//!
//! Mirrors OVS's `struct dp_packet`: the packet bytes plus metadata (input
//! port, layer offsets, the NIC-supplied or software-computed RSS hash,
//! offload flags, conntrack and tunnel state, recirculation id). The paper's
//! optimization **O4** (§3.2) preallocates these descriptors in a contiguous
//! array and pre-initializes the packet-independent fields; the pool lives
//! in `ovs-ring`, and [`DpPacket::reset`] is the reuse hook.

use crate::MacAddr;

/// Offset value meaning "not present / not parsed".
pub const OFS_INVALID: u16 = u16::MAX;

/// Checksum/segmentation offload state, mirroring OVS dp-packet flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadFlags {
    /// Receive path verified the L4 checksum (or HW did).
    pub csum_verified: bool,
    /// Transmit path should fill the L4 checksum (HW offload requested).
    pub csum_partial: bool,
    /// This buffer is a TSO "super-segment" larger than the MTU that the
    /// egress device (or software fallback) must segment.
    pub tso_segsz: Option<u16>,
}

/// Outer-tunnel metadata attached after decapsulation or before
/// encapsulation, equivalent to OVS `struct flow_tnl`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunnelMetadata {
    /// Tunnel key: Geneve/VXLAN VNI or GRE key.
    pub tun_id: u64,
    /// Outer source IPv4 address.
    pub src: [u8; 4],
    /// Outer destination IPv4 address.
    pub dst: [u8; 4],
    /// Outer IP TOS.
    pub tos: u8,
    /// Outer IP TTL.
    pub ttl: u8,
}

/// Connection-tracking state bits (subset of OVS `CS_*`).
pub mod ct_state {
    /// Packet is part of a tracked connection.
    pub const TRACKED: u8 = 0x01;
    /// Connection is new (this packet may create it).
    pub const NEW: u8 = 0x02;
    /// Connection is established (seen both directions).
    pub const ESTABLISHED: u8 = 0x04;
    /// Packet is in the reply direction.
    pub const REPLY: u8 = 0x08;
    /// Packet is related to an existing connection (e.g. ICMP error).
    pub const RELATED: u8 = 0x10;
    /// Packet could not be associated with a valid connection.
    pub const INVALID: u8 = 0x20;
}

/// A packet buffer plus OVS per-packet metadata.
///
/// The buffer keeps `headroom` spare bytes in front of the packet so tunnel
/// encapsulation can prepend headers without reallocating, as the real
/// dp_packet does.
#[derive(Debug, Clone)]
pub struct DpPacket {
    buf: Vec<u8>,
    /// Offset of the first packet byte within `buf`.
    head: usize,
    /// Packet length in bytes.
    len: usize,

    /// Datapath port the packet arrived on.
    pub in_port: u32,
    /// RSS hash of the 5-tuple, if computed (`None` forces software hashing,
    /// the cost the paper calls out in §5.5).
    pub rxhash: Option<u32>,
    /// Full extracted-slot hash of the packet's miniflow, computed once per
    /// pipeline pass and reused across EMC/SMC/dpcls probes — upstream's
    /// `dp_packet_get_rss_hash` caching behavior, extended to the 64-bit
    /// key hash.
    pub flow_hash: Option<u64>,
    /// Offset of the L3 header from the packet start, or [`OFS_INVALID`].
    pub l3_ofs: u16,
    /// Offset of the L4 header from the packet start, or [`OFS_INVALID`].
    pub l4_ofs: u16,
    /// Offload state.
    pub offloads: OffloadFlags,
    /// Recirculation id (0 = first pass).
    pub recirc_id: u32,
    /// Conntrack state bits (see [`ct_state`]).
    pub ct_state: u8,
    /// Conntrack zone.
    pub ct_zone: u16,
    /// Conntrack mark.
    pub ct_mark: u32,
    /// Tunnel metadata, when the packet was decapsulated or is to be
    /// encapsulated.
    pub tunnel: Option<TunnelMetadata>,
    /// Virtual-clock timestamp of rx ingestion, stamped when the packet
    /// enters the datapath pipeline and carried to tx delivery so the
    /// flush can record the rx→tx latency. `None` until stamped;
    /// derived packets (TSO segments, clones, encapsulated frames)
    /// inherit the original's stamp.
    pub rx_ts: Option<u64>,
}

/// Default headroom reserved for encapsulation headers: outer Ethernet (14)
/// + IPv4 (20) + UDP (8) + Geneve w/ options (8 + 16), rounded up.
pub const DEFAULT_HEADROOM: usize = 128;

impl DpPacket {
    /// An empty packet with the default headroom and `capacity` bytes of
    /// data room.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: vec![0; DEFAULT_HEADROOM + capacity],
            head: DEFAULT_HEADROOM,
            len: 0,
            in_port: 0,
            rxhash: None,
            flow_hash: None,
            l3_ofs: OFS_INVALID,
            l4_ofs: OFS_INVALID,
            offloads: OffloadFlags::default(),
            recirc_id: 0,
            ct_state: 0,
            ct_zone: 0,
            ct_mark: 0,
            tunnel: None,
            rx_ts: None,
        }
    }

    /// A packet initialized from raw frame bytes.
    pub fn from_data(data: &[u8]) -> Self {
        let mut p = Self::with_capacity(data.len());
        p.set_data(data);
        p
    }

    /// Replace the packet contents, keeping headroom available.
    pub fn set_data(&mut self, data: &[u8]) {
        let needed = DEFAULT_HEADROOM + data.len();
        if self.buf.len() < needed {
            self.buf.resize(needed, 0);
        }
        self.head = DEFAULT_HEADROOM;
        self.len = data.len();
        self.buf[self.head..self.head + self.len].copy_from_slice(data);
    }

    /// The packet bytes.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.head..self.head + self.len]
    }

    /// Mutable packet bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..self.head + self.len]
    }

    /// Packet length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the packet holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining headroom in front of the packet.
    pub fn headroom(&self) -> usize {
        self.head
    }

    /// Prepend `n` bytes, returning a mutable slice over the new front.
    ///
    /// Used by tunnel encapsulation. Panics if headroom is exhausted —
    /// callers size [`DEFAULT_HEADROOM`] for the deepest supported stack.
    pub fn push_front(&mut self, n: usize) -> &mut [u8] {
        assert!(
            n <= self.head,
            "headroom exhausted: need {n}, have {}",
            self.head
        );
        self.head -= n;
        self.len += n;
        &mut self.buf[self.head..self.head + n]
    }

    /// Drop `n` bytes from the front (tunnel decapsulation). Panics if the
    /// packet is shorter than `n`.
    pub fn pull_front(&mut self, n: usize) {
        assert!(n <= self.len, "pull beyond packet end");
        self.head += n;
        self.len -= n;
    }

    /// Append `n` zero bytes at the tail, returning a mutable slice over
    /// them.
    pub fn push_back(&mut self, n: usize) -> &mut [u8] {
        let needed = self.head + self.len + n;
        if self.buf.len() < needed {
            self.buf.resize(needed, 0);
        }
        let start = self.head + self.len;
        self.len += n;
        &mut self.buf[start..start + n]
    }

    /// Truncate the packet to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// The parsed L3 slice, if the extractor recorded an offset.
    pub fn l3(&self) -> Option<&[u8]> {
        if self.l3_ofs == OFS_INVALID {
            return None;
        }
        self.data().get(self.l3_ofs as usize..)
    }

    /// The parsed L4 slice, if the extractor recorded an offset.
    pub fn l4(&self) -> Option<&[u8]> {
        if self.l4_ofs == OFS_INVALID {
            return None;
        }
        self.data().get(self.l4_ofs as usize..)
    }

    /// Destination MAC of the (assumed Ethernet) frame, if long enough.
    pub fn eth_dst(&self) -> Option<MacAddr> {
        MacAddr::from_slice(self.data())
    }

    /// Reset all metadata and contents for reuse from a preallocated pool
    /// (optimization O4). Keeps the allocation.
    pub fn reset(&mut self) {
        self.head = DEFAULT_HEADROOM.min(self.buf.len());
        self.len = 0;
        self.reset_metadata();
    }

    /// Reset all metadata but keep the bytes: the state of a packet
    /// freshly built from them.
    pub fn reset_metadata(&mut self) {
        self.in_port = 0;
        self.rxhash = None;
        self.flow_hash = None;
        self.l3_ofs = OFS_INVALID;
        self.l4_ofs = OFS_INVALID;
        self.offloads = OffloadFlags::default();
        self.recirc_id = 0;
        self.ct_state = 0;
        self.ct_zone = 0;
        self.ct_mark = 0;
        self.tunnel = None;
        self.rx_ts = None;
    }
}

impl Default for DpPacket {
    fn default() -> Self {
        Self::with_capacity(2048 - DEFAULT_HEADROOM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_roundtrip() {
        let p = DpPacket::from_data(&[1, 2, 3, 4]);
        assert_eq!(p.data(), &[1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.headroom(), DEFAULT_HEADROOM);
    }

    #[test]
    fn push_pull_front() {
        let mut p = DpPacket::from_data(&[9, 9]);
        p.push_front(3).copy_from_slice(&[1, 2, 3]);
        assert_eq!(p.data(), &[1, 2, 3, 9, 9]);
        p.pull_front(3);
        assert_eq!(p.data(), &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "headroom exhausted")]
    fn push_front_beyond_headroom_panics() {
        let mut p = DpPacket::from_data(&[0]);
        p.push_front(DEFAULT_HEADROOM + 1);
    }

    #[test]
    fn push_back_grows() {
        let mut p = DpPacket::from_data(&[1]);
        p.push_back(3).copy_from_slice(&[2, 3, 4]);
        assert_eq!(p.data(), &[1, 2, 3, 4]);
    }

    #[test]
    fn l3_l4_offsets() {
        let mut p = DpPacket::from_data(&[0u8; 64]);
        assert!(p.l3().is_none());
        p.l3_ofs = 14;
        p.l4_ofs = 34;
        assert_eq!(p.l3().unwrap().len(), 50);
        assert_eq!(p.l4().unwrap().len(), 30);
    }

    #[test]
    fn reset_clears_metadata_keeps_alloc() {
        let mut p = DpPacket::from_data(&[1, 2, 3]);
        p.in_port = 7;
        p.recirc_id = 5;
        p.ct_state = ct_state::TRACKED;
        p.tunnel = Some(TunnelMetadata::default());
        p.rx_ts = Some(12345);
        let cap_before = p.buf.capacity();
        p.reset();
        assert_eq!(p.len(), 0);
        assert_eq!(p.in_port, 0);
        assert_eq!(p.recirc_id, 0);
        assert_eq!(p.ct_state, 0);
        assert!(p.tunnel.is_none());
        assert!(p.rx_ts.is_none());
        assert_eq!(p.buf.capacity(), cap_before);
    }

    #[test]
    fn truncate_shrinks_only() {
        let mut p = DpPacket::from_data(&[1, 2, 3, 4]);
        p.truncate(2);
        assert_eq!(p.data(), &[1, 2]);
        p.truncate(10);
        assert_eq!(p.len(), 2);
    }
}
