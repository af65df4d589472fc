//! # ovs-packet — wire formats and flow keys
//!
//! Typed, bounds-checked views over raw packet bytes in the style of
//! smoltcp: a `Packet<&[u8]>` wrapper validates lengths once
//! (`check_len`), then field accessors index without panicking on
//! untrusted input. Emission uses the same wrappers over `&mut [u8]`.
//!
//! The crate also provides the two structures the OVS datapath keys on:
//!
//! * [`DpPacket`] — a packet buffer plus the metadata OVS tracks per packet
//!   (input port, layer offsets, RSS hash, offload flags, conntrack and
//!   tunnel state). The paper's optimization **O4** (§3.2) preallocates
//!   these; `ovs-ring` provides the preallocated pool. A descriptor keeps
//!   the header parse of its bytes ([`FrameParse`]) until they change, so
//!   extraction, the conntrack key, the tunnel entropy and the software
//!   rxhash share one parse.
//! * [`FlowKey`] — the fixed-width header fingerprint extracted from a
//!   packet, stored as maskable 64-bit words so the exact-match cache,
//!   megaflow cache, and tuple-space-search classifier can hash and compare
//!   under a [`FlowMask`].
//! * [`Miniflow`] / [`MiniMask`] — the sparse forms of the two (presence
//!   bitmap + packed non-zero words, OVS's `struct miniflow`) that the fast
//!   path extracts, hashes, and matches on; a full [`FlowKey`] is only
//!   expanded on the upcall/miss path.
//!
//! Supported protocols: Ethernet II, 802.1Q VLAN, ARP, IPv4, IPv6, TCP,
//! UDP, ICMPv4, and the tunnel encapsulations the paper's NSX deployment
//! uses: Geneve, VXLAN, and GRE/ERSPAN.

pub mod arp;
pub mod builder;
pub mod checksum;
pub mod dp_packet;
pub mod ethernet;
pub mod flow;
pub mod geneve;
pub mod gre;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod tcp;
pub mod udp;
pub mod vlan;
pub mod vxlan;

pub use dp_packet::{DpPacket, OffloadFlags};
pub use ethernet::{EtherType, EthernetFrame};
pub use flow::{
    extract_flow_key, extract_miniflow, FlowKey, FlowMask, FrameParse, MiniMask, Miniflow,
};
pub use mac::MacAddr;

/// Error returned when a buffer is too short or a field is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the protocol's minimum header.
    Truncated,
    /// A length field points outside the buffer.
    BadLength,
    /// A version or type field has an unsupported value.
    Unsupported,
    /// A checksum failed verification.
    BadChecksum,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "buffer truncated"),
            ParseError::BadLength => write!(f, "length field out of range"),
            ParseError::Unsupported => write!(f, "unsupported version or type"),
            ParseError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Result alias for packet parsing.
pub type Result<T> = std::result::Result<T, ParseError>;
