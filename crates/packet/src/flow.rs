//! Flow keys and masks — the maskable header fingerprint every OVS cache
//! level keys on.
//!
//! A [`FlowKey`] packs the parsed header fields into twelve 64-bit words
//! with a fixed layout, so that a [`FlowMask`] (one bitmask per word) can
//! express wildcarding at bit granularity. This is the same representation
//! trick as OVS's miniflow: the exact-match cache hashes all words, a
//! megaflow hashes `key & mask`, and the tuple-space-search classifier
//! groups rules by identical masks.
//!
//! Word layout (all fields big-endian within their word):
//!
//! | word | contents |
//! |------|----------|
//! | 0  | `in_port` (high 32) \| `recirc_id` (low 32) |
//! | 1  | `dl_src` (6 bytes) \| `eth_type` (2 bytes) |
//! | 2  | `dl_dst` (6 bytes) \| `vlan_tci` (2 bytes) |
//! | 3,4| `nw_src`: IPv6 bytes 0–7, 8–15; IPv4 in the low 32 bits of word 4 |
//! | 5,6| `nw_dst`: likewise |
//! | 7  | `nw_proto` \| `nw_tos` \| `nw_ttl` \| `nw_frag` \| `tp_src` \| `tp_dst` |
//! | 8  | `tun_id` |
//! | 9  | `tun_src` (high 32) \| `tun_dst` (low 32) |
//! | 10 | `ct_state` \| pad \| `ct_zone` \| `ct_mark` (low 32) |
//! | 11 | `metadata` (scratch register for pipeline state) |
//!
//! ARP reuses the IP fields the way OVS does: `nw_proto` holds the opcode,
//! `nw_src`/`nw_dst` hold SPA/TPA.

use crate::dp_packet::DpPacket;
use crate::ethernet::{self, EtherType, EthernetFrame};
use crate::mac::MacAddr;
use crate::{arp, icmp, ipv4, ipv6, tcp, udp, vlan};

/// Number of 64-bit words in a flow key.
pub const WORDS: usize = 12;

/// Fragment state encoded in the `nw_frag` byte.
pub mod nw_frag {
    /// Any fragment (first or later).
    pub const ANY: u8 = 0x1;
    /// A later fragment (offset != 0): L4 ports are unavailable.
    pub const LATER: u8 = 0x2;
}

/// A parsed, fixed-width flow key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlowKey {
    words: [u64; WORDS],
}

macro_rules! word_field {
    ($get:ident, $set:ident, $word:expr, $shift:expr, $ty:ty, $mask:expr, $doc:expr) => {
        #[doc = $doc]
        pub fn $get(&self) -> $ty {
            ((self.words[$word] >> $shift) & $mask) as $ty
        }

        #[doc = concat!("Set ", $doc)]
        pub fn $set(&mut self, v: $ty) {
            self.words[$word] =
                (self.words[$word] & !($mask << $shift)) | (((v as u64) & $mask) << $shift);
        }
    };
}

impl FlowKey {
    /// The raw words.
    pub fn words(&self) -> &[u64; WORDS] {
        &self.words
    }

    /// Construct directly from words (tests, proptest generators).
    pub fn from_words(words: [u64; WORDS]) -> Self {
        Self { words }
    }

    word_field!(
        in_port,
        set_in_port,
        0,
        32,
        u32,
        0xffff_ffff,
        "Datapath input port."
    );
    word_field!(
        recirc_id,
        set_recirc_id,
        0,
        0,
        u32,
        0xffff_ffff,
        "Recirculation id."
    );
    word_field!(
        eth_type_raw,
        set_eth_type_raw,
        1,
        0,
        u16,
        0xffff,
        "Raw EtherType."
    );
    word_field!(
        vlan_tci,
        set_vlan_tci,
        2,
        0,
        u16,
        0xffff,
        "VLAN TCI (0 = untagged)."
    );
    word_field!(
        nw_proto,
        set_nw_proto,
        7,
        56,
        u8,
        0xff,
        "IP protocol / ARP opcode."
    );
    word_field!(nw_tos, set_nw_tos, 7, 48, u8, 0xff, "IP TOS byte.");
    word_field!(nw_ttl, set_nw_ttl, 7, 40, u8, 0xff, "IP TTL / hop limit.");
    word_field!(
        nw_frag,
        set_nw_frag,
        7,
        32,
        u8,
        0xff,
        "Fragment state bits."
    );
    word_field!(tp_src, set_tp_src, 7, 16, u16, 0xffff, "L4 source port.");
    word_field!(
        tp_dst,
        set_tp_dst,
        7,
        0,
        u16,
        0xffff,
        "L4 destination port."
    );
    word_field!(
        tun_src,
        set_tun_src_raw,
        9,
        32,
        u32,
        0xffff_ffff,
        "Outer tunnel source IPv4 (as u32)."
    );
    word_field!(
        tun_dst,
        set_tun_dst_raw,
        9,
        0,
        u32,
        0xffff_ffff,
        "Outer tunnel destination IPv4 (as u32)."
    );
    word_field!(
        ct_state,
        set_ct_state,
        10,
        56,
        u8,
        0xff,
        "Conntrack state bits."
    );
    word_field!(ct_zone, set_ct_zone, 10, 32, u16, 0xffff, "Conntrack zone.");
    word_field!(
        ct_mark,
        set_ct_mark,
        10,
        0,
        u32,
        0xffff_ffff,
        "Conntrack mark."
    );

    /// EtherType as an enum.
    pub fn eth_type(&self) -> EtherType {
        EtherType::from_u16(self.eth_type_raw())
    }

    /// Set the EtherType.
    pub fn set_eth_type(&mut self, t: EtherType) {
        self.set_eth_type_raw(t.to_u16());
    }

    /// Source MAC.
    pub fn dl_src(&self) -> MacAddr {
        MacAddr::from_u64(self.words[1] >> 16)
    }

    /// Set the source MAC.
    pub fn set_dl_src(&mut self, m: MacAddr) {
        self.words[1] = (self.words[1] & 0xffff) | (m.to_u64() << 16);
    }

    /// Destination MAC.
    pub fn dl_dst(&self) -> MacAddr {
        MacAddr::from_u64(self.words[2] >> 16)
    }

    /// Set the destination MAC.
    pub fn set_dl_dst(&mut self, m: MacAddr) {
        self.words[2] = (self.words[2] & 0xffff) | (m.to_u64() << 16);
    }

    /// IPv4 source address (stored in the low 32 bits of word 4).
    pub fn nw_src_v4(&self) -> [u8; 4] {
        (self.words[4] as u32).to_be_bytes()
    }

    /// Set the IPv4 source address.
    pub fn set_nw_src_v4(&mut self, a: [u8; 4]) {
        self.words[3] = 0;
        self.words[4] = u64::from(u32::from_be_bytes(a));
    }

    /// IPv4 destination address.
    pub fn nw_dst_v4(&self) -> [u8; 4] {
        (self.words[6] as u32).to_be_bytes()
    }

    /// Set the IPv4 destination address.
    pub fn set_nw_dst_v4(&mut self, a: [u8; 4]) {
        self.words[5] = 0;
        self.words[6] = u64::from(u32::from_be_bytes(a));
    }

    /// IPv6 source address.
    pub fn nw_src_v6(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.words[3].to_be_bytes());
        out[8..].copy_from_slice(&self.words[4].to_be_bytes());
        out
    }

    /// Set the IPv6 source address.
    pub fn set_nw_src_v6(&mut self, a: [u8; 16]) {
        self.words[3] = u64::from_be_bytes(a[..8].try_into().unwrap());
        self.words[4] = u64::from_be_bytes(a[8..].try_into().unwrap());
    }

    /// IPv6 destination address.
    pub fn nw_dst_v6(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.words[5].to_be_bytes());
        out[8..].copy_from_slice(&self.words[6].to_be_bytes());
        out
    }

    /// Set the IPv6 destination address.
    pub fn set_nw_dst_v6(&mut self, a: [u8; 16]) {
        self.words[5] = u64::from_be_bytes(a[..8].try_into().unwrap());
        self.words[6] = u64::from_be_bytes(a[8..].try_into().unwrap());
    }

    /// Tunnel id (VNI / GRE key).
    pub fn tun_id(&self) -> u64 {
        self.words[8]
    }

    /// Set the tunnel id.
    pub fn set_tun_id(&mut self, id: u64) {
        self.words[8] = id;
    }

    /// Set the outer tunnel source address.
    pub fn set_tun_src(&mut self, a: [u8; 4]) {
        self.set_tun_src_raw(u32::from_be_bytes(a));
    }

    /// Set the outer tunnel destination address.
    pub fn set_tun_dst(&mut self, a: [u8; 4]) {
        self.set_tun_dst_raw(u32::from_be_bytes(a));
    }

    /// Pipeline metadata register.
    pub fn metadata(&self) -> u64 {
        self.words[11]
    }

    /// Set the pipeline metadata register.
    pub fn set_metadata(&mut self, v: u64) {
        self.words[11] = v;
    }

    /// The key with `mask` applied (wildcarded bits zeroed).
    pub fn masked(&self, mask: &FlowMask) -> FlowKey {
        let mut out = [0u64; WORDS];
        for (o, (k, m)) in out.iter_mut().zip(self.words.iter().zip(mask.words.iter())) {
            *o = k & m;
        }
        FlowKey { words: out }
    }

    /// True if this key matches `rule_key` under `mask`.
    pub fn matches(&self, rule_key: &FlowKey, mask: &FlowMask) -> bool {
        self.words
            .iter()
            .zip(rule_key.words.iter())
            .zip(mask.words.iter())
            .all(|((k, r), m)| (k ^ r) & m == 0)
    }

    /// A fast 64-bit hash of the key under `mask` (FNV-1a over the masked
    /// words, with an avalanche finalizer). Deterministic across runs.
    ///
    /// The finalizer matters: FNV's multiply only propagates entropy
    /// *upward*, so without it two keys differing in a high-order field
    /// (a port, a recirc id) share their low hash bits — and the EMC and
    /// SMC index their buckets with exactly those bits.
    pub fn hash_masked(&self, mask: &FlowMask) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, m) in self.words.iter().zip(mask.words.iter()) {
            h ^= k & m;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    /// A fast hash of the full key (all bits significant).
    pub fn hash(&self) -> u64 {
        self.hash_masked(&FlowMask::EXACT)
    }

    /// The 5-tuple RSS hash (src/dst IP, proto, src/dst port), the value
    /// AF_XDP must compute in software per §5.5.
    pub fn rss_hash(&self) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in [
            self.words[3],
            self.words[4],
            self.words[5],
            self.words[6],
            self.words[7] & 0xff00_0000_ffff_ffff, // proto + ports
        ] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h >> 32) as u32 ^ h as u32
    }
}

/// A per-bit wildcard mask over a [`FlowKey`]: 1-bits are significant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowMask {
    words: [u64; WORDS],
}

impl FlowMask {
    /// Match nothing (all bits wildcarded).
    pub const EMPTY: FlowMask = FlowMask { words: [0; WORDS] };

    /// Match every bit (exact match).
    pub const EXACT: FlowMask = FlowMask {
        words: [u64::MAX; WORDS],
    };

    /// The raw words.
    pub fn words(&self) -> &[u64; WORDS] {
        &self.words
    }

    /// Construct from raw words.
    pub fn from_words(words: [u64; WORDS]) -> Self {
        Self { words }
    }

    /// OR another mask into this one (union of significant bits). This is
    /// how megaflow wildcards accumulate during a pipeline traversal.
    pub fn unite(&mut self, other: &FlowMask) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Set the bits for one named field.
    pub fn set_field(&mut self, field: &Field) {
        self.words[field.word] |= field.mask;
    }

    /// A mask covering exactly the given fields.
    pub fn of_fields(fields: &[&Field]) -> Self {
        let mut m = Self::EMPTY;
        for f in fields {
            m.set_field(f);
        }
        m
    }

    /// True if every significant bit of `self` is also significant in
    /// `other` (i.e. `other` is at least as specific).
    pub fn subset_of(&self, other: &FlowMask) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of significant bits.
    pub fn bit_count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Add an IPv4 source prefix of `len` bits to the mask.
    pub fn set_nw_src_v4_prefix(&mut self, len: u8) {
        debug_assert!(len <= 32);
        let m = prefix32(len);
        self.words[4] |= u64::from(m);
    }

    /// Add an IPv4 destination prefix of `len` bits to the mask.
    pub fn set_nw_dst_v4_prefix(&mut self, len: u8) {
        debug_assert!(len <= 32);
        let m = prefix32(len);
        self.words[6] |= u64::from(m);
    }
}

fn prefix32(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

impl Default for FlowMask {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// A named match field: its word index and bit mask within that word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Canonical OVS-style name.
    pub name: &'static str,
    /// Word index within the key.
    pub word: usize,
    /// Bits of that word the field occupies.
    pub mask: u64,
}

/// The named fields, used by rule builders and for Table 3's "matching
/// fields among all rules" statistic.
pub mod fields {
    use super::Field;

    pub const IN_PORT: Field = Field {
        name: "in_port",
        word: 0,
        mask: 0xffff_ffff_0000_0000,
    };
    pub const RECIRC_ID: Field = Field {
        name: "recirc_id",
        word: 0,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const DL_SRC: Field = Field {
        name: "dl_src",
        word: 1,
        mask: 0xffff_ffff_ffff_0000,
    };
    pub const ETH_TYPE: Field = Field {
        name: "eth_type",
        word: 1,
        mask: 0x0000_0000_0000_ffff,
    };
    pub const DL_DST: Field = Field {
        name: "dl_dst",
        word: 2,
        mask: 0xffff_ffff_ffff_0000,
    };
    pub const VLAN_TCI: Field = Field {
        name: "vlan_tci",
        word: 2,
        mask: 0x0000_0000_0000_ffff,
    };
    pub const VLAN_VID: Field = Field {
        name: "vlan_vid",
        word: 2,
        mask: 0x0000_0000_0000_0fff,
    };
    pub const VLAN_PCP: Field = Field {
        name: "vlan_pcp",
        word: 2,
        mask: 0x0000_0000_0000_e000,
    };
    pub const NW_SRC_HI: Field = Field {
        name: "ipv6_src_hi",
        word: 3,
        mask: u64::MAX,
    };
    pub const NW_SRC: Field = Field {
        name: "nw_src",
        word: 4,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const NW_SRC_LO64: Field = Field {
        name: "ipv6_src_lo",
        word: 4,
        mask: u64::MAX,
    };
    pub const NW_DST_HI: Field = Field {
        name: "ipv6_dst_hi",
        word: 5,
        mask: u64::MAX,
    };
    pub const NW_DST: Field = Field {
        name: "nw_dst",
        word: 6,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const NW_DST_LO64: Field = Field {
        name: "ipv6_dst_lo",
        word: 6,
        mask: u64::MAX,
    };
    pub const NW_PROTO: Field = Field {
        name: "nw_proto",
        word: 7,
        mask: 0xff00_0000_0000_0000,
    };
    pub const NW_TOS: Field = Field {
        name: "nw_tos",
        word: 7,
        mask: 0x00ff_0000_0000_0000,
    };
    pub const NW_TTL: Field = Field {
        name: "nw_ttl",
        word: 7,
        mask: 0x0000_ff00_0000_0000,
    };
    pub const NW_FRAG: Field = Field {
        name: "nw_frag",
        word: 7,
        mask: 0x0000_00ff_0000_0000,
    };
    pub const TP_SRC: Field = Field {
        name: "tp_src",
        word: 7,
        mask: 0x0000_0000_ffff_0000,
    };
    pub const TP_DST: Field = Field {
        name: "tp_dst",
        word: 7,
        mask: 0x0000_0000_0000_ffff,
    };
    pub const TUN_ID: Field = Field {
        name: "tun_id",
        word: 8,
        mask: u64::MAX,
    };
    pub const TUN_SRC: Field = Field {
        name: "tun_src",
        word: 9,
        mask: 0xffff_ffff_0000_0000,
    };
    pub const TUN_DST: Field = Field {
        name: "tun_dst",
        word: 9,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const CT_STATE: Field = Field {
        name: "ct_state",
        word: 10,
        mask: 0xff00_0000_0000_0000,
    };
    pub const CT_ZONE: Field = Field {
        name: "ct_zone",
        word: 10,
        mask: 0x0000_ffff_0000_0000,
    };
    pub const CT_MARK: Field = Field {
        name: "ct_mark",
        word: 10,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const METADATA: Field = Field {
        name: "metadata",
        word: 11,
        mask: u64::MAX,
    };
    /// ARP aliases, matching OVS naming (same storage as the IP fields).
    pub const ARP_OP: Field = Field {
        name: "arp_op",
        word: 7,
        mask: 0xff00_0000_0000_0000,
    };
    pub const ARP_SPA: Field = Field {
        name: "arp_spa",
        word: 4,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const ARP_TPA: Field = Field {
        name: "arp_tpa",
        word: 6,
        mask: 0x0000_0000_ffff_ffff,
    };
    pub const ICMP_TYPE: Field = Field {
        name: "icmp_type",
        word: 7,
        mask: 0x0000_0000_ffff_0000,
    };
    pub const ICMP_CODE: Field = Field {
        name: "icmp_code",
        word: 7,
        mask: 0x0000_0000_0000_ffff,
    };

    /// Every distinct named field above.
    pub const ALL: &[Field] = &[
        IN_PORT,
        RECIRC_ID,
        DL_SRC,
        ETH_TYPE,
        DL_DST,
        VLAN_TCI,
        VLAN_VID,
        VLAN_PCP,
        NW_SRC_HI,
        NW_SRC,
        NW_SRC_LO64,
        NW_DST_HI,
        NW_DST,
        NW_DST_LO64,
        NW_PROTO,
        NW_TOS,
        NW_TTL,
        NW_FRAG,
        TP_SRC,
        TP_DST,
        TUN_ID,
        TUN_SRC,
        TUN_DST,
        CT_STATE,
        CT_ZONE,
        CT_MARK,
        METADATA,
        ARP_OP,
        ARP_SPA,
        ARP_TPA,
        ICMP_TYPE,
        ICMP_CODE,
    ];
}

// ----------------------------------------------------------------------
// Miniflow: the sparse key representation the fast path runs on
// ----------------------------------------------------------------------

/// A sparse [`FlowKey`]: a presence bitmap over the [`WORDS`] fixed
/// 8-byte slots plus a packed array of the non-zero slot values — OVS's
/// `struct miniflow`. A slot's bit is set iff its value is non-zero, so
/// `Miniflow` ↔ `FlowKey` is a bijection and equality/hashing touch only
/// the populated slots instead of all twelve words.
///
/// The packed invariant: `vals[..map.count_ones()]` hold the populated
/// slot values in ascending slot order; everything after is zero (so the
/// derived `PartialEq` is exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miniflow {
    map: u16,
    vals: [u64; WORDS],
}

impl Default for Miniflow {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl Miniflow {
    /// The all-wildcard (all-zero) key.
    pub const EMPTY: Miniflow = Miniflow {
        map: 0,
        vals: [0; WORDS],
    };

    /// The presence bitmap (bit `i` = slot `i` is non-zero).
    pub fn map(&self) -> u16 {
        self.map
    }

    /// Number of populated slots.
    pub fn n_slots(&self) -> usize {
        self.map.count_ones() as usize
    }

    /// The packed non-zero slot values, in ascending slot order.
    pub fn values(&self) -> &[u64] {
        &self.vals[..self.n_slots()]
    }

    /// Packed index of slot `w` (valid only when the slot is present).
    #[inline]
    fn rank(&self, w: usize) -> usize {
        (self.map & ((1u16 << w) - 1)).count_ones() as usize
    }

    /// Value of slot `w` (0 when absent) — one popcount, no expansion.
    #[inline]
    pub fn get(&self, w: usize) -> u64 {
        if self.map & (1 << w) != 0 {
            self.vals[self.rank(w)]
        } else {
            0
        }
    }

    /// Append slot `w` (which must be greater than every populated slot).
    /// Zero values are skipped to keep the representation canonical.
    #[inline]
    fn push(&mut self, w: usize, v: u64) {
        debug_assert!(
            self.map >> w == 0,
            "slots must be pushed in ascending order"
        );
        if v != 0 {
            self.vals[self.n_slots()] = v;
            self.map |= 1 << w;
        }
    }

    /// Compress a full key (slow path; the fast path extracts directly).
    pub fn from_key(key: &FlowKey) -> Miniflow {
        let mut mf = Miniflow::EMPTY;
        for (w, &v) in key.words().iter().enumerate() {
            mf.push(w, v);
        }
        mf
    }

    /// Expand to a full [`FlowKey`] — the **only** full-key
    /// materialization; the datapath calls this on the upcall/miss path
    /// and counts it under the `miniflow_expand` coverage counter.
    pub fn expand(&self) -> FlowKey {
        let mut words = [0u64; WORDS];
        let mut i = 0;
        for (w, word) in words.iter_mut().enumerate() {
            if self.map & (1 << w) != 0 {
                *word = self.vals[i];
                i += 1;
            }
        }
        FlowKey::from_words(words)
    }

    /// A fast full-key hash: FNV-1a over the bitmap and the populated
    /// slots only, with the same avalanche finalizer as
    /// [`FlowKey::hash_masked`] (low-bit entropy matters — the EMC and
    /// SMC index their buckets with the low bits). Computed once per
    /// packet and cached in `DpPacket::flow_hash`.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h ^= u64::from(self.map);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        for &v in self.values() {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    /// The 5-tuple RSS hash — bit-identical to
    /// [`FlowKey::rss_hash`] of the expansion, without expanding.
    pub fn rss_hash(&self) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in [
            self.get(3),
            self.get(4),
            self.get(5),
            self.get(6),
            self.get(7) & 0xff00_0000_ffff_ffff, // proto + ports
        ] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h >> 32) as u32 ^ h as u32
    }

    /// Datapath input port.
    pub fn in_port(&self) -> u32 {
        (self.get(0) >> 32) as u32
    }

    /// Recirculation id.
    pub fn recirc_id(&self) -> u32 {
        self.get(0) as u32
    }

    /// Raw EtherType.
    pub fn eth_type_raw(&self) -> u16 {
        self.get(1) as u16
    }

    /// IPv4 source address.
    pub fn nw_src_v4(&self) -> [u8; 4] {
        (self.get(4) as u32).to_be_bytes()
    }

    /// IPv4 destination address.
    pub fn nw_dst_v4(&self) -> [u8; 4] {
        (self.get(6) as u32).to_be_bytes()
    }

    /// IP protocol / ARP opcode.
    pub fn nw_proto(&self) -> u8 {
        (self.get(7) >> 56) as u8
    }

    /// L4 source port.
    pub fn tp_src(&self) -> u16 {
        (self.get(7) >> 16) as u16
    }

    /// L4 destination port.
    pub fn tp_dst(&self) -> u16 {
        self.get(7) as u16
    }

    /// Conntrack state bits.
    pub fn ct_state(&self) -> u8 {
        (self.get(10) >> 56) as u8
    }

    /// Tunnel id.
    pub fn tun_id(&self) -> u64 {
        self.get(8)
    }
}

/// `HashMap` keying must agree with `PartialEq` while touching only the
/// populated slots — this is what makes a dpcls subtable probe cheap for
/// sparse keys. The map goes in as a `u64` and the values as one slice,
/// so the hash stays word-aligned: a 2-byte map would leave every later
/// word straddling SipHash's 8-byte blocks, each taking its byte-tail
/// path. The map fixes the slice's length, so no length prefix is needed.
impl std::hash::Hash for Miniflow {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.map));
        u64::hash_slice(self.values(), state);
    }
}

/// A sparse [`FlowMask`]: the subset bitmap of slots with any significant
/// bits plus the packed per-slot masks. Masked hashing and matching walk
/// only the mask's populated slots — `hash_masked` over a typical
/// megaflow mask touches 4–6 slots instead of all twelve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniMask {
    map: u16,
    masks: [u64; WORDS],
}

impl MiniMask {
    /// The match-nothing mask.
    pub const EMPTY: MiniMask = MiniMask {
        map: 0,
        masks: [0; WORDS],
    };

    /// Compress a full mask (done once per megaflow install / subtable).
    pub fn from_mask(mask: &FlowMask) -> MiniMask {
        let mut map = 0u16;
        let mut masks = [0u64; WORDS];
        let mut i = 0;
        for (w, &m) in mask.words().iter().enumerate() {
            if m != 0 {
                map |= 1 << w;
                masks[i] = m;
                i += 1;
            }
        }
        MiniMask { map, masks }
    }

    /// Expand to a full [`FlowMask`].
    pub fn expand(&self) -> FlowMask {
        let mut words = [0u64; WORDS];
        let mut i = 0;
        for (w, word) in words.iter_mut().enumerate() {
            if self.map & (1 << w) != 0 {
                *word = self.masks[i];
                i += 1;
            }
        }
        FlowMask::from_words(words)
    }

    /// The slots this mask touches.
    pub fn map(&self) -> u16 {
        self.map
    }

    /// Number of significant bits.
    pub fn bit_count(&self) -> u32 {
        self.masks.iter().map(|m| m.count_ones()).sum()
    }

    /// Iterate `(slot, mask_word)` over the populated slots.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let map = self.map;
        (0..WORDS)
            .filter(move |w| map & (1 << w) != 0)
            .zip(self.masks.iter().copied())
    }

    /// `flow & mask` as a canonical [`Miniflow`] (slots masked to zero are
    /// dropped). This is the sparse `FlowKey::masked`.
    pub fn apply(&self, flow: &Miniflow) -> Miniflow {
        let mut out = Miniflow::EMPTY;
        for (w, m) in self.iter() {
            out.push(w, flow.get(w) & m);
        }
        out
    }

    /// True if `flow` matches `rule` (stored pre-masked) under this mask —
    /// the sparse `FlowKey::matches`, touching only the mask's slots.
    pub fn matches(&self, flow: &Miniflow, rule: &Miniflow) -> bool {
        self.iter().all(|(w, m)| flow.get(w) & m == rule.get(w))
    }

    /// Hash of `flow & mask` touching only the mask's populated slots —
    /// the sparse `FlowKey::hash_masked`, with the same avalanche
    /// finalizer.
    pub fn hash_flow(&self, flow: &Miniflow) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h ^= u64::from(self.map);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        for (w, m) in self.iter() {
            h ^= flow.get(w) & m;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

// ----------------------------------------------------------------------
// Extraction
// ----------------------------------------------------------------------

// Field packing within scratch words (matching the FlowKey word layout).
const W7_PROTO_SHIFT: u32 = 56;
const W7_TOS_SHIFT: u32 = 48;
const W7_TTL_SHIFT: u32 = 40;
const W7_FRAG_SHIFT: u32 = 32;
const W7_TP_SRC_SHIFT: u32 = 16;

/// Extract a [`Miniflow`] from a packet, recording L3/L4 offsets in the
/// packet's metadata — OVS's `miniflow_extract`. The parse stages values
/// into a scratch word array (upstream's staging buffer) and packs the
/// non-zero slots in ascending order; no full [`FlowKey`] is built, and
/// nothing downstream needs one until an upcall expands it.
///
/// Unparseable or unsupported layers simply stop extraction — the key
/// holds whatever was valid, which matches OVS semantics (a garbage L4
/// just means no L4 fields).
pub fn extract_miniflow(pkt: &mut DpPacket) -> Miniflow {
    let mut ws = [0u64; WORDS];
    ws[0] = (u64::from(pkt.in_port) << 32) | u64::from(pkt.recirc_id);
    ws[10] =
        (u64::from(pkt.ct_state) << 56) | (u64::from(pkt.ct_zone) << 32) | u64::from(pkt.ct_mark);
    if let Some(t) = &pkt.tunnel {
        ws[8] = t.tun_id;
        ws[9] = (u64::from(u32::from_be_bytes(t.src)) << 32) | u64::from(u32::from_be_bytes(t.dst));
    }

    let (l3_ofs, l4_ofs) = parse_frame(pkt.data(), &mut ws);
    if let Some(o) = l3_ofs {
        pkt.l3_ofs = o;
    }
    if let Some(o) = l4_ofs {
        pkt.l4_ofs = o;
    }

    let mut mf = Miniflow::EMPTY;
    for (w, &v) in ws.iter().enumerate() {
        mf.push(w, v);
    }
    mf
}

/// Extract a full [`FlowKey`] — the expansion of the miniflow, kept for
/// the slow path and the kernel datapath (which key on full keys).
pub fn extract_flow_key(pkt: &mut DpPacket) -> FlowKey {
    extract_miniflow(pkt).expand()
}

/// Parse L2–L4 into the scratch words; returns the L3/L4 offsets found.
fn parse_frame(data: &[u8], ws: &mut [u64; WORDS]) -> (Option<u16>, Option<u16>) {
    let Ok(eth) = EthernetFrame::new_checked(data) else {
        return (None, None);
    };
    ws[1] = eth.src().to_u64() << 16;
    ws[2] = eth.dst().to_u64() << 16;

    let mut ethertype = eth.ethertype();
    let mut l3_start = ethernet::HEADER_LEN;
    if ethertype == EtherType::Vlan {
        let Ok(tag) = vlan::VlanTag::new_checked(&data[l3_start..]) else {
            return (None, None);
        };
        // Set CFI-equivalent present bit the way OVS does (TCI | 0x1000 not
        // modelled; we store the raw TCI and rely on != 0 for presence).
        ws[2] |= u64::from(tag.tci() | 0x1000);
        ethertype = tag.inner_ethertype();
        l3_start += vlan::TAG_LEN;
    }
    ws[1] |= u64::from(ethertype.to_u16());

    let l4_ofs = match ethertype {
        EtherType::Ipv4 => extract_ipv4(&data[l3_start..], l3_start, ws),
        EtherType::Ipv6 => extract_ipv6(&data[l3_start..], l3_start, ws),
        EtherType::Arp => {
            extract_arp(&data[l3_start..], ws);
            None
        }
        _ => None,
    };
    (Some(l3_start as u16), l4_ofs)
}

fn extract_ipv4(l3: &[u8], l3_start: usize, ws: &mut [u64; WORDS]) -> Option<u16> {
    let Ok(ip) = ipv4::Ipv4Packet::new_checked(l3) else {
        return None;
    };
    ws[4] = u64::from(u32::from_be_bytes(ip.src()));
    ws[6] = u64::from(u32::from_be_bytes(ip.dst()));
    ws[7] = (u64::from(ip.protocol()) << W7_PROTO_SHIFT)
        | (u64::from(ip.tos()) << W7_TOS_SHIFT)
        | (u64::from(ip.ttl()) << W7_TTL_SHIFT);
    let l4_start = l3_start + ip.header_len();
    if ip.is_fragment() {
        let mut frag = nw_frag::ANY;
        if ip.frag_offset() != 0 {
            frag |= nw_frag::LATER;
            ws[7] |= u64::from(frag) << W7_FRAG_SHIFT;
            return Some(l4_start as u16); // No L4 header in later fragments.
        }
        ws[7] |= u64::from(frag) << W7_FRAG_SHIFT;
    }
    extract_l4(ip.protocol(), ip.payload(), ws);
    Some(l4_start as u16)
}

fn extract_ipv6(l3: &[u8], l3_start: usize, ws: &mut [u64; WORDS]) -> Option<u16> {
    let Ok(ip) = ipv6::Ipv6Packet::new_checked(l3) else {
        return None;
    };
    let src = ip.src();
    let dst = ip.dst();
    ws[3] = u64::from_be_bytes(src[..8].try_into().unwrap());
    ws[4] = u64::from_be_bytes(src[8..].try_into().unwrap());
    ws[5] = u64::from_be_bytes(dst[..8].try_into().unwrap());
    ws[6] = u64::from_be_bytes(dst[8..].try_into().unwrap());
    ws[7] = (u64::from(ip.next_header()) << W7_PROTO_SHIFT)
        | (u64::from(ip.traffic_class()) << W7_TOS_SHIFT)
        | (u64::from(ip.hop_limit()) << W7_TTL_SHIFT);
    extract_l4(ip.next_header(), ip.payload(), ws);
    Some((l3_start + ipv6::HEADER_LEN) as u16)
}

fn extract_arp(l3: &[u8], ws: &mut [u64; WORDS]) {
    let Ok(a) = arp::ArpPacket::new_checked(l3) else {
        return;
    };
    ws[4] = u64::from(u32::from_be_bytes(a.sender_ip()));
    ws[6] = u64::from(u32::from_be_bytes(a.target_ip()));
    ws[7] = u64::from(a.oper() as u8) << W7_PROTO_SHIFT;
}

fn extract_l4(proto: u8, l4: &[u8], ws: &mut [u64; WORDS]) {
    match proto {
        ipv4::protocol::TCP => {
            if let Ok(t) = tcp::TcpSegment::new_checked(l4) {
                ws[7] |= (u64::from(t.src_port()) << W7_TP_SRC_SHIFT) | u64::from(t.dst_port());
            }
        }
        ipv4::protocol::UDP => {
            if let Ok(u) = udp::UdpDatagram::new_checked(l4) {
                ws[7] |= (u64::from(u.src_port()) << W7_TP_SRC_SHIFT) | u64::from(u.dst_port());
            }
        }
        ipv4::protocol::ICMP => {
            if let Ok(i) = icmp::IcmpPacket::new_checked(l4) {
                ws[7] |= (u64::from(i.msg_type()) << W7_TP_SRC_SHIFT) | u64::from(i.code());
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;

    #[test]
    fn field_accessors_roundtrip() {
        let mut k = FlowKey::default();
        k.set_in_port(42);
        k.set_recirc_id(7);
        k.set_dl_src(MacAddr::new(1, 2, 3, 4, 5, 6));
        k.set_dl_dst(MacAddr::new(9, 8, 7, 6, 5, 4));
        k.set_eth_type(EtherType::Ipv4);
        k.set_vlan_tci(0x3064);
        k.set_nw_src_v4([10, 0, 0, 1]);
        k.set_nw_dst_v4([10, 0, 0, 2]);
        k.set_nw_proto(6);
        k.set_nw_tos(0x2e);
        k.set_nw_ttl(63);
        k.set_tp_src(4444);
        k.set_tp_dst(80);
        k.set_tun_id(5001);
        k.set_tun_src([192, 168, 0, 1]);
        k.set_tun_dst([192, 168, 0, 2]);
        k.set_ct_state(0x05);
        k.set_ct_zone(12);
        k.set_ct_mark(0xdeadbeef);
        k.set_metadata(99);

        assert_eq!(k.in_port(), 42);
        assert_eq!(k.recirc_id(), 7);
        assert_eq!(k.dl_src(), MacAddr::new(1, 2, 3, 4, 5, 6));
        assert_eq!(k.dl_dst(), MacAddr::new(9, 8, 7, 6, 5, 4));
        assert_eq!(k.eth_type(), EtherType::Ipv4);
        assert_eq!(k.vlan_tci(), 0x3064);
        assert_eq!(k.nw_src_v4(), [10, 0, 0, 1]);
        assert_eq!(k.nw_dst_v4(), [10, 0, 0, 2]);
        assert_eq!(k.nw_proto(), 6);
        assert_eq!(k.nw_tos(), 0x2e);
        assert_eq!(k.nw_ttl(), 63);
        assert_eq!(k.tp_src(), 4444);
        assert_eq!(k.tp_dst(), 80);
        assert_eq!(k.tun_id(), 5001);
        assert_eq!(k.ct_state(), 0x05);
        assert_eq!(k.ct_zone(), 12);
        assert_eq!(k.ct_mark(), 0xdeadbeef);
        assert_eq!(k.metadata(), 99);
    }

    #[test]
    fn ipv6_addresses_roundtrip() {
        let mut k = FlowKey::default();
        let src: [u8; 16] = core::array::from_fn(|i| i as u8);
        let dst: [u8; 16] = core::array::from_fn(|i| 0xf0 | i as u8);
        k.set_nw_src_v6(src);
        k.set_nw_dst_v6(dst);
        assert_eq!(k.nw_src_v6(), src);
        assert_eq!(k.nw_dst_v6(), dst);
    }

    #[test]
    fn mask_matching() {
        let mut rule = FlowKey::default();
        rule.set_nw_dst_v4([10, 1, 0, 0]);
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(16);

        let mut pkt_key = FlowKey::default();
        pkt_key.set_nw_dst_v4([10, 1, 42, 42]);
        pkt_key.set_nw_src_v4([1, 2, 3, 4]); // irrelevant under mask
        assert!(pkt_key.matches(&rule, &mask));

        pkt_key.set_nw_dst_v4([10, 2, 0, 0]);
        assert!(!pkt_key.matches(&rule, &mask));
    }

    #[test]
    fn masked_hash_consistency() {
        let mut mask = FlowMask::EMPTY;
        mask.set_field(&fields::NW_DST);
        let mut a = FlowKey::default();
        a.set_nw_dst_v4([9, 9, 9, 9]);
        a.set_tp_src(1); // wildcarded, must not affect the hash
        let mut b = FlowKey::default();
        b.set_nw_dst_v4([9, 9, 9, 9]);
        b.set_tp_src(2);
        assert_eq!(a.hash_masked(&mask), b.hash_masked(&mask));
        assert_eq!(a.masked(&mask), b.masked(&mask));
    }

    #[test]
    fn mask_subset_and_unite() {
        let narrow = FlowMask::of_fields(&[&fields::NW_DST]);
        let mut wide = FlowMask::of_fields(&[&fields::NW_DST, &fields::TP_DST]);
        assert!(narrow.subset_of(&wide));
        assert!(!wide.subset_of(&narrow));
        let mut m = narrow;
        m.unite(&FlowMask::of_fields(&[&fields::TP_DST]));
        assert_eq!(m, wide);
        wide.unite(&narrow);
        assert_eq!(m, wide);
    }

    #[test]
    fn extract_udp_packet() {
        let frame = builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            5000,
            6000,
            &[0xab; 10],
        );
        let mut pkt = DpPacket::from_data(&frame);
        pkt.in_port = 3;
        let key = extract_flow_key(&mut pkt);
        assert_eq!(key.in_port(), 3);
        assert_eq!(key.eth_type(), EtherType::Ipv4);
        assert_eq!(key.nw_src_v4(), [10, 0, 0, 1]);
        assert_eq!(key.nw_dst_v4(), [10, 0, 0, 2]);
        assert_eq!(key.nw_proto(), ipv4::protocol::UDP);
        assert_eq!(key.tp_src(), 5000);
        assert_eq!(key.tp_dst(), 6000);
        assert_eq!(pkt.l3_ofs, 14);
        assert_eq!(pkt.l4_ofs, 34);
    }

    #[test]
    fn extract_garbage_does_not_panic() {
        let mut pkt = DpPacket::from_data(&[0xff; 7]);
        let key = extract_flow_key(&mut pkt);
        assert_eq!(key.eth_type_raw(), 0);
    }

    #[test]
    fn extract_later_fragment_has_no_ports() {
        let mut frame = builder::udp_ipv4(
            MacAddr::ZERO,
            MacAddr::ZERO,
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            7,
            8,
            &[0; 8],
        );
        {
            let mut ip = ipv4::Ipv4Packet::new_unchecked(&mut frame[14..]);
            ip.set_frag(false, false, 100);
            ip.fill_checksum();
        }
        let mut pkt = DpPacket::from_data(&frame);
        let key = extract_flow_key(&mut pkt);
        assert_eq!(key.nw_frag(), nw_frag::ANY | nw_frag::LATER);
        assert_eq!(key.tp_src(), 0);
        assert_eq!(key.tp_dst(), 0);
    }

    #[test]
    fn rss_hash_depends_on_5tuple_only() {
        let mut a = FlowKey::default();
        a.set_nw_src_v4([1, 2, 3, 4]);
        a.set_tp_src(100);
        let mut b = a;
        b.set_dl_src(MacAddr::new(5, 5, 5, 5, 5, 5)); // not in the 5-tuple
        assert_eq!(a.rss_hash(), b.rss_hash());
        b.set_tp_src(101);
        assert_ne!(a.rss_hash(), b.rss_hash());
    }

    #[test]
    fn all_fields_distinct_names() {
        let mut names: Vec<_> = fields::ALL.iter().map(|f| f.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), fields::ALL.len());
    }

    fn sample_key() -> FlowKey {
        let mut k = FlowKey::default();
        k.set_in_port(3);
        k.set_dl_src(MacAddr::new(1, 2, 3, 4, 5, 6));
        k.set_dl_dst(MacAddr::new(9, 8, 7, 6, 5, 4));
        k.set_eth_type(EtherType::Ipv4);
        k.set_nw_src_v4([10, 0, 0, 1]);
        k.set_nw_dst_v4([10, 0, 0, 2]);
        k.set_nw_proto(ipv4::protocol::UDP);
        k.set_nw_ttl(64);
        k.set_tp_src(4000);
        k.set_tp_dst(53);
        k
    }

    #[test]
    fn miniflow_roundtrip_identity() {
        let key = sample_key();
        let mf = Miniflow::from_key(&key);
        assert_eq!(mf.expand(), key);
        // Only the populated slots are stored.
        assert_eq!(
            mf.n_slots(),
            key.words().iter().filter(|&&w| w != 0).count()
        );
        // Canonical form: equal keys give equal miniflows bit-for-bit.
        assert_eq!(Miniflow::from_key(&key), mf);
    }

    #[test]
    fn miniflow_get_matches_words() {
        let key = sample_key();
        let mf = Miniflow::from_key(&key);
        for (w, &v) in key.words().iter().enumerate() {
            assert_eq!(mf.get(w), v, "slot {w}");
        }
        assert_eq!(mf.in_port(), key.in_port());
        assert_eq!(mf.recirc_id(), key.recirc_id());
        assert_eq!(mf.eth_type_raw(), key.eth_type_raw());
        assert_eq!(mf.nw_src_v4(), key.nw_src_v4());
        assert_eq!(mf.nw_dst_v4(), key.nw_dst_v4());
        assert_eq!(mf.nw_proto(), key.nw_proto());
        assert_eq!(mf.tp_src(), key.tp_src());
        assert_eq!(mf.tp_dst(), key.tp_dst());
    }

    #[test]
    fn miniflow_rss_hash_matches_full_key() {
        let key = sample_key();
        let mf = Miniflow::from_key(&key);
        assert_eq!(mf.rss_hash(), key.rss_hash());
        // And an empty key agrees too.
        assert_eq!(Miniflow::EMPTY.rss_hash(), FlowKey::default().rss_hash());
    }

    #[test]
    fn minimask_apply_matches_full_masked() {
        let key = sample_key();
        let mask = FlowMask::of_fields(&[&fields::NW_DST, &fields::TP_DST, &fields::ETH_TYPE]);
        let mf = Miniflow::from_key(&key);
        let mm = MiniMask::from_mask(&mask);
        assert_eq!(mm.expand(), mask);
        assert_eq!(mm.apply(&mf).expand(), key.masked(&mask));
        assert_eq!(mm.bit_count(), mask.bit_count());
        // Sparse masked hash equals hashing under the packed slots only and
        // is stable across flows equal under the mask.
        let mut other = key;
        other.set_tp_src(9999); // not covered by the mask
        assert_eq!(mm.hash_flow(&mf), mm.hash_flow(&Miniflow::from_key(&other)));
    }

    #[test]
    fn minimask_matches_agrees_with_full_matches() {
        let key = sample_key();
        let mask = FlowMask::of_fields(&[&fields::NW_SRC, &fields::NW_DST, &fields::NW_PROTO]);
        let mm = MiniMask::from_mask(&mask);
        let rule_masked = mm.apply(&Miniflow::from_key(&key));

        let mut hit = key;
        hit.set_tp_dst(1); // outside the mask: still matches
        assert!(mm.matches(&Miniflow::from_key(&hit), &rule_masked));
        assert!(hit.masked(&mask).matches(&key.masked(&mask), &mask));

        let mut miss = key;
        miss.set_nw_dst_v4([192, 168, 0, 1]);
        assert!(!mm.matches(&Miniflow::from_key(&miss), &rule_masked));
    }

    #[test]
    fn extract_miniflow_equals_flow_key_compression() {
        let frame = builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1234,
            80,
            b"hello",
        );
        let mut p1 = DpPacket::from_data(&frame);
        let mut p2 = DpPacket::from_data(&frame);
        let mf = extract_miniflow(&mut p1);
        let key = extract_flow_key(&mut p2);
        assert_eq!(mf, Miniflow::from_key(&key));
        assert_eq!(mf.expand(), key);
        assert_eq!((p1.l3_ofs, p1.l4_ofs), (p2.l3_ofs, p2.l4_ofs));
    }

    #[test]
    fn miniflow_hash_distinguishes_presence_from_zero() {
        // {slot absent} and {slot present but zero} cannot both exist in
        // canonical form, but hashing must still mix the map so two keys
        // with identical packed values in different slots differ.
        let mut a = FlowKey::default();
        a.set_tun_id(77);
        let mut b = FlowKey::default();
        b.set_metadata(77);
        assert_ne!(Miniflow::from_key(&a).hash(), Miniflow::from_key(&b).hash());
    }
}
