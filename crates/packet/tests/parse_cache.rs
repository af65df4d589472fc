//! A descriptor's kept parse never goes stale: random frames go through
//! random sequences of byte-changing calls, metadata edits and
//! extractions, and after each step the packet's miniflow and offsets
//! equal those of a fresh descriptor built from its bytes with the same
//! metadata, and the parse's 5-tuple and RSS hash equal the miniflow's.

use ovs_packet::dp_packet::{TunnelMetadata, DEFAULT_HEADROOM};
use ovs_packet::flow::{extract_miniflow, Miniflow};
use ovs_packet::{builder, DpPacket, MacAddr};
use proptest::prelude::*;

/// SplitMix64: a whole sequence from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const M2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

/// A frame of a random kind: UDP, TCP, ICMP, ARP, a VLAN-tagged UDP, an
/// IPv6 UDP, or random bytes.
fn frame(rng: &mut Rng) -> Vec<u8> {
    let ip = |rng: &mut Rng| [10, rng.byte(), rng.byte(), rng.byte()];
    let (s, d) = (ip(rng), ip(rng));
    let (sp, dp) = (rng.next() as u16, rng.next() as u16);
    match rng.below(7) {
        0 => builder::udp_ipv4_frame(M1, M2, s, d, sp, dp, 64 + rng.below(64) as usize),
        1 => builder::tcp_ipv4(M1, M2, s, d, sp, dp, 1, 0, rng.byte(), b"data"),
        2 => builder::icmp_echo(M1, M2, s, d, rng.below(2) == 0, sp, dp),
        3 => builder::arp_frame(M1, M2, 1, M1, s, M2, d),
        4 => builder::push_vlan(&builder::udp_ipv4(M1, M2, s, d, sp, dp, b"x"), 5, 1),
        5 => {
            // Ethernet + IPv6 (next header UDP) + UDP.
            let mut f = vec![0u8; 14 + 40 + 8];
            f[..6].copy_from_slice(&M2.0);
            f[6..12].copy_from_slice(&M1.0);
            f[12..14].copy_from_slice(&[0x86, 0xdd]);
            f[14] = 0x60;
            f[18..20].copy_from_slice(&8u16.to_be_bytes());
            f[20] = 17;
            f[21] = 64;
            for b in &mut f[22..54] {
                *b = rng.byte();
            }
            f[54..56].copy_from_slice(&sp.to_be_bytes());
            f[56..58].copy_from_slice(&dp.to_be_bytes());
            f[58..60].copy_from_slice(&8u16.to_be_bytes());
            f
        }
        _ => (0..rng.below(80)).map(|_| rng.byte()).collect(),
    }
}

/// One random step: a call that changes the bytes, a metadata edit, or
/// an extraction.
fn step(rng: &mut Rng, pkt: &mut DpPacket) {
    match rng.below(13) {
        0 => pkt.set_data(&frame(rng)),
        1 if !pkt.is_empty() => {
            let i = rng.below(pkt.len() as u64) as usize;
            pkt.data_mut()[i] = rng.byte();
        }
        2 => {
            let n = rng.below(pkt.headroom().min(20) as u64 + 1) as usize;
            let bytes: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
            pkt.push_front(n).copy_from_slice(&bytes);
        }
        3 => {
            let n = rng.below(pkt.len().min(20) as u64 + 1) as usize;
            pkt.pull_front(n);
        }
        4 => {
            let n = rng.below(8) as usize;
            let b = rng.byte();
            pkt.push_back(n).fill(b);
        }
        5 => {
            let n = rng.below(pkt.len() as u64 + 4) as usize;
            pkt.truncate(n);
        }
        6 => pkt.push_vlan(rng.next() as u16),
        7 => pkt.pop_vlan(),
        8 => {
            pkt.reset();
            pkt.set_data(&frame(rng));
        }
        9 => pkt.reset_metadata(),
        10 => {
            pkt.in_port = rng.below(4) as u32;
            pkt.recirc_id = rng.below(3) as u32;
            pkt.ct_state = rng.byte();
            pkt.ct_zone = rng.below(3) as u16;
            pkt.ct_mark = rng.below(2) as u32;
        }
        11 => {
            pkt.tunnel = (rng.below(2) == 0).then(|| TunnelMetadata {
                tun_id: rng.below(100),
                src: [172, 16, 0, 1],
                dst: [172, 16, 0, rng.byte()],
                tos: 0,
                ttl: 64,
            })
        }
        _ => {
            extract_miniflow(pkt);
        }
    }
}

/// The miniflow and offsets of a fresh descriptor with `pkt`'s bytes and
/// metadata.
fn fresh(pkt: &DpPacket) -> (Miniflow, u16, u16) {
    let mut f = DpPacket::from_data(pkt.data());
    f.in_port = pkt.in_port;
    f.recirc_id = pkt.recirc_id;
    f.ct_state = pkt.ct_state;
    f.ct_zone = pkt.ct_zone;
    f.ct_mark = pkt.ct_mark;
    f.tunnel = pkt.tunnel;
    f.l3_ofs = pkt.l3_ofs;
    f.l4_ofs = pkt.l4_ofs;
    let mf = extract_miniflow(&mut f);
    (mf, f.l3_ofs, f.l4_ofs)
}

proptest! {
    #[test]
    fn the_kept_parse_always_matches_a_fresh_one(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut pkt = DpPacket::from_data(&frame(&mut rng));
        if rng.below(2) == 0 {
            // Some descriptors start with stale headroom, as after a decap.
            let n = rng.below(DEFAULT_HEADROOM as u64) as usize;
            pkt.push_front(n);
            pkt.pull_front(n);
        }
        for i in 0..60 {
            step(&mut rng, &mut pkt);
            let want = fresh(&pkt);
            let mf = extract_miniflow(&mut pkt);
            prop_assert_eq!((mf, pkt.l3_ofs, pkt.l4_ofs), want, "step {}", i);
            let p = *pkt.parse();
            prop_assert_eq!(p.nw_src_v4(), mf.nw_src_v4());
            prop_assert_eq!(p.nw_dst_v4(), mf.nw_dst_v4());
            prop_assert_eq!(p.nw_proto(), mf.nw_proto());
            prop_assert_eq!(p.tp_src(), mf.tp_src());
            prop_assert_eq!(p.tp_dst(), mf.tp_dst());
            prop_assert_eq!(p.rss_hash(), mf.rss_hash());
            prop_assert_eq!(p.rss_hash(), mf.expand().rss_hash());
        }
    }
}
