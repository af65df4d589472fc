//! Conntrack reads a packet's TCP flags through its kept parse
//! ([`FrameParse::tcp_flags`]): the flag byte at the L4 offset, when the
//! parse's `nw_proto` is TCP and a whole TCP header lies inside the IP
//! payload. Random frames — untagged and VLAN-tagged, IPv4 with and
//! without options, IPv6, first and later fragments, non-TCP protocols,
//! bad TCP data offsets, IP lengths short of the frame and frames cut
//! anywhere — check it against the reader it replaced, which parsed
//! Ethernet, IPv4 and TCP again for every packet:
//!
//! - on an untagged IPv4 frame that is not a later fragment, the two
//!   agree;
//! - a later fragment has no TCP header, so the parse reads no flags
//!   where the old reader read payload bytes as a header;
//! - a VLAN tag moves the L4 offset, not the flags: a tagged frame reads
//!   what the old reader read of it untagged (the old reader saw no
//!   flags behind a tag);
//! - IPv6 reads the header the IPv6 payload holds (the old reader read
//!   IPv4 only).

use ovs_packet::flow::FrameParse;
use ovs_packet::ipv4::{self, Ipv4Packet};
use ovs_packet::ipv6::Ipv6Packet;
use ovs_packet::{ethernet, tcp, DpPacket, EtherType, EthernetFrame};
use proptest::prelude::*;

/// The reader the parse replaced, as it was: the TCP flag byte of an
/// untagged Ethernet/IPv4/TCP frame.
fn reference(frame: &[u8]) -> Option<u8> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(&frame[ethernet::HEADER_LEN..]).ok()?;
    if ip.protocol() != ipv4::protocol::TCP {
        return None;
    }
    let t = tcp::TcpSegment::new_checked(ip.payload()).ok()?;
    Some(t.flags())
}

/// The same reader for an untagged Ethernet/IPv6/TCP frame.
fn reference_v6(frame: &[u8]) -> Option<u8> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::Ipv6 {
        return None;
    }
    let ip = Ipv6Packet::new_checked(&frame[ethernet::HEADER_LEN..]).ok()?;
    if ip.next_header() != ipv4::protocol::TCP {
        return None;
    }
    let t = tcp::TcpSegment::new_checked(ip.payload()).ok()?;
    Some(t.flags())
}

/// What conntrack reads of `frame`: the flags through a descriptor's
/// parse.
fn through_parse(frame: &[u8]) -> Option<u8> {
    let mut pkt = DpPacket::from_data(frame);
    let parse: FrameParse = *pkt.parse();
    parse.tcp_flags(pkt.data())
}

/// SplitMix64: a case's frames from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// How a frame was built.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    V4,
    V4LaterFragment,
    V6,
}

/// A random frame: IPv4 (options, fragments) or IPv6 over untagged
/// Ethernet; TCP mostly, with a random data offset and flag byte; an IP
/// length that may fall short of the L4 bytes; cut at a random length
/// one time in three.
fn frame(rng: &mut Rng) -> (Vec<u8>, Kind) {
    let proto = [
        ipv4::protocol::TCP,
        ipv4::protocol::TCP,
        ipv4::protocol::TCP,
        17,
        1,
    ][rng.below(5)];
    let mut l4 = vec![0u8; 20 + rng.below(32)];
    l4.iter_mut().for_each(|b| *b = rng.byte());
    // The data offset: a valid 20-60 byte header mostly, any nibble
    // sometimes.
    l4[12] = if rng.below(4) == 0 {
        rng.byte()
    } else {
        (5 + rng.below(3) as u8) << 4
    };
    let mut f = vec![0u8; ethernet::HEADER_LEN];
    f[..12].iter_mut().for_each(|b| *b = rng.byte());
    let kind = if rng.below(4) == 0 {
        f[12..14].copy_from_slice(&0x86ddu16.to_be_bytes());
        let mut ip = vec![0u8; 40];
        ip[0] = 0x60;
        let short = if rng.below(4) == 0 {
            rng.below(l4.len() as u64)
        } else {
            0
        };
        ip[4..6].copy_from_slice(&((l4.len() - short) as u16).to_be_bytes());
        ip[6] = proto;
        ip[7] = 64;
        ip[8..].iter_mut().for_each(|b| *b = rng.byte());
        f.extend_from_slice(&ip);
        Kind::V6
    } else {
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        let ihl = if rng.below(2) == 0 {
            5
        } else {
            5 + rng.below(11)
        };
        let mut ip = vec![0u8; ihl * 4];
        ip[0] = 0x40 | ihl as u8;
        let short = if rng.below(4) == 0 {
            rng.below(l4.len() as u64)
        } else {
            0
        };
        let total = (ihl * 4 + l4.len() - short) as u16;
        ip[2..4].copy_from_slice(&total.to_be_bytes());
        // No fragment, a first fragment (more-fragments set) or a later
        // one.
        let later = match rng.below(4) {
            0 => {
                ip[6] = 0x20;
                false
            }
            1 => {
                ip[6] = rng.byte() & 0x3f;
                ip[7] = rng.byte() | 1;
                true
            }
            _ => false,
        };
        ip[8] = 64;
        ip[9] = proto;
        ip[12..20].iter_mut().for_each(|b| *b = rng.byte());
        f.extend_from_slice(&ip);
        if later {
            Kind::V4LaterFragment
        } else {
            Kind::V4
        }
    };
    f.extend_from_slice(&l4);
    if rng.below(3) == 0 {
        f.truncate(rng.below(f.len() as u64 + 1));
    }
    (f, kind)
}

/// `frame` with an 802.1Q tag after its MACs.
fn tagged(frame: &[u8], tci: u16) -> Vec<u8> {
    let cut = frame.len().min(12);
    let mut t = frame[..cut].to_vec();
    if frame.len() >= 12 {
        t.extend_from_slice(&0x8100u16.to_be_bytes());
        t.extend_from_slice(&tci.to_be_bytes());
    }
    t.extend_from_slice(&frame[cut..]);
    t
}

proptest! {
    #[test]
    fn parse_reads_the_flags_the_old_reader_read(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..64 {
            let (f, kind) = frame(&mut rng);
            let got = through_parse(&f);
            match kind {
                Kind::V4 => prop_assert_eq!(got, reference(&f), "{:02x?}", f),
                Kind::V4LaterFragment => prop_assert_eq!(got, None, "{:02x?}", f),
                Kind::V6 => prop_assert_eq!(got, reference_v6(&f), "{:02x?}", f),
            }
            let t = tagged(&f, rng.next() as u16 & 0x0fff);
            prop_assert_eq!(reference(&t), None, "the old reader saw no flags behind a tag");
            prop_assert_eq!(through_parse(&t), got, "{:02x?}", t);
        }
    }
}

#[test]
fn a_whole_header_reads_its_flags() {
    let m = ovs_packet::MacAddr::new(2, 0, 0, 0, 0, 1);
    for flags in [0x02, 0x12, 0x10, 0x11, 0x04, 0x18] {
        let f = ovs_packet::builder::tcp_ipv4(
            m,
            m,
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000,
            80,
            1,
            0,
            flags,
            b"hi",
        );
        assert_eq!(through_parse(&f), Some(flags));
        assert_eq!(through_parse(&tagged(&f, 100)), Some(flags));
        assert_eq!(
            through_parse(&f[..f.len() - 3]),
            None,
            "cut inside the IP payload"
        );
    }
}
