//! Convenience builders producing complete, checksummed frames.
//!
//! These are used by tests, examples, and the traffic generators: every
//! packet the workloads inject is a real, parseable frame.

use crate::ethernet::{self, EtherType, EthernetFrame};
use crate::geneve;
use crate::icmp;
use crate::ipv4::{self, Ipv4Packet};
use crate::mac::MacAddr;
use crate::tcp::{self, TcpSegment};
use crate::udp::{self, UdpDatagram};
use crate::{arp, vlan};

/// Minimum Ethernet frame length (without FCS).
pub const MIN_FRAME_LEN: usize = 60;

/// Build a UDP-in-IPv4-in-Ethernet frame with valid checksums.
pub fn udp_ipv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp_len = udp::HEADER_LEN + payload.len();
    let ip_len = ipv4::HEADER_LEN + udp_len;
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_len];

    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_src(src_mac);
    eth.set_dst(dst_mac);
    eth.set_ethertype(EtherType::Ipv4);

    let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
    ip.set_ver_ihl(ipv4::HEADER_LEN);
    ip.set_tos(0);
    ip.set_total_len(ip_len as u16);
    ip.set_ident(0);
    ip.set_frag(true, false, 0);
    ip.set_ttl(64);
    ip.set_protocol(ipv4::protocol::UDP);
    ip.set_src(src_ip);
    ip.set_dst(dst_ip);
    ip.fill_checksum();

    let l4_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut u = UdpDatagram::new_unchecked(&mut buf[l4_off..]);
    u.set_src_port(src_port);
    u.set_dst_port(dst_port);
    u.set_length(udp_len as u16);
    u.payload_mut().copy_from_slice(payload);
    u.fill_checksum_ipv4(src_ip, dst_ip);

    buf
}

/// Build a UDP frame padded or payload-sized to an exact total frame
/// length (e.g. 64 or 1518 bytes, the paper's workload sizes).
///
/// `frame_len` must be at least 46 bytes (Ethernet + IPv4 + UDP headers +
/// 4 bytes of payload).
pub fn udp_ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    frame_len: usize,
) -> Vec<u8> {
    let min = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
    assert!(
        frame_len >= min,
        "frame_len {frame_len} below minimum {min}"
    );
    let payload = vec![0x5au8; frame_len - min];
    udp_ipv4(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, &payload,
    )
}

/// Build a TCP-in-IPv4-in-Ethernet frame with valid checksums.
#[allow(clippy::too_many_arguments)]
pub fn tcp_ipv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: u8,
    payload: &[u8],
) -> Vec<u8> {
    let tcp_len = tcp::HEADER_LEN + payload.len();
    let ip_len = ipv4::HEADER_LEN + tcp_len;
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_len];

    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_src(src_mac);
    eth.set_dst(dst_mac);
    eth.set_ethertype(EtherType::Ipv4);

    let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
    ip.set_ver_ihl(ipv4::HEADER_LEN);
    ip.set_total_len(ip_len as u16);
    ip.set_frag(true, false, 0);
    ip.set_ttl(64);
    ip.set_protocol(ipv4::protocol::TCP);
    ip.set_src(src_ip);
    ip.set_dst(dst_ip);
    ip.fill_checksum();

    let l4_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut t = TcpSegment::new_unchecked(&mut buf[l4_off..]);
    t.set_src_port(src_port);
    t.set_dst_port(dst_port);
    t.set_seq(seq);
    t.set_ack(ack);
    t.set_header_len(tcp::HEADER_LEN);
    t.set_flags(flags);
    t.set_window(0xffff);
    t.payload_mut().copy_from_slice(payload);
    t.fill_checksum_ipv4(src_ip, dst_ip);

    buf
}

/// Build an ICMP echo request/reply frame.
pub fn icmp_echo(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    is_reply: bool,
    ident: u16,
    seq: u16,
) -> Vec<u8> {
    let icmp_len = icmp::HEADER_LEN + 8;
    let ip_len = ipv4::HEADER_LEN + icmp_len;
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_len];

    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_src(src_mac);
    eth.set_dst(dst_mac);
    eth.set_ethertype(EtherType::Ipv4);

    let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
    ip.set_ver_ihl(ipv4::HEADER_LEN);
    ip.set_total_len(ip_len as u16);
    ip.set_frag(false, false, 0);
    ip.set_ttl(64);
    ip.set_protocol(ipv4::protocol::ICMP);
    ip.set_src(src_ip);
    ip.set_dst(dst_ip);
    ip.fill_checksum();

    let l4_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut ic = icmp::IcmpPacket::new_unchecked(&mut buf[l4_off..]);
    ic.set_msg_type(if is_reply {
        icmp::msg_type::ECHO_REPLY
    } else {
        icmp::msg_type::ECHO_REQUEST
    });
    ic.set_code(0);
    ic.set_ident(ident);
    ic.set_seq(seq);
    ic.fill_checksum();

    buf
}

/// Build an ARP request or reply frame.
pub fn arp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    oper: u16,
    sender_mac: MacAddr,
    sender_ip: [u8; 4],
    target_mac: MacAddr,
    target_ip: [u8; 4],
) -> Vec<u8> {
    let mut buf = vec![0u8; ethernet::HEADER_LEN + arp::PACKET_LEN];
    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_src(src_mac);
    eth.set_dst(dst_mac);
    eth.set_ethertype(EtherType::Arp);
    let mut a = arp::ArpPacket::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
    a.init_ethernet_ipv4();
    a.set_oper(oper);
    a.set_sender_mac(sender_mac);
    a.set_sender_ip(sender_ip);
    a.set_target_mac(target_mac);
    a.set_target_ip(target_ip);
    buf
}

/// Push a VLAN tag into an existing Ethernet frame, returning the new frame.
pub fn push_vlan(frame: &[u8], vid: u16, pcp: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.len() + vlan::TAG_LEN);
    out.extend_from_slice(&frame[..12]);
    out.extend_from_slice(&EtherType::Vlan.to_u16().to_be_bytes());
    let tci = (u16::from(pcp & 0x7) << 13) | (vid & 0x0fff);
    out.extend_from_slice(&tci.to_be_bytes());
    out.extend_from_slice(&frame[12..]);
    out
}

/// Bytes of outer header [`geneve_encap`] puts in front of the inner
/// frame: Ethernet, IPv4, UDP and an option-less Geneve header.
pub const GENEVE_OUTER_LEN: usize =
    ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + geneve::HEADER_LEN;

/// Write the outer Ethernet/IPv4/UDP/Geneve header into
/// `frame[..GENEVE_OUTER_LEN]`, in front of the inner frame that fills
/// the rest, including the outer UDP checksum over it. The one header
/// writer behind [`geneve_encap`] and the in-place tunnel push, which
/// writes into a packet's headroom as OVS's `dp_packet_push_uninit`
/// does. Every header byte is written, so stale headroom never leaks
/// onto the wire.
pub fn write_geneve_outer(
    frame: &mut [u8],
    outer_src_mac: MacAddr,
    outer_dst_mac: MacAddr,
    outer_src_ip: [u8; 4],
    outer_dst_ip: [u8; 4],
    src_port: u16,
    vni: u32,
) {
    let ip_len = frame.len() - ethernet::HEADER_LEN;
    let udp_len = ip_len - ipv4::HEADER_LEN;
    frame[..GENEVE_OUTER_LEN].fill(0);

    let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
    eth.set_src(outer_src_mac);
    eth.set_dst(outer_dst_mac);
    eth.set_ethertype(EtherType::Ipv4);

    let mut ip = Ipv4Packet::new_unchecked(&mut frame[ethernet::HEADER_LEN..]);
    ip.set_ver_ihl(ipv4::HEADER_LEN);
    ip.set_total_len(ip_len as u16);
    ip.set_frag(true, false, 0);
    ip.set_ttl(64);
    ip.set_protocol(ipv4::protocol::UDP);
    ip.set_src(outer_src_ip);
    ip.set_dst(outer_dst_ip);
    ip.fill_checksum();

    let l4_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    {
        let mut u = UdpDatagram::new_unchecked(&mut frame[l4_off..]);
        u.set_src_port(src_port);
        u.set_dst_port(geneve::UDP_PORT);
        u.set_length(udp_len as u16);
    }
    let mut g = geneve::GenevePacket::new_unchecked(&mut frame[l4_off + udp::HEADER_LEN..]);
    g.init(0);
    g.set_protocol(geneve::PROTO_ETHERNET);
    g.set_vni(vni);

    let mut u = UdpDatagram::new_unchecked(&mut frame[l4_off..]);
    u.fill_checksum_ipv4(outer_src_ip, outer_dst_ip);
}

/// Encapsulate an inner Ethernet frame in Geneve/UDP/IPv4/Ethernet.
#[allow(clippy::too_many_arguments)]
pub fn geneve_encap(
    outer_src_mac: MacAddr,
    outer_dst_mac: MacAddr,
    outer_src_ip: [u8; 4],
    outer_dst_ip: [u8; 4],
    src_port: u16,
    vni: u32,
    inner_frame: &[u8],
) -> Vec<u8> {
    let mut buf = vec![0u8; GENEVE_OUTER_LEN + inner_frame.len()];
    buf[GENEVE_OUTER_LEN..].copy_from_slice(inner_frame);
    write_geneve_outer(
        &mut buf,
        outer_src_mac,
        outer_dst_mac,
        outer_src_ip,
        outer_dst_ip,
        src_port,
        vni,
    );
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::extract_flow_key;
    use crate::DpPacket;

    const SRC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const DST: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    #[test]
    fn udp_frame_is_valid() {
        let f = udp_ipv4(SRC, DST, [1, 1, 1, 1], [2, 2, 2, 2], 10, 20, b"hello");
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum_ipv4(ip.src(), ip.dst()));
        assert_eq!(u.payload(), b"hello");
    }

    #[test]
    fn udp_frame_exact_size() {
        for len in [64usize, 128, 512, 1518] {
            let f = udp_ipv4_frame(SRC, DST, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2, len);
            assert_eq!(f.len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn udp_frame_too_small_panics() {
        udp_ipv4_frame(SRC, DST, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2, 20);
    }

    #[test]
    fn tcp_frame_is_valid() {
        let f = tcp_ipv4(
            SRC,
            DST,
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            10,
            20,
            1000,
            2000,
            tcp::flags::ACK | tcp::flags::PSH,
            b"x",
        );
        let ip = Ipv4Packet::new_checked(&f[ethernet::HEADER_LEN..]).unwrap();
        let t = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(t.verify_checksum_ipv4(ip.src(), ip.dst()));
        assert!(t.has_flag(tcp::flags::PSH));
        assert_eq!(t.payload(), b"x");
    }

    #[test]
    fn icmp_frame_is_valid() {
        let f = icmp_echo(SRC, DST, [1, 1, 1, 1], [2, 2, 2, 2], false, 7, 3);
        let ip = Ipv4Packet::new_checked(&f[ethernet::HEADER_LEN..]).unwrap();
        let ic = icmp::IcmpPacket::new_checked(ip.payload()).unwrap();
        assert!(ic.verify_checksum());
        assert_eq!(ic.seq(), 3);
    }

    #[test]
    fn arp_frame_parses() {
        let f = arp_frame(
            SRC,
            MacAddr::BROADCAST,
            arp::op::REQUEST,
            SRC,
            [1, 1, 1, 1],
            MacAddr::ZERO,
            [2, 2, 2, 2],
        );
        let a = arp::ArpPacket::new_checked(&f[ethernet::HEADER_LEN..]).unwrap();
        assert_eq!(a.oper(), arp::op::REQUEST);
        assert_eq!(a.target_ip(), [2, 2, 2, 2]);
    }

    #[test]
    fn vlan_push_and_extract() {
        let inner = udp_ipv4(SRC, DST, [1, 1, 1, 1], [2, 2, 2, 2], 5, 6, b"p");
        let tagged = push_vlan(&inner, 100, 3);
        assert_eq!(tagged.len(), inner.len() + vlan::TAG_LEN);
        let mut pkt = DpPacket::from_data(&tagged);
        let key = extract_flow_key(&mut pkt);
        assert_eq!(key.vlan_tci() & 0x0fff, 100);
        assert_eq!(key.eth_type(), EtherType::Ipv4);
        assert_eq!(key.tp_dst(), 6);
    }

    #[test]
    fn geneve_encap_decap() {
        let inner = udp_ipv4(SRC, DST, [10, 0, 0, 1], [10, 0, 0, 2], 1, 2, b"inner");
        let outer = geneve_encap(
            MacAddr::new(4, 0, 0, 0, 0, 1),
            MacAddr::new(4, 0, 0, 0, 0, 2),
            [172, 16, 0, 1],
            [172, 16, 0, 2],
            33333,
            5001,
            &inner,
        );
        let ip = Ipv4Packet::new_checked(&outer[ethernet::HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        let u = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(u.dst_port(), geneve::UDP_PORT);
        assert!(u.verify_checksum_ipv4(ip.src(), ip.dst()));
        let g = geneve::GenevePacket::new_checked(u.payload()).unwrap();
        assert_eq!(g.vni(), 5001);
        assert_eq!(g.payload(), &inner[..]);
    }
}
