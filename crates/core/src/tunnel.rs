//! Userspace tunnelling: Geneve (and VXLAN) encap/decap routed through
//! the Netlink replica caches.
//!
//! §4: the userspace datapath cannot call into the kernel's tunnel code,
//! so OVS re-implements encapsulation and keeps userspace replicas of the
//! kernel's route and ARP tables (fed by [`RtnlCache`]) to resolve the
//! outer headers. "Using kernel facilities for this purpose does not
//! cause performance problems because these tables are only updated by
//! slow control plane operations."

use ovs_kernel::rtnetlink::RtnlCache;
use ovs_packet::dp_packet::TunnelMetadata;
use ovs_packet::{builder, geneve, gre, ipv4, udp, vxlan, DpPacket, EthernetFrame, MacAddr};
use std::ops::Range;

/// Tunnel flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelKind {
    Geneve,
    Vxlan,
    /// GRE with a key (transparent Ethernet bridging payload).
    Gre,
}

/// A userspace tunnel endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct TunnelConfig {
    pub kind: TunnelKind,
    /// Local endpoint address (outer source).
    pub local_ip: [u8; 4],
}

/// Result of an encapsulation: the egress ifindex (from the route
/// replica) and the outer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EncapResult {
    pub egress_ifindex: u32,
    pub frame: Vec<u8>,
}

/// Why an encapsulation failed (slow-path resolution needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncapError {
    /// No route to the remote endpoint in the replica table.
    NoRoute,
    /// Next hop has no ARP entry in the replica table.
    NoArpEntry,
    /// No MAC known for the egress interface.
    NoEgressMac,
}

/// The outer addressing of one encapsulation, resolved from the replica
/// tables.
struct Outer {
    egress_ifindex: u32,
    src_mac: MacAddr,
    dst_mac: MacAddr,
}

/// Resolve route, next-hop MAC and egress MAC for `meta.dst`;
/// `egress_mac` maps an ifindex to the MAC of the datapath port on it.
fn resolve(
    cache: &RtnlCache,
    egress_mac: impl Fn(u32) -> Option<MacAddr>,
    meta: &TunnelMetadata,
) -> Result<Outer, EncapError> {
    let route = cache.routes.lookup(meta.dst).ok_or(EncapError::NoRoute)?;
    let nexthop = route.gateway.unwrap_or(meta.dst);
    let dst_mac = cache
        .neighbors
        .lookup(nexthop)
        .ok_or(EncapError::NoArpEntry)?
        .mac;
    let src_mac = egress_mac(route.ifindex).ok_or(EncapError::NoEgressMac)?;
    Ok(Outer {
        egress_ifindex: route.ifindex,
        src_mac,
        dst_mac,
    })
}

/// The outer UDP source port: entropy for ECMP and RSS on the far side.
fn source_port(entropy: u16) -> u16 {
    0xc000 | (entropy & 0x3fff)
}

/// The VNI carried in a Geneve or VXLAN header.
fn vni(meta: &TunnelMetadata) -> u32 {
    (meta.tun_id & 0x00ff_ffff) as u32
}

/// The encapsulated frame, built anew around a copy of `inner`.
fn outer_frame(
    cfg: &TunnelConfig,
    o: &Outer,
    meta: &TunnelMetadata,
    inner: &[u8],
    entropy: u16,
) -> Vec<u8> {
    let sport = source_port(entropy);
    match cfg.kind {
        TunnelKind::Geneve => builder::geneve_encap(
            o.src_mac,
            o.dst_mac,
            cfg.local_ip,
            meta.dst,
            sport,
            vni(meta),
            inner,
        ),
        TunnelKind::Vxlan => vxlan_encap(
            o.src_mac,
            o.dst_mac,
            cfg.local_ip,
            meta.dst,
            sport,
            vni(meta),
            inner,
        ),
        TunnelKind::Gre => gre_encap(
            o.src_mac,
            o.dst_mac,
            cfg.local_ip,
            meta.dst,
            meta.tun_id as u32,
            inner,
        ),
    }
}

/// Encapsulate `inner` toward `meta.dst` using the replica tables.
///
/// `dev_macs` supplies `(ifindex, mac)` pairs for source-MAC selection.
pub fn encap(
    cfg: &TunnelConfig,
    cache: &RtnlCache,
    dev_macs: &[(u32, MacAddr)],
    meta: &TunnelMetadata,
    inner: &[u8],
    entropy: u16,
) -> Result<EncapResult, EncapError> {
    let egress_mac = |ifindex| {
        dev_macs
            .iter()
            .find(|(i, _)| *i == ifindex)
            .map(|(_, m)| *m)
    };
    let o = resolve(cache, egress_mac, meta)?;
    Ok(EncapResult {
        egress_ifindex: o.egress_ifindex,
        frame: outer_frame(cfg, &o, meta, inner, entropy),
    })
}

/// [`encap`] in place, as OVS's native tunnel push does: the outer
/// header is written into `pkt`'s headroom in front of the inner frame,
/// which is not copied. The bytes equal [`encap`]'s frame. VXLAN, GRE
/// and a packet with too little headroom take [`encap`]'s copy instead.
/// Returns the egress ifindex; `egress_mac` maps an ifindex to the MAC
/// of the datapath port on it.
pub fn encap_in_place(
    cfg: &TunnelConfig,
    cache: &RtnlCache,
    egress_mac: impl Fn(u32) -> Option<MacAddr>,
    meta: &TunnelMetadata,
    pkt: &mut DpPacket,
    entropy: u16,
) -> Result<u32, EncapError> {
    let o = resolve(cache, egress_mac, meta)?;
    if cfg.kind == TunnelKind::Geneve && pkt.headroom() >= builder::GENEVE_OUTER_LEN {
        pkt.push_front(builder::GENEVE_OUTER_LEN);
        builder::write_geneve_outer(
            pkt.data_mut(),
            o.src_mac,
            o.dst_mac,
            cfg.local_ip,
            meta.dst,
            source_port(entropy),
            vni(meta),
        );
    } else {
        let frame = outer_frame(cfg, &o, meta, pkt.data(), entropy);
        pkt.set_data(&frame);
    }
    Ok(o.egress_ifindex)
}

/// If `frame` is a tunnel packet addressed to `cfg.local_ip`: the byte
/// range of the inner frame within it, and the tunnel metadata. The one
/// outer-header parser behind [`try_decap`] and [`decap_in_place`].
fn parse_outer(cfg: &TunnelConfig, frame: &[u8]) -> Option<(Range<usize>, TunnelMetadata)> {
    // Where a payload sub-slice sits within `frame`.
    let within = |inner: &[u8]| {
        let start = inner.as_ptr() as usize - frame.as_ptr() as usize;
        start..start + inner.len()
    };
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != ovs_packet::EtherType::Ipv4 {
        return None;
    }
    let ip = ipv4::Ipv4Packet::new_checked(eth.payload()).ok()?;
    if ip.dst() != cfg.local_ip {
        return None;
    }
    let meta = |id: u64| TunnelMetadata {
        tun_id: id,
        src: ip.src(),
        dst: ip.dst(),
        tos: ip.tos(),
        ttl: ip.ttl(),
    };
    // GRE is IP protocol 47, not UDP.
    if cfg.kind == TunnelKind::Gre {
        if ip.protocol() != ipv4::protocol::GRE {
            return None;
        }
        let g = gre::GrePacket::new_checked(ip.payload()).ok()?;
        if g.protocol() != gre::PROTO_TEB {
            return None;
        }
        return Some((within(g.payload()), meta(u64::from(g.key().unwrap_or(0)))));
    }
    if ip.protocol() != ipv4::protocol::UDP {
        return None;
    }
    let u = udp::UdpDatagram::new_checked(ip.payload()).ok()?;
    match (cfg.kind, u.dst_port()) {
        (TunnelKind::Geneve, geneve::UDP_PORT) => {
            let g = geneve::GenevePacket::new_checked(u.payload()).ok()?;
            Some((within(g.payload()), meta(u64::from(g.vni()))))
        }
        (TunnelKind::Vxlan, vxlan::UDP_PORT) => {
            let v = vxlan::VxlanPacket::new_checked(u.payload()).ok()?;
            Some((within(v.payload()), meta(u64::from(v.vni()))))
        }
        _ => None,
    }
}

/// If `frame` is a tunnel packet addressed to `cfg.local_ip`, decapsulate:
/// returns the inner frame and the tunnel metadata.
pub fn try_decap(cfg: &TunnelConfig, frame: &[u8]) -> Option<(Vec<u8>, TunnelMetadata)> {
    let (inner, meta) = parse_outer(cfg, frame)?;
    Some((frame[inner].to_vec(), meta))
}

/// [`try_decap`] in place: strip the outer headers (and any trailer past
/// the inner frame) from `pkt` without copying the inner frame.
pub fn decap_in_place(cfg: &TunnelConfig, pkt: &mut DpPacket) -> Option<TunnelMetadata> {
    let (inner, meta) = parse_outer(cfg, pkt.data())?;
    pkt.truncate(inner.end);
    pkt.pull_front(inner.start);
    Some(meta)
}

fn gre_encap(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    key: u32,
    inner: &[u8],
) -> Vec<u8> {
    use ovs_packet::ethernet;
    let mut hdr = [0u8; 12];
    let hdr_len = gre::build_header(&mut hdr, gre::PROTO_TEB, Some(key), None);
    let ip_len = ipv4::HEADER_LEN + hdr_len + inner.len();
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_len];
    {
        let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
        eth.set_src(src_mac);
        eth.set_dst(dst_mac);
        eth.set_ethertype(ovs_packet::EtherType::Ipv4);
    }
    {
        let mut ip = ipv4::Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
        ip.set_ver_ihl(ipv4::HEADER_LEN);
        ip.set_total_len(ip_len as u16);
        ip.set_frag(true, false, 0);
        ip.set_ttl(64);
        ip.set_protocol(ipv4::protocol::GRE);
        ip.set_src(src_ip);
        ip.set_dst(dst_ip);
        ip.fill_checksum();
    }
    let off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    buf[off..off + hdr_len].copy_from_slice(&hdr[..hdr_len]);
    buf[off + hdr_len..].copy_from_slice(inner);
    buf
}

fn vxlan_encap(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    sport: u16,
    vni: u32,
    inner: &[u8],
) -> Vec<u8> {
    // VXLAN header + inner frame as UDP payload.
    let mut payload = vec![0u8; vxlan::HEADER_LEN + inner.len()];
    {
        let mut v = vxlan::VxlanPacket::new_unchecked(&mut payload[..]);
        v.init(vni);
        v.payload_mut().copy_from_slice(inner);
    }
    builder::udp_ipv4(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        sport,
        vxlan::UDP_PORT,
        &payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_kernel::neigh::{NeighState, Neighbor};
    use ovs_kernel::route::Route;
    use ovs_kernel::rtnetlink::RtnlEvent;

    fn replica() -> RtnlCache {
        let mut cache = RtnlCache::new();
        cache.sync(&[
            RtnlEvent::RouteAdd(Route {
                dst: [172, 16, 0, 0],
                prefix_len: 24,
                gateway: None,
                ifindex: 10,
            }),
            RtnlEvent::NeighAdd(Neighbor {
                ip: [172, 16, 0, 2],
                mac: MacAddr::new(4, 0, 0, 0, 0, 2),
                ifindex: 10,
                state: NeighState::Reachable,
            }),
        ]);
        cache
    }

    fn inner() -> Vec<u8> {
        builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1,
            2,
            b"inner",
        )
    }

    fn meta() -> TunnelMetadata {
        TunnelMetadata {
            tun_id: 5001,
            src: [172, 16, 0, 1],
            dst: [172, 16, 0, 2],
            tos: 0,
            ttl: 64,
        }
    }

    #[test]
    fn geneve_encap_decap_roundtrip() {
        let cfg_tx = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 1],
        };
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let enc = encap(&cfg_tx, &cache, &macs, &meta(), &inner(), 0x1234).unwrap();
        assert_eq!(enc.egress_ifindex, 10);

        let cfg_rx = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 2],
        };
        let (dec, m) = try_decap(&cfg_rx, &enc.frame).unwrap();
        assert_eq!(dec, inner());
        assert_eq!(m.tun_id, 5001);
        assert_eq!(m.src, [172, 16, 0, 1]);
    }

    #[test]
    fn vxlan_encap_decap_roundtrip() {
        let cfg_tx = TunnelConfig {
            kind: TunnelKind::Vxlan,
            local_ip: [172, 16, 0, 1],
        };
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let enc = encap(&cfg_tx, &cache, &macs, &meta(), &inner(), 7).unwrap();
        let cfg_rx = TunnelConfig {
            kind: TunnelKind::Vxlan,
            local_ip: [172, 16, 0, 2],
        };
        let (dec, m) = try_decap(&cfg_rx, &enc.frame).unwrap();
        assert_eq!(dec, inner());
        assert_eq!(m.tun_id, 5001);
    }

    #[test]
    fn gre_encap_decap_roundtrip() {
        let cfg_tx = TunnelConfig {
            kind: TunnelKind::Gre,
            local_ip: [172, 16, 0, 1],
        };
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let enc = encap(&cfg_tx, &cache, &macs, &meta(), &inner(), 3).unwrap();
        // The outer is IP proto 47, not UDP.
        let ip = ipv4::Ipv4Packet::new_checked(&enc.frame[14..]).unwrap();
        assert_eq!(ip.protocol(), ipv4::protocol::GRE);
        assert!(ip.verify_checksum());
        let cfg_rx = TunnelConfig {
            kind: TunnelKind::Gre,
            local_ip: [172, 16, 0, 2],
        };
        let (dec, m) = try_decap(&cfg_rx, &enc.frame).unwrap();
        assert_eq!(dec, inner());
        assert_eq!(m.tun_id, 5001);
        // A Geneve endpoint ignores GRE traffic.
        let gnv = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 2],
        };
        assert!(try_decap(&gnv, &enc.frame).is_none());
    }

    #[test]
    fn missing_route_and_arp_reported() {
        let cfg = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 1],
        };
        let empty = RtnlCache::new();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        assert_eq!(
            encap(&cfg, &empty, &macs, &meta(), &inner(), 0).unwrap_err(),
            EncapError::NoRoute
        );
        // Route but no neighbour.
        let mut cache = RtnlCache::new();
        cache.sync(&[RtnlEvent::RouteAdd(Route {
            dst: [172, 16, 0, 0],
            prefix_len: 24,
            gateway: None,
            ifindex: 10,
        })]);
        assert_eq!(
            encap(&cfg, &cache, &macs, &meta(), &inner(), 0).unwrap_err(),
            EncapError::NoArpEntry
        );
    }

    #[test]
    fn decap_ignores_foreign_traffic() {
        let cfg = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 2],
        };
        // Plain UDP to another port isn't decapsulated.
        assert!(try_decap(&cfg, &inner()).is_none());
        // Wrong local IP isn't ours.
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let cfg_tx = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [172, 16, 0, 1],
        };
        let enc = encap(&cfg_tx, &cache, &macs, &meta(), &inner(), 0).unwrap();
        let wrong = TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: [9, 9, 9, 9],
        };
        assert!(try_decap(&wrong, &enc.frame).is_none());
    }

    fn sized_inner(len: usize) -> Vec<u8> {
        builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1,
            2,
            len,
        )
    }

    /// A packet holding `inner`, with stale bytes in the headroom right
    /// in front of it (as after a decap, or on a reused descriptor).
    fn packet_with_stale_headroom(inner: &[u8]) -> DpPacket {
        let mut framed = vec![0xa5u8; 64];
        framed.extend_from_slice(inner);
        let mut pkt = DpPacket::from_data(&framed);
        pkt.pull_front(64);
        pkt
    }

    fn cfg(kind: TunnelKind, last: u8) -> TunnelConfig {
        TunnelConfig {
            kind,
            local_ip: [172, 16, 0, last],
        }
    }

    #[test]
    fn in_place_encap_and_decap_match_the_copying_forms() {
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let egress_mac = |i: u32| macs.iter().find(|(d, _)| *d == i).map(|(_, m)| *m);
        for kind in [TunnelKind::Geneve, TunnelKind::Vxlan, TunnelKind::Gre] {
            for len in [64, 576, 1400] {
                let inner = sized_inner(len);
                let enc = encap(&cfg(kind, 1), &cache, &macs, &meta(), &inner, 0x1234).unwrap();
                if kind == TunnelKind::Geneve {
                    let built = builder::geneve_encap(
                        MacAddr::new(4, 0, 0, 0, 0, 1),
                        MacAddr::new(4, 0, 0, 0, 0, 2),
                        [172, 16, 0, 1],
                        [172, 16, 0, 2],
                        0xc000 | 0x1234,
                        5001,
                        &inner,
                    );
                    assert_eq!(enc.frame, built, "{len} B: encap is the builder's frame");
                }

                let mut pkt = packet_with_stale_headroom(&inner);
                let egress =
                    encap_in_place(&cfg(kind, 1), &cache, egress_mac, &meta(), &mut pkt, 0x1234)
                        .unwrap();
                assert_eq!(egress, enc.egress_ifindex);
                assert_eq!(
                    pkt.data(),
                    &enc.frame[..],
                    "{kind:?} {len} B: push in place"
                );

                let (want, want_meta) = try_decap(&cfg(kind, 2), &enc.frame).unwrap();
                assert_eq!(want, inner);
                let got_meta = decap_in_place(&cfg(kind, 2), &mut pkt).unwrap();
                assert_eq!(pkt.data(), &inner[..], "{kind:?} {len} B: pop in place");
                assert_eq!(got_meta, want_meta);
            }
        }
    }

    #[test]
    fn in_place_push_past_the_headroom_falls_back_to_a_copy() {
        // Geneve in Geneve in Geneve: the third push finds 28 bytes of
        // headroom, fewer than its 50-byte header, and copies instead of
        // panicking. The bytes still equal the copying form's.
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let egress_mac = |i: u32| macs.iter().find(|(d, _)| *d == i).map(|(_, m)| *m);
        let gnv = cfg(TunnelKind::Geneve, 1);
        let mut want = sized_inner(64);
        let mut pkt = DpPacket::from_data(&want);
        for depth in 1..=3 {
            want = encap(&gnv, &cache, &macs, &meta(), &want, 7).unwrap().frame;
            encap_in_place(&gnv, &cache, egress_mac, &meta(), &mut pkt, 7).unwrap();
            assert_eq!(pkt.data(), &want[..], "depth {depth}");
        }
    }

    #[test]
    fn in_place_decap_drops_the_outer_trailer() {
        // Ethernet padding past the outer IP length is not inner frame.
        let cache = replica();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let inner = sized_inner(64);
        let mut outer = encap(
            &cfg(TunnelKind::Geneve, 1),
            &cache,
            &macs,
            &meta(),
            &inner,
            0,
        )
        .unwrap()
        .frame;
        outer.extend_from_slice(&[0; 6]);
        let (copied, _) = try_decap(&cfg(TunnelKind::Geneve, 2), &outer).unwrap();
        let mut pkt = DpPacket::from_data(&outer);
        decap_in_place(&cfg(TunnelKind::Geneve, 2), &mut pkt).unwrap();
        assert_eq!(copied, inner);
        assert_eq!(pkt.data(), &inner[..]);
        // Foreign traffic is left untouched.
        let mut plain = DpPacket::from_data(&inner);
        assert!(decap_in_place(&cfg(TunnelKind::Geneve, 2), &mut plain).is_none());
        assert_eq!(plain.data(), &inner[..]);
    }
}
