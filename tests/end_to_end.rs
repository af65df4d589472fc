//! End-to-end integration across every crate: the two-host NSX overlay
//! carrying real, checksummed frames through the full AF_XDP userspace
//! datapath — XDP hook → XSK → EMC/megaflow/ofproto → conntrack →
//! Geneve → wire — and back.

use ovs_afxdp::OptLevel;
use ovs_afxdp_repro::kernel::guest::GuestRole;
use ovs_afxdp_repro::nsx::ruleset;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_afxdp_repro::packet::{builder, ipv4, udp, EthernetFrame};

fn config(id: u8, datapath: DatapathKind, attachment: VmAttachment) -> HostConfig {
    let mut cfg = HostConfig::nsx_default(id, datapath, attachment);
    cfg.nsx.vms = 3;
    cfg.nsx.tunnels = 6;
    cfg.nsx.target_rules = 1_200;
    cfg
}

/// The pair with host 1's sending VM absorbing the echo replies.
fn pair(datapath: DatapathKind, attachment: VmAttachment) -> HostPair {
    let mut pair = HostPair::new(|id| config(id, datapath, attachment));
    let sender = pair.h1.guest_of_vif[0];
    pair.h1.kernel.guests[sender].role = GuestRole::Sink;
    pair
}

fn request(seq: u16) -> Vec<u8> {
    builder::udp_ipv4(
        ruleset::vm_mac(1, 0, 0),
        ruleset::vm_mac(2, 0, 0),
        ruleset::vm_ip(1, 0, 0),
        ruleset::vm_ip(2, 0, 0),
        4000 + seq,
        7,
        format!("req-{seq}").as_bytes(),
    )
}

#[test]
fn afxdp_overlay_round_trip_with_firewall() {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut pair = pair(dpk, VmAttachment::VhostUser);
    let sender = pair.h1.guest_of_vif[0];
    for seq in 0..20 {
        pair.h1.kernel.guests[sender]
            .tx_ring
            .push_back(request(seq));
    }
    pair.settle();
    let (h1, h2) = (&pair.h1, &pair.h2);

    // Every request was answered across the overlay.
    assert_eq!(h1.kernel.guests[sender].rx_count, 20);

    let dp1 = h1.dp.as_ref().unwrap();
    let dp2 = h2.dp.as_ref().unwrap();
    // Both directions tunnelled and recirculated through the firewall.
    assert!(dp1.stats.tunnel_encaps >= 20);
    assert!(dp1.stats.tunnel_decaps >= 20);
    assert!(dp2.stats.tunnel_encaps >= 20);
    assert!(dp1.stats.recirculations >= 40, "ct pipeline recirculates");
    // Conntrack on both hosts saw the connections.
    assert!(dp1.ct.len() >= 20);
    assert!(dp2.ct.len() >= 20);
    // The caches converge: far fewer upcalls than packets processed.
    assert!(
        dp1.stats.upcalls as f64 <= 0.2 * dp1.stats.rx_packets as f64,
        "{} upcalls for {} packets",
        dp1.stats.upcalls,
        dp1.stats.rx_packets
    );
}

#[test]
fn kernel_datapath_overlay_round_trip() {
    let mut pair = pair(DatapathKind::Kernel, VmAttachment::Tap);
    let sender = pair.h1.guest_of_vif[0];

    // Ten packets of ONE flow, sent one at a time (as a real stream
    // arrives): the first installs the megaflows, the rest must ride the
    // kernel fast path.
    for _ in 0..10 {
        pair.h1.kernel.guests[sender].tx_ring.push_back(request(0));
        pair.settle();
    }
    let (h1, h2) = (&pair.h1, &pair.h2);

    assert_eq!(h1.kernel.guests[sender].rx_count, 10);
    assert!(h1.kernel.ovs.stats.tunnel_encaps >= 10);
    assert!(h2.kernel.ovs.stats.tunnel_decaps >= 10);
    // Kernel megaflows were installed by the upcall handler; steady state
    // hits them.
    assert!(h1.kernel.ovs.flow_count() >= 3);
    assert!(h1.kernel.ovs.stats.hits > h1.kernel.ovs.stats.misses);
    // Kernel conntrack (not the userspace one) tracked the connections.
    assert!(!h1.kernel.conntrack.is_empty());
}

#[test]
fn outer_frames_on_the_wire_are_valid_geneve() {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let h1 = &mut pair(dpk, VmAttachment::VhostUser).h1;
    let sender = h1.guest_of_vif[0];
    h1.kernel.guests[sender].tx_ring.push_back(request(0));
    h1.pump();
    let outers = h1.wire_take();
    assert!(!outers.is_empty(), "a frame reached the wire");
    for f in &outers {
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        let ip = ipv4::Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum(), "outer IP checksum valid");
        assert_eq!(ip.src(), [172, 16, 0, 1]);
        assert_eq!(ip.dst(), [172, 16, 0, 2]);
        let u = udp::UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(u.dst_port(), ovs_afxdp_repro::packet::geneve::UDP_PORT);
        let g = ovs_afxdp_repro::packet::geneve::GenevePacket::new_checked(u.payload()).unwrap();
        // The inner frame is the original request, byte for byte.
        assert_eq!(g.payload(), &request(0)[..]);
    }
}

#[test]
fn intra_host_traffic_never_touches_the_tunnel() {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut h1 = Host::build(&config(1, dpk, VmAttachment::VhostUser));
    let sender = h1.guest_of_vif[0];
    h1.kernel.guests[sender].role = GuestRole::Sink;
    // VM0 -> VM1 on the same host.
    let frame = builder::udp_ipv4(
        ruleset::vm_mac(1, 0, 0),
        ruleset::vm_mac(1, 1, 0),
        ruleset::vm_ip(1, 0, 0),
        ruleset::vm_ip(1, 1, 0),
        5000,
        7,
        b"local",
    );
    h1.kernel.guests[sender].tx_ring.push_back(frame);
    for _ in 0..8 {
        if h1.pump() == 0 {
            break;
        }
    }
    let receiver = h1.guest_of_vif[2]; // VM1 iface 0
    assert!(
        h1.kernel.guests[receiver].rx_count >= 1,
        "locally delivered"
    );
    assert_eq!(h1.dp.as_ref().unwrap().stats.tunnel_encaps, 0);
    assert!(h1.wire_take().is_empty(), "nothing left the host");
}

/// Send `requests` requests from VM 0 on host 1 to VM 0 on host 2, one
/// at a time, carrying the wire by hand until it is quiet. Returns every
/// outer frame each direction put on the wire (host 1 → host 2, then
/// host 2 → host 1) and the replies the sender received.
fn wire_frames(mut pair: HostPair, requests: u16) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, u64) {
    let sender = pair.h1.guest_of_vif[0];
    let (mut there, mut back) = (Vec::new(), Vec::new());
    for seq in 0..requests {
        pair.h1.kernel.guests[sender]
            .tx_ring
            .push_back(request(seq));
        for _ in 0..32 {
            pair.h1.pump();
            let sent = pair.h1.wire_take();
            for f in &sent {
                pair.h2.wire_inject(f.clone());
            }
            pair.h2.pump();
            let replied = pair.h2.wire_take();
            for f in &replied {
                pair.h1.wire_inject(f.clone());
            }
            if sent.is_empty() && replied.is_empty() {
                break;
            }
            there.extend(sent);
            back.extend(replied);
        }
    }
    (there, back, pair.h1.kernel.guests[sender].rx_count)
}

#[test]
fn both_datapaths_put_the_same_outer_frames_on_the_wire() {
    // The NSX pipeline (firewall, conntrack, Geneve) over AF_XDP with
    // vhostuser VMs, and over the kernel module with tap VMs: the
    // control plane and the wire cannot tell them apart.
    let afxdp = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let user = wire_frames(pair(afxdp, VmAttachment::VhostUser), 5);
    let kern = wire_frames(pair(DatapathKind::Kernel, VmAttachment::Tap), 5);
    assert_eq!((user.0.len(), user.1.len(), user.2), (5, 5, 5));
    assert_eq!(kern.0, user.0, "host 1 → host 2 outer frames");
    assert_eq!(kern.1, user.1, "host 2 → host 1 outer frames");
    assert_eq!(kern.2, 5, "every reply delivered");
}
