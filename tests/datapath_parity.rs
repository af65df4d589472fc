//! Parity between the two architectures: the same OpenFlow pipeline must
//! make the same forwarding decisions whether it runs above the kernel
//! module (`dpif-netlink`) or in the userspace datapath (`dpif-netdev`).
//! This is the compatibility property that let the paper swap datapaths
//! under NSX without changing the control plane (§4).

use ovs_afxdp_repro::afxdp::{AfxdpPort, OptLevel};
use ovs_afxdp_repro::kernel::dev::{Attachment, DeviceKind, NetDevice};
use ovs_afxdp_repro::kernel::ovs_module::Vport;
use ovs_afxdp_repro::kernel::Kernel;
use ovs_afxdp_repro::ovs::dpif::{DpifNetdev, DpifNetlink, PortType};
use ovs_afxdp_repro::ovs::ofproto::{OfAction, OfRule, Ofproto};
use ovs_afxdp_repro::packet::flow::{fields, FlowKey, FlowMask};
use ovs_afxdp_repro::packet::tcp::flags;
use ovs_afxdp_repro::packet::{builder, MacAddr};
use ovs_sim::SimRng;

const N_PORTS: u32 = 4;

/// A pipeline that exercises priorities, metadata, VLANs, conntrack and
/// multi-table dispatch: traffic from port 0 is classified by destination
/// prefix across two tables and delivered to ports 1–3 or dropped.
fn pipeline() -> Ofproto {
    let mut of = Ofproto::new();
    let mut k = FlowKey::default();
    k.set_in_port(0);
    of.add_rule(OfRule {
        table: 0,
        priority: 10,
        key: k,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::SetMetadata(7), OfAction::Goto(1)],
        cookie: 1,
    });
    // Table 1: /16 routing with priorities; highest priority wins.
    let dests: [([u8; 4], u8, i32, u32); 4] = [
        ([10, 1, 0, 0], 16, 10, 1),
        ([10, 2, 0, 0], 16, 10, 2),
        ([10, 2, 128, 0], 17, 20, 3), // more specific + higher priority
        ([10, 3, 0, 0], 16, 10, 3),
    ];
    for (ip, plen, prio, port) in dests {
        let mut key = FlowKey::default();
        key.set_nw_dst_v4(ip);
        key.set_metadata(7);
        let mut mask = FlowMask::of_fields(&[&fields::METADATA]);
        mask.set_nw_dst_v4_prefix(plen);
        of.add_rule(OfRule {
            table: 1,
            priority: prio,
            key,
            mask,
            actions: vec![OfAction::PushVlan(100), OfAction::Output(port)],
            cookie: 2,
        });
    }
    // Everything else in table 1 drops (OpenFlow default-miss).
    of
}

fn probe_frames() -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(0xdead);
    let mut frames = Vec::new();
    for _ in 0..200 {
        let dst = [
            10,
            rng.below(5) as u8,
            rng.below(255) as u8,
            rng.below(254) as u8 + 1,
        ];
        frames.push(builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [172, 16, 9, 9],
            dst,
            1000 + rng.below(5000) as u16,
            53,
            64,
        ));
    }
    frames
}

/// Per-frame delivery: the egress port and frame, or `None` if dropped.
type Delivered = Vec<Option<(u32, Vec<u8>)>>;

/// Run through the userspace datapath; returns per-frame delivery port
/// (None = dropped) and the delivered frame.
fn run_userspace(frames: &[Vec<u8>]) -> Delivered {
    run_userspace_with(pipeline(), frames).0
}

/// [`run_userspace`] under `of`, also returning the datapath.
fn run_userspace_with(of: Ofproto, frames: &[Vec<u8>]) -> (Delivered, DpifNetdev) {
    let mut k = Kernel::new(8);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
    for p in 0..N_PORTS {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{p}"),
            MacAddr::new(2, 0, 0, 0, 0, p as u8 + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let port = dp.add_port(
            &format!("eth{p}"),
            PortType::Afxdp(AfxdpPort::open(&mut k, nic, 512, OptLevel::O5).unwrap()),
        );
        assert_eq!(port, p);
        nics.push(nic);
    }
    dp.ofproto = of;

    let mut out = Vec::new();
    for f in frames {
        k.receive(nics[0], 0, f.clone());
        dp.pmd_poll(&mut k, 0, 0, 1);
        let mut delivered = None;
        for (p, &nic) in nics.iter().enumerate() {
            if let Some(frame) = k.dev_mut(nic).tx_wire.pop_front() {
                delivered = Some((p as u32, frame));
            }
        }
        out.push(delivered);
    }
    (out, dp)
}

/// Run through the kernel datapath driven by dpif-netlink.
fn run_kernel_dp(frames: &[Vec<u8>]) -> Delivered {
    run_kernel_dp_with(pipeline(), frames).0
}

/// [`run_kernel_dp`] under `of`, also returning the kernel.
fn run_kernel_dp_with(of: Ofproto, frames: &[Vec<u8>]) -> (Delivered, Kernel) {
    let mut k = Kernel::new(8);
    let mut nics = Vec::new();
    for p in 0..N_PORTS {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{p}"),
            MacAddr::new(2, 0, 0, 0, 0, p as u8 + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let vport = k.ovs.add_vport(Vport::Netdev { ifindex: nic });
        assert_eq!(vport, p);
        k.dev_mut(nic).attachment = Attachment::OvsBridge { port: vport };
        nics.push(nic);
    }
    let mut nl = DpifNetlink::new([0, 0, 0, 0]);
    nl.ofproto = of;

    let mut out = Vec::new();
    for f in frames {
        k.receive(nics[0], 0, f.clone());
        nl.handle_upcalls(&mut k, 1);
        let mut delivered = None;
        for (p, &nic) in nics.iter().enumerate() {
            if let Some(frame) = k.dev_mut(nic).tx_wire.pop_front() {
                delivered = Some((p as u32, frame));
            }
        }
        out.push(delivered);
    }
    (out, k)
}

#[test]
fn both_datapaths_agree_on_every_packet() {
    let frames = probe_frames();
    let user = run_userspace(&frames);
    let kern = run_kernel_dp(&frames);

    let mut delivered = 0;
    let mut dropped = 0;
    for (i, (u, n)) in user.iter().zip(kern.iter()).enumerate() {
        match (u, n) {
            (Some((pu, fu)), Some((pn, fn_))) => {
                assert_eq!(pu, pn, "frame {i}: same egress port");
                assert_eq!(fu, fn_, "frame {i}: identical bytes (incl. VLAN tag)");
                delivered += 1;
            }
            (None, None) => dropped += 1,
            other => panic!("frame {i}: datapaths disagree: {other:?}"),
        }
    }
    // The probe distribution hits both outcomes.
    assert!(delivered > 50, "delivered {delivered}");
    assert!(dropped > 20, "dropped {dropped}");
}

#[test]
fn vlan_tag_applied_identically() {
    let frames = probe_frames();
    let user = run_userspace(&frames);
    for d in user.into_iter().flatten() {
        let (_, frame) = d;
        assert_eq!(&frame[12..14], &[0x81, 0x00], "VLAN pushed");
        let vid = u16::from_be_bytes([frame[14], frame[15]]) & 0x0fff;
        assert_eq!(vid, 100);
    }
}

#[test]
fn more_specific_higher_priority_rule_wins_in_both() {
    // 10.2.128.x matches both the /16 (port 2) and the /17 with higher
    // priority (port 3); the /17 must win in both datapaths.
    let frame = builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [172, 16, 9, 9],
        [10, 2, 200, 5],
        1234,
        53,
        64,
    );
    let u = run_userspace(std::slice::from_ref(&frame));
    let n = run_kernel_dp(std::slice::from_ref(&frame));
    assert_eq!(u[0].as_ref().unwrap().0, 3);
    assert_eq!(n[0].as_ref().unwrap().0, 3);
}

/// Everything from port 0 goes through `ct(commit,zone=1)` and out port 1.
fn ct_commit_pipeline() -> Ofproto {
    let mut of = Ofproto::new();
    let mut k = FlowKey::default();
    k.set_in_port(0);
    of.add_rule(OfRule {
        table: 0,
        priority: 10,
        key: k,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Ct {
            zone: 1,
            commit: true,
            resume_table: 1,
            nat: None,
        }],
        cookie: 1,
    });
    of.add_rule(OfRule {
        table: 1,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Output(1)],
        cookie: 2,
    });
    of
}

#[test]
fn tcp_flags_and_ct_refusals_agree_in_both() {
    // A SYN, SYN-ACK, FIN, FIN exchange closes the connection to
    // TIME_WAIT on both datapaths, and an RST that would open a new
    // connection is refused and dropped on both.
    let (a, b, c) = ([172, 16, 9, 9], [10, 1, 0, 5], [172, 16, 9, 10]);
    let seg = |src, dst, sport, dport, f| {
        builder::tcp_ipv4(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            src,
            dst,
            sport,
            dport,
            1,
            0,
            f,
            b"",
        )
    };
    let frames = [
        seg(a, b, 1000, 80, flags::SYN),
        seg(b, a, 80, 1000, flags::SYN | flags::ACK),
        seg(a, b, 1000, 80, flags::FIN | flags::ACK),
        seg(b, a, 80, 1000, flags::FIN | flags::ACK),
        seg(c, b, 2000, 80, flags::RST),
    ];
    let (user, dp) = run_userspace_with(ct_commit_pipeline(), &frames);
    let (kern, k) = run_kernel_dp_with(ct_commit_pipeline(), &frames);

    let ports = |d: &Delivered| {
        d.iter()
            .map(|o| o.as_ref().map(|(p, _)| *p))
            .collect::<Vec<_>>()
    };
    assert_eq!(ports(&user), [Some(1), Some(1), Some(1), Some(1), None]);
    assert_eq!(
        ports(&kern),
        ports(&user),
        "same forwarding and the same drop"
    );
    let dump = dp.ct.dump(None, 0);
    assert!(dump.contains("state=TIME_WAIT"), "{dump}");
    assert!(dump.ends_with("ct: 1 connection(s)\n"), "{dump}");
    assert_eq!(k.conntrack.dump(None, 0), dump, "same conntrack state");
    assert_eq!(dp.stats.ct_invalid_drops, 1);
    assert_eq!(k.ovs.stats.ct_drops, 1);
    assert_eq!(k.conntrack.stats.invalid_drops, 1);
}
