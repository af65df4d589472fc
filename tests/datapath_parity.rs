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
use ovs_afxdp_repro::ovs::ofctl;
use ovs_afxdp_repro::ovs::ofproto::{OfAction, OfRule, Ofproto};
use ovs_afxdp_repro::ovs::Meter;
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

/// Per input frame, every frame it put on a wire as `(port, bytes)`, in
/// port order; empty if it was dropped.
type Delivered = Vec<Vec<(u32, Vec<u8>)>>;

/// Take every frame the NICs transmitted, in port order.
fn drain_wires(k: &mut Kernel, nics: &[u32]) -> Vec<(u32, Vec<u8>)> {
    let mut out = Vec::new();
    for (p, &nic) in nics.iter().enumerate() {
        out.extend(k.dev_mut(nic).tx_wire.drain(..).map(|f| (p as u32, f)));
    }
    out
}

/// Run through the userspace datapath.
fn run_userspace(frames: &[Vec<u8>]) -> Delivered {
    run_userspace_with(pipeline(), &[], frames).0
}

/// [`run_userspace`] under `of`, with `meters` installed, also returning
/// the datapath.
fn run_userspace_with(
    of: Ofproto,
    meters: &[(u32, Meter)],
    frames: &[Vec<u8>],
) -> (Delivered, DpifNetdev) {
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
    for (id, m) in meters {
        dp.meters.set(*id, m.clone());
    }

    let mut out = Vec::new();
    for f in frames {
        k.receive(nics[0], 0, f.clone());
        dp.pmd_poll(&mut k, 0, 0, 1);
        out.push(drain_wires(&mut k, &nics));
    }
    (out, dp)
}

/// Run through the kernel datapath driven by dpif-netlink.
fn run_kernel_dp(frames: &[Vec<u8>]) -> Delivered {
    run_kernel_dp_with(pipeline(), &[], frames).0
}

/// [`run_kernel_dp`] under `of`, with `meters` installed, also returning
/// the kernel.
fn run_kernel_dp_with(
    of: Ofproto,
    meters: &[(u32, Meter)],
    frames: &[Vec<u8>],
) -> (Delivered, Kernel) {
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
    for (id, m) in meters {
        k.ovs.meters.set(*id, m.clone());
    }
    let mut nl = DpifNetlink::new();
    nl.ofproto = of;

    let mut out = Vec::new();
    for f in frames {
        k.receive(nics[0], 0, f.clone());
        nl.handle_upcalls(&mut k, 1);
        out.push(drain_wires(&mut k, &nics));
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
        assert_eq!(
            u, n,
            "frame {i}: same port, identical bytes (incl. VLAN tag)"
        );
        match u.len() {
            0 => dropped += 1,
            _ => delivered += 1,
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
    for (_, frame) in user.into_iter().flatten() {
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
    assert_eq!(u[0][0].0, 3);
    assert_eq!(n[0][0].0, 3);
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
    let (user, dp) = run_userspace_with(ct_commit_pipeline(), &[], &frames);
    let (kern, k) = run_kernel_dp_with(ct_commit_pipeline(), &[], &frames);

    let ports = |d: &Delivered| {
        d.iter()
            .map(|o| o.first().map(|(p, _)| *p))
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

/// A one-table pipeline: everything from port 0 runs `actions`.
fn one_rule(actions: &str) -> Ofproto {
    let mut of = Ofproto::new();
    of.add_rule(ofctl::parse_flow(&format!("in_port=0, actions={actions}")).unwrap());
    of
}

/// Frames one or more ports received.
fn forwarded(d: &Delivered) -> usize {
    d.iter().filter(|o| !o.is_empty()).count()
}

#[test]
fn meters_police_alike_in_both() {
    let frames = &probe_frames()[..20];
    // Meter 1 unconfigured: a meter that does not exist passes everything.
    let (user, _) = run_userspace_with(one_rule("meter:1,output:1"), &[], frames);
    let (kern, _) = run_kernel_dp_with(one_rule("meter:1,output:1"), &[], frames);
    assert_eq!(forwarded(&user), 20);
    assert_eq!(kern, user);

    // A bucket of five frames that never refills (the clock stands still)
    // passes the same five frames on both, and both count the rest.
    let bucket_bits = 5 * frames[0].len() as u64 * 8;
    let meters = [(1, Meter::new(1_000, bucket_bits))];
    let (user, dp) = run_userspace_with(one_rule("meter:1,output:1"), &meters, frames);
    let (kern, k) = run_kernel_dp_with(one_rule("meter:1,output:1"), &meters, frames);
    assert_eq!(forwarded(&user), 5);
    assert_eq!(kern, user);
    assert_eq!(dp.stats.meter_drops, 15);
    assert_eq!(k.ovs.stats.meter_drops, 15);
}

#[test]
fn an_nf_chain_drops_by_name_in_the_kernel_after_one_lookup() {
    let frames = &probe_frames()[..20];
    let (user, dp) = run_userspace_with(one_rule("nf_chain:1"), &[], frames);
    let (kern, k) = run_kernel_dp_with(one_rule("nf_chain:1"), &[], frames);
    assert_eq!((forwarded(&user), forwarded(&kern)), (0, 0));
    // The userspace datapath has no chain 1 and fails closed.
    assert_eq!(dp.stats.nf_fail_closed_drops, 20);
    let s = k.ovs.stats;
    assert_eq!((s.lookups, s.recirculations), (20, 0));
    assert_eq!(s.unsupported_action_drops, 20);
}

#[test]
fn a_pipeline_that_recirculates_forever_drops_each_frame_once_in_both() {
    // Every pass resumes at table 0 through conntrack: each frame makes
    // MAX_RECIRC passes on either datapath, upcalls included, and is
    // then dropped at the limit. With an output in the loop, each pass
    // puts one copy on port 2 first.
    let passes = ovs_afxdp_repro::kernel::ovs_module::MAX_RECIRC;
    let frames = &probe_frames()[..20];
    for (actions, copies) in [
        ("ct(zone=1,table=0)", 0),
        ("output:2,ct(zone=1,table=0)", passes),
    ] {
        let (user, dp) = run_userspace_with(one_rule(actions), &[], frames);
        let (kern, k) = run_kernel_dp_with(one_rule(actions), &[], frames);
        assert_eq!(kern, user, "{actions}");
        assert!(
            user.iter()
                .all(|o| o.len() == copies && o.iter().all(|(p, _)| *p == 2)),
            "{actions}"
        );
        assert_eq!(dp.stats.recirc_limit_drops, 20, "{actions}");
        assert_eq!(k.ovs.stats.recirc_limit_drops, 20, "{actions}");
    }
}

/// A random pipeline over tables 0–3, in `ovs-ofctl` text, drawn from
/// every `OfAction` but a tunnel output; gotos and `ct(table=…)` may
/// loop. Meter 1 is small, meter 2 large, meter 3 unconfigured; port 4
/// does not exist; no NF chain is configured. Each table ends in a
/// catch-all rule.
fn random_pipeline(rng: &mut SimRng) -> String {
    let mut lines = Vec::new();
    for table in 0..4 {
        let actions = random_actions(rng);
        lines.push(format!("table={table}, priority=0, actions={actions}"));
        for _ in 0..1 + rng.below(3) {
            let mut m = vec![
                format!("table={table}"),
                format!("priority={}", 10 * (1 + rng.below(4))),
            ];
            if rng.below(3) == 0 {
                m.push(rng.pick(&["ip", "udp", "tcp"]).to_string());
            }
            if rng.below(3) == 0 {
                m.push(format!("nw_dst=10.{}.0.0/16", rng.below(3)));
            }
            if rng.below(4) == 0 {
                m.push(format!("tp_dst={}", rng.pick(&[53, 80])));
            }
            if rng.below(3) == 0 {
                m.push(format!("metadata={}", rng.below(3)));
            }
            if rng.below(3) == 0 {
                let states = ["+trk+new", "+trk+est", "-trk", "+trk+inv", "+trk+rpl"];
                m.push(format!("ct_state={}", rng.pick(&states)));
            }
            if rng.below(5) == 0 {
                m.push("vlan_vid=100".to_string());
            }
            m.push(format!("actions={}", random_actions(rng)));
            lines.push(m.join(", "));
        }
    }
    lines.join("\n")
}

/// One to four random actions, comma-separated.
fn random_actions(rng: &mut SimRng) -> String {
    let acts: Vec<String> = (0..1 + rng.below(4)).map(|_| random_action(rng)).collect();
    acts.join(",")
}

fn random_action(rng: &mut SimRng) -> String {
    let mac = |rng: &mut SimRng| format!("02:00:00:00:0{}:{:02x}", rng.below(2), rng.below(256));
    match rng.below(15) {
        0..=2 => format!("output:{}", rng.below(5)),
        3 => format!("goto_table:{}", rng.below(4)),
        4 => format!("write_metadata:{}", rng.below(3)),
        5 => format!("mod_dl_src:{}", mac(rng)),
        6 => format!("mod_dl_dst:{}", mac(rng)),
        7 => format!("push_vlan:{}", rng.pick(&[100, 200])),
        8 => "pop_vlan".to_string(),
        9 | 10 => {
            let zone = 1 + rng.below(2);
            let table = rng.below(4);
            match rng.below(4) {
                0 => format!("ct(zone={zone},table={table})"),
                1 => format!("ct(commit,zone={zone},nat(dst=10.9.0.1:8080),table={table})"),
                2 => format!("ct(commit,zone={zone},nat(src=192.168.0.1),table={table})"),
                _ => format!("ct(commit,zone={zone},table={table})"),
            }
        }
        11 => format!("meter:{}", 1 + rng.below(3)),
        12 => "nf_chain:1".to_string(),
        13 => "drop".to_string(),
        _ => format!("set_tunnel:{}->172.16.0.2", 5000 + rng.below(2)),
    }
}

/// A random frame of a few UDP and TCP flows, either direction, some
/// VLAN-tagged, TCP with random flags.
fn random_frame(rng: &mut SimRng) -> Vec<u8> {
    let (mut src, mut dst) = (
        [172, 16, 9, 1 + rng.below(2) as u8],
        [10, rng.below(3) as u8, 0, 5],
    );
    let (mut sport, mut dport) = (1000 + rng.below(3) as u16, *rng.pick(&[53, 80]));
    if rng.below(3) == 0 {
        (src, dst, sport, dport) = (dst, src, dport, sport);
    }
    let (a, b) = (
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
    );
    let mut f = if rng.below(2) == 0 {
        builder::udp_ipv4_frame(a, b, src, dst, sport, dport, 64 + 8 * rng.below(4) as usize)
    } else {
        let f = *rng.pick(&[
            flags::SYN,
            flags::SYN | flags::ACK,
            flags::ACK,
            flags::FIN | flags::ACK,
            flags::RST,
        ]);
        builder::tcp_ipv4(a, b, src, dst, sport, dport, 1, 1, f, b"")
    };
    if rng.below(5) == 0 {
        f.splice(12..12, [0x81, 0x00, 0x00, 100]);
    }
    f
}

#[test]
fn random_pipelines_forward_alike_in_both() {
    let meters = [
        (1, Meter::new(1_000, 3 * 90 * 8)),
        (2, Meter::new(1_000, 1_000_000)),
    ];
    let mut rng = SimRng::new(0x5eed);
    let (mut delivered, mut dropped) = (0, 0);
    let mut drops = [0u64; 6];
    for case in 0..100 {
        let text = random_pipeline(&mut rng);
        let rules = ofctl::parse_flows(&text).unwrap();
        let of = || {
            let mut of = Ofproto::new();
            for r in &rules {
                of.add_rule(r.clone());
            }
            of
        };
        let frames: Vec<Vec<u8>> = (0..24).map(|_| random_frame(&mut rng)).collect();
        let (user, _) = run_userspace_with(of(), &meters, &frames);
        let (kern, k) = run_kernel_dp_with(of(), &meters, &frames);
        for (i, (u, n)) in user.iter().zip(&kern).enumerate() {
            let sizes =
                |d: &[(u32, Vec<u8>)]| d.iter().map(|(p, f)| (*p, f.len())).collect::<Vec<_>>();
            assert!(
                u == n,
                "case {case}, frame {i}: the datapaths disagree\n\
                 (port, bytes) in userspace: {:?}, in the kernel: {:?}\npipeline:\n{}",
                sizes(u),
                sizes(n),
                ofctl::dump_flows(&of())
            );
        }
        delivered += forwarded(&user);
        dropped += frames.len() - forwarded(&user);
        let s = k.ovs.stats;
        let case_drops = [
            s.action_drops,
            s.meter_drops,
            s.ct_drops,
            s.unsupported_action_drops,
            s.recirc_limit_drops,
            s.tx_no_port,
        ];
        for (d, c) in drops.iter_mut().zip(case_drops) {
            *d += c;
        }
    }
    // The draws reach both outcomes, and every way the kernel drops.
    assert!(delivered > 100 && dropped > 100, "{delivered} / {dropped}");
    assert!(drops.iter().all(|&d| d > 0), "{drops:?}");
}
