//! DNAT through the full userspace pipeline, and datapath introspection.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_ct::NatSpec;
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, ipv4, udp, MacAddr};

const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 9]);
const SWITCH_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const VIP: [u8; 4] = [10, 0, 0, 100];
const BACKEND: [u8; 4] = [192, 168, 1, 10];

fn setup() -> (Kernel, DpifNetdev, u32, u32) {
    let mut k = Kernel::new(8);
    let eth0 = k.add_device(NetDevice::new(
        "eth0",
        SWITCH_MAC,
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let eth1 = k.add_device(NetDevice::new(
        "eth1",
        MacAddr::new(2, 0, 0, 0, 0, 2),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let mut dp = DpifNetdev::new();
    let p0 = dp.add_port(
        "eth0",
        PortType::Afxdp(AfxdpPort::open(&mut k, eth0, 256, OptLevel::O5).unwrap()),
    );
    let p1 = dp.add_port(
        "eth1",
        PortType::Afxdp(AfxdpPort::open(&mut k, eth1, 256, OptLevel::O5).unwrap()),
    );

    // Table 0, from eth0: traffic to the VIP goes through ct with DNAT to
    // the backend, then resumes at table 1 which outputs to eth1.
    let mut key = FlowKey::default();
    key.set_in_port(p0);
    key.set_eth_type(ovs_packet::EtherType::Ipv4);
    key.set_nw_dst_v4(VIP);
    let mut mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::ETH_TYPE]);
    mask.set_nw_dst_v4_prefix(32);
    dp.ofproto.add_rule(OfRule {
        table: 0,
        priority: 100,
        key,
        mask,
        actions: vec![OfAction::Ct {
            zone: 1,
            commit: true,
            resume_table: 1,
            nat: Some(NatSpec::Dnat {
                ip: BACKEND,
                port: Some(8080),
            }),
        }],
        cookie: 1,
    });
    // Reply direction: from eth1, ct (un-NAT) then back out eth0.
    let mut rkey = FlowKey::default();
    rkey.set_in_port(p1);
    dp.ofproto.add_rule(OfRule {
        table: 0,
        priority: 50,
        key: rkey,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Ct {
            zone: 1,
            commit: false,
            resume_table: 2,
            nat: None,
        }],
        cookie: 2,
    });
    dp.ofproto.add_rule(OfRule {
        table: 1,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Output(p1)],
        cookie: 3,
    });
    dp.ofproto.add_rule(OfRule {
        table: 2,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Output(p0)],
        cookie: 4,
    });
    (k, dp, eth0, eth1)
}

#[test]
fn dnat_rewrites_forward_and_reply() {
    let (mut k, mut dp, eth0, eth1) = setup();

    // Client -> VIP.
    let req = builder::udp_ipv4(CLIENT_MAC, SWITCH_MAC, [10, 0, 0, 9], VIP, 5555, 80, b"GET");
    k.receive(eth0, 0, req);
    dp.pmd_poll(&mut k, 0, 0, 1);
    let fwd = k.dev_mut(eth1).tx_wire.pop_front().expect("forwarded");
    let ip = ipv4::Ipv4Packet::new_checked(&fwd[14..]).unwrap();
    assert_eq!(ip.dst(), BACKEND, "destination rewritten to the backend");
    assert!(ip.verify_checksum(), "IP checksum repaired");
    let u = udp::UdpDatagram::new_checked(ip.payload()).unwrap();
    assert_eq!(u.dst_port(), 8080, "port rewritten");
    assert!(
        u.verify_checksum_ipv4(ip.src(), ip.dst()),
        "L4 checksum repaired"
    );

    // Backend replies (to the client, from its own address).
    let reply = builder::udp_ipv4(
        MacAddr::new(2, 0, 0, 0, 0, 2),
        CLIENT_MAC,
        BACKEND,
        [10, 0, 0, 9],
        8080,
        5555,
        b"200",
    );
    k.receive(eth1, 0, reply);
    dp.pmd_poll(&mut k, 1, 0, 1);
    let back = k
        .dev_mut(eth0)
        .tx_wire
        .pop_front()
        .expect("reply forwarded");
    let ip = ipv4::Ipv4Packet::new_checked(&back[14..]).unwrap();
    assert_eq!(ip.src(), VIP, "reply source un-NATed back to the VIP");
    let u = udp::UdpDatagram::new_checked(ip.payload()).unwrap();
    assert_eq!(u.src_port(), 80, "reply port restored");
    assert!(u.verify_checksum_ipv4(ip.src(), ip.dst()));
}

#[test]
fn dump_flows_shows_the_installed_megaflows() {
    let (mut k, mut dp, eth0, _eth1) = setup();
    let req = builder::udp_ipv4(CLIENT_MAC, SWITCH_MAC, [10, 0, 0, 9], VIP, 5555, 80, b"x");
    k.receive(eth0, 0, req);
    dp.pmd_poll(&mut k, 0, 0, 1);

    let dump = dp.dump_flows(k.sim.clock.now_ns());
    assert!(dump.contains("in_port(0)"), "{dump}");
    assert!(dump.contains("Ct"), "ct action visible: {dump}");
    assert!(
        dump.lines().count() >= 2,
        "two pipeline passes -> two megaflows:\n{dump}"
    );
    // Hit counters move on subsequent traffic.
    let req2 = builder::udp_ipv4(CLIENT_MAC, SWITCH_MAC, [10, 0, 0, 9], VIP, 5555, 80, b"y");
    k.receive(eth0, 0, req2);
    dp.pmd_poll(&mut k, 0, 0, 1);
    let dump2 = dp.dump_flows(k.sim.clock.now_ns());
    assert!(
        dump2.contains("packets:1") || dump2.contains("packets:2"),
        "{dump2}"
    );
}

#[test]
fn conntrack_state_bits_flow_into_megaflow_keys() {
    let (mut k, mut dp, eth0, eth1) = setup();
    let req = builder::udp_ipv4(CLIENT_MAC, SWITCH_MAC, [10, 0, 0, 9], VIP, 5555, 80, b"x");
    k.receive(eth0, 0, req);
    dp.pmd_poll(&mut k, 0, 0, 1);
    // Reply establishes.
    let reply = builder::udp_ipv4(
        MacAddr::new(2, 0, 0, 0, 0, 2),
        CLIENT_MAC,
        BACKEND,
        [10, 0, 0, 9],
        8080,
        5555,
        b"y",
    );
    k.receive(eth1, 0, reply);
    dp.pmd_poll(&mut k, 1, 0, 1);
    // The connection is established in zone 1 and survived both passes.
    assert_eq!(dp.ct.len(), 1);
    // The recirculated pipeline passes produced their own megaflows,
    // keyed by recirculation id.
    let dump = dp.dump_flows(k.sim.clock.now_ns());
    assert!(
        dump.contains("recirc(1)"),
        "forward resume pass cached:\n{dump}"
    );
    assert!(
        dump.contains("recirc(2)"),
        "reply resume pass cached:\n{dump}"
    );
    // And the NAT action is visible to the operator.
    assert!(dump.contains("Dnat"), "{dump}");
}
