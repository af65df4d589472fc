//! Golden revalidator test: the deterministic two-host NSX scenario from
//! the observability goldens, taken through a full megaflow lifecycle —
//! traffic warms the caches, a sweep pushes stats and keeps the hot
//! flows, the clock idles past the timeout, and a second sweep drains
//! the table. `upcall/show`, `revalidator/wait`, and the post-churn
//! `dpctl/dump-flows` text are pinned exactly.

use ovs_afxdp::OptLevel;
use ovs_afxdp_repro::nsx::ruleset;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, HostConfig, HostPair, VmAttachment};
use ovs_afxdp_repro::ovs::appctl;

const GOLDEN_SHOW_WARM: &str = "\
netdev@ovs-netdev:
  flows         : (current 5) (max 0) (limit 200000)
  dump duration : 0ms
  sweeps        : 0 (0 flows dumped)
  deleted       : 0 idle, 0 hard, 0 changed, 0 evicted
  stats pushed  : 0 packets, 0 bytes
  limit hits    : 0
  queue full    : 0
  restore       : 0 pending, 0 adopted, 0 orphaned, 0 gated
";
const GOLDEN_WAIT_1: &str = "revalidation complete: 5 flows dumped, \
0 deleted (0 idle, 0 hard, 0 changed, 0 evicted), \
flow limit 200000, dump duration 1ms\n";
const GOLDEN_DUMP: &str = "\
in_port(1),recirc(0),eth_type(0x0000),tun_id(5000) packets:14 bytes:2800 used:0.000s mask_bits:192 actions:[Ct { zone: 100, commit: false, nat: None }, Recirc(3)]
in_port(1),recirc(3),eth_type(0x0000),ct_state(0x04) packets:14 bytes:2800 used:0.000s mask_bits:113 actions:[Output(2)]
in_port(2),recirc(0),eth_type(0x0000) packets:15 bytes:3000 used:0.000s mask_bits:128 actions:[Ct { zone: 1, commit: false, nat: None }, Recirc(1)]
in_port(2),recirc(1),eth_type(0x0800),ipv4(src=10.101.0.2,dst=10.102.0.2),ct_state(0x02) packets:15 bytes:3000 used:0.000s mask_bits:234 actions:[Ct { zone: 100, commit: true, nat: None }, Recirc(2)]
in_port(2),recirc(2),eth_type(0x0000) packets:15 bytes:3000 used:0.000s mask_bits:112 actions:[SetTunnel { id: 5000, dst: [172, 16, 0, 2] }, Output(1)]
";
const GOLDEN_WAIT_2: &str = "revalidation complete: 5 flows dumped, \
5 deleted (5 idle, 0 hard, 0 changed, 0 evicted), \
flow limit 200000, dump duration 1ms\n";
const GOLDEN_SHOW_DRAINED: &str = "\
netdev@ovs-netdev:
  flows         : (current 0) (max 5) (limit 200000)
  dump duration : 1ms
  sweeps        : 2 (10 flows dumped)
  deleted       : 5 idle, 0 hard, 0 changed, 0 evicted
  stats pushed  : 73 packets, 14600 bytes
  limit hits    : 0
  queue full    : 0
  restore       : 0 pending, 0 adopted, 0 orphaned, 0 gated
";

#[test]
fn golden_revalidator_two_host_nsx() {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut pair = HostPair::new(|id| HostConfig::nsx_small(id, dpk, VmAttachment::VhostUser));
    let g = pair.h1.guest_of_vif[0];
    pair.h1.kernel.guests[g]
        .tx_ring
        .push_back(ruleset::vm_udp_frame(1, 2));
    pair.settle();
    let h1 = &mut pair.h1;

    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "upcall/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_SHOW_WARM,
        "upcall/show golden drifted:\n{show}"
    );

    // First sweep: everything is hot, nothing dies, stats get pushed.
    let dp1 = h1.dp.as_mut().unwrap();
    let wait = appctl::dispatch(dp1, &mut h1.kernel, "revalidator/wait", &[]).unwrap();
    assert_eq!(
        wait, GOLDEN_WAIT_1,
        "revalidator/wait golden drifted:\n{wait}"
    );

    // The post-churn datapath flow dump: per-flow packets, bytes, and
    // ages, all virtual-clock deterministic.
    let dp1 = h1.dp.as_mut().unwrap();
    let dump = appctl::dispatch(dp1, &mut h1.kernel, "dpctl/dump-flows", &[]).unwrap();
    assert_eq!(
        dump, GOLDEN_DUMP,
        "dpctl/dump-flows golden drifted:\n{dump}"
    );

    // Idle out and sweep again: the table drains.
    h1.kernel.sim.clock.advance(15_000_000_000);
    let dp1 = h1.dp.as_mut().unwrap();
    let wait = appctl::dispatch(dp1, &mut h1.kernel, "revalidator/wait", &[]).unwrap();
    assert_eq!(
        wait, GOLDEN_WAIT_2,
        "revalidator/wait golden drifted:\n{wait}"
    );

    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "upcall/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_SHOW_DRAINED,
        "upcall/show golden drifted:\n{show}"
    );
    assert_eq!(h1.dp.as_ref().unwrap().megaflow_count(), 0);

    // The overlay still works after the drain: a fresh frame crosses the
    // re-translated slow path and reinstalls its megaflows.
    let upcalls = h1.dp.as_ref().unwrap().stats.upcalls;
    h1.kernel.guests[g]
        .tx_ring
        .push_back(ruleset::vm_udp_frame(1, 2));
    pair.settle();
    let dp1 = pair.h1.dp.as_ref().unwrap();
    assert!(dp1.stats.upcalls > upcalls, "drained flows re-upcall");
    assert!(dp1.megaflow_count() > 0, "megaflows reinstalled");
    assert!(dp1.stats.coherent(), "{:?}", dp1.stats);
}
