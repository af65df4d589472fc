//! Revalidator lifecycle end-to-end: stats pushback exactness, idle and
//! hard expiry, the dynamic flow limit under a Tuple-Space-Explosion
//! style workload (Csikor et al., "Tuple Space Explosion: A
//! Denial-of-Service Attack Against a Software Packet Classifier"), the
//! restore ledger across a `flow_mod`, re-translation only after the
//! tables change, one flow per masked key in both datapaths, and the
//! kernel-datapath sweep.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::appctl;
use ovs_core::dpif::{DpifNetdev, DpifNetlink, PortType};
use ovs_core::ofproto::{OfAction, OfRule, Ofproto};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::ethernet::EtherType;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};

const SEC: u64 = 1_000_000_000;

fn setup() -> (Kernel, DpifNetdev, Vec<u32>) {
    let mut k = Kernel::new(8);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
    for i in 0..3u8 {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        dp.add_port(
            &format!("eth{i}"),
            PortType::Afxdp(AfxdpPort::open(&mut k, nic, 256, OptLevel::O5).unwrap()),
        );
        nics.push(nic);
    }
    (k, dp, nics)
}

/// A kernel whose OVS bridge holds `n` NICs, NIC `i` on vport `i`.
fn kernel_bridge(n: u8) -> (Kernel, Vec<u32>) {
    let mut k = Kernel::new(4);
    let mut nics = Vec::new();
    for i in 0..n {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let port = k
            .ovs
            .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: nic });
        k.dev_mut(nic).attachment = ovs_kernel::Attachment::OvsBridge { port };
        nics.push(nic);
    }
    (k, nics)
}

fn fwd_rule(in_port: u32, out_port: u32, priority: i32) -> OfRule {
    let mut key = FlowKey::default();
    key.set_in_port(in_port);
    OfRule {
        table: 0,
        priority,
        key,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Output(out_port)],
        cookie: 0,
    }
}

/// A rule matching one UDP source port — the shape that pulls `tp_src`
/// into the megaflow mask and makes every distinct source port its own
/// datapath flow.
fn tp_src_rule(tp: u16, out_port: u32) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type(EtherType::Ipv4);
    key.set_nw_proto(17);
    key.set_tp_src(tp);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_SRC]),
        actions: vec![OfAction::Output(out_port)],
        cookie: 0,
    }
}

fn frame(tp_src: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        tp_src,
        6000,
        96,
    )
}

fn send(k: &mut Kernel, dp: &mut DpifNetdev, nic: u32, tp_src: u16) {
    k.receive(nic, 0, frame(tp_src));
    dp.pmd_poll(k, 0, 0, 1);
}

/// Acceptance: `ovs-ofctl dump-flows` n_packets must match the
/// datapath's cache-accumulated totals exactly — the upcalled packet is
/// credited at translation, every cache hit is pushed back by the sweep.
#[test]
fn stats_pushback_matches_cache_hits_exactly() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    for _ in 0..10 {
        send(&mut k, &mut dp, nics[0], 5000);
    }
    assert_eq!(k.device(nics[1]).tx_wire.len(), 10);

    // Before the sweep only the upcalled packet has been credited.
    let rule = dp.ofproto.iter_rules().next().unwrap().clone();
    assert_eq!(rule.n_packets.get(), 1, "upcall credited at translation");

    // The tables have not changed since the flow was translated, so the
    // sweep keeps it without re-translating.
    let translations = dp.ofproto.stats.translations;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.dumped, 1);
    assert_eq!(s.deleted(), 0, "hot flow survives the sweep");
    assert_eq!(dp.ofproto.stats.translations, translations);

    let total = dp.stats.upcalls + dp.stats.emc_hits + dp.stats.megaflow_hits;
    assert_eq!(total, 10, "every packet consulted exactly one tier");
    assert_eq!(rule.n_packets.get(), total, "pushback is exact");
    assert_eq!(rule.n_bytes.get(), 10 * frame(5000).len() as u64);

    // And the OpenFlow dump renders the pushed counters.
    let dump = ovs_core::ofctl::dump_flows(&dp.ofproto);
    assert!(dump.contains("n_packets=10"), "{dump}");
    assert!(
        dump.contains(&format!("n_bytes={}", 10 * frame(5000).len())),
        "{dump}"
    );

    // A second sweep pushes nothing new (pushback is incremental).
    dp.revalidate(&mut k, 0);
    assert_eq!(rule.n_packets.get(), 10, "no double counting");
    assert_eq!(dp.ofproto.stats.translations, translations);
}

/// A `flow_mod` that leaves a flow's translation alone re-translates it
/// once and marks it checked at the new table version, so the next sweep
/// translates nothing.
#[test]
fn flow_mod_retranslates_each_flow_once() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    send(&mut k, &mut dp, nics[0], 5000);

    let translations = dp.ofproto.stats.translations;
    dp.flow_mod(fwd_rule(2, 0, 10));
    assert_eq!(dp.ofproto.stats.translations, translations + 1);
    assert_eq!(dp.megaflow_count(), 1, "unaffected flow kept");

    let s = dp.revalidate(&mut k, 0);
    assert_eq!((s.dumped, s.deleted()), (1, 0));
    assert_eq!(dp.ofproto.stats.translations, translations + 1);
}

/// A table swapped in whole (as a fail-mode fallback is) has a version no
/// ukey was checked at, so the next sweep re-translates against it and
/// deletes the flow it now forwards elsewhere — with no `flow_mod` pass
/// in between. Both tables get the same number of `add_rule` calls, so
/// versions counted per table would collide.
#[test]
fn table_swapped_in_whole_is_revalidated_by_the_next_sweep() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    send(&mut k, &mut dp, nics[0], 5000);
    assert_eq!(dp.megaflow_count(), 1);

    let mut other = Ofproto::new();
    other.add_rule(fwd_rule(0, 2, 10));
    std::mem::swap(&mut dp.ofproto, &mut other);

    let s = dp.revalidate(&mut k, 0);
    assert_eq!((s.deleted_changed, s.deleted()), (1, 1));
    assert_eq!(dp.megaflow_count(), 0);

    // The next packet upcalls into the swapped-in table.
    send(&mut k, &mut dp, nics[0], 5000);
    assert_eq!(k.device(nics[1]).tx_wire.len(), 1);
    assert_eq!(k.device(nics[2]).tx_wire.len(), 1);
}

/// An upcall whose megaflow has the masked key of an installed one under
/// a different mask replaces it: one flow per masked key. The old flow's
/// hits reach its rules exactly once, and the old entry is dead.
#[test]
fn narrower_mask_over_the_same_masked_key_replaces_the_flow() {
    let (mut k, mut dp, nics) = setup();
    dp.set_emc_insert_inv_prob(1);
    dp.add_flows(
        "table=0, priority=20, udp, tp_dst=80, actions=output:2\n\
         table=0, priority=10, udp, actions=output:1",
    )
    .unwrap();
    let rules: Vec<_> = dp.ofproto.iter_rules().cloned().collect();
    let rule = |priority| rules.iter().find(|r| r.rule.priority == priority).unwrap();
    let (port_80, plain) = (rule(20), rule(10));
    let to_port = |tp_dst| {
        let f = builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            4000,
            tp_dst,
            96,
        );
        (f.len() as u64, f)
    };

    // A frame to port 0 examines the port-80 rule, so its megaflow masks
    // tp_dst and its masked key has tp_dst 0. One upcall, two cache hits.
    let (len, to_0) = to_port(0);
    for _ in 0..3 {
        k.receive(nics[0], 0, to_0.clone());
        dp.pmd_poll(&mut k, 0, 0, 1);
    }
    assert_eq!(k.device(nics[1]).tx_wire.len(), 3);
    assert_eq!(dp.megaflow_count(), 1);
    assert_eq!(plain.n_packets.get(), 1, "only the upcall so far");

    // The swapped-in table has no port-80 rule. A frame to port 5000
    // misses the old flow and translates to the narrower mask, whose
    // masked key is the old one.
    let mut other = Ofproto::new();
    other.add_rule(OfRule {
        table: 0,
        priority: 10,
        key: plain.rule.key,
        mask: plain.rule.mask,
        actions: vec![OfAction::Output(2)],
        cookie: 0,
    });
    std::mem::swap(&mut dp.ofproto, &mut other);
    let deleted = dp.stats.flows_deleted;
    k.receive(nics[0], 0, to_port(5000).1);
    dp.pmd_poll(&mut k, 0, 0, 1);
    assert_eq!(k.device(nics[2]).tx_wire.len(), 1);
    assert_eq!(dp.megaflow_count(), 1, "replaced, not added");
    assert_eq!(dp.stats.flows_deleted, deleted + 1);

    // The old flow's two hits reached the first table's rules once.
    assert_eq!(plain.n_packets.get(), 3);
    assert_eq!(plain.n_bytes.get(), 3 * len);
    assert_eq!(port_80.n_packets.get(), 0);

    // The old entry is dead: the port-0 frame's EMC slot misses, and the
    // new flow sends it to port 2.
    k.receive(nics[0], 0, to_0);
    dp.pmd_poll(&mut k, 0, 0, 1);
    assert_eq!(k.device(nics[1]).tx_wire.len(), 3, "dead entry served");
    assert_eq!(k.device(nics[2]).tx_wire.len(), 2);

    // A sweep pushes nothing more to the first table.
    let s = dp.revalidate(&mut k, 0);
    assert_eq!((s.dumped, s.deleted()), (1, 0));
    assert_eq!(plain.n_packets.get(), 3, "pushed exactly once");
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
}

#[test]
fn idle_flows_expire_and_keep_their_stats() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    for _ in 0..10 {
        send(&mut k, &mut dp, nics[0], 5000);
    }
    assert_eq!(dp.megaflow_count(), 1);

    // Within the 10 s idle timeout the flow survives...
    k.sim.clock.advance(9 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted(), 0);
    assert_eq!(dp.megaflow_count(), 1);

    // ...but once idle past it, the sweep reaps the flow.
    k.sim.clock.advance(2 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_idle, 1);
    assert_eq!(dp.megaflow_count(), 0, "ukey reaped with the flow");

    // The flow's packets outlive it on the OpenFlow rule.
    let rule = dp.ofproto.iter_rules().next().unwrap();
    assert_eq!(rule.n_packets.get(), 10, "stats survive expiry");

    // The next packet is a fresh miss and reinstalls.
    let upcalls = dp.stats.upcalls;
    send(&mut k, &mut dp, nics[0], 5000);
    assert_eq!(dp.stats.upcalls, upcalls + 1);
    assert_eq!(dp.megaflow_count(), 1);
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
}

#[test]
fn hard_timeout_reaps_hot_flows() {
    let (mut k, mut dp, nics) = setup();
    dp.revalidator.cfg.hard_timeout_ms = 1_000;
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    send(&mut k, &mut dp, nics[0], 5000);

    // Keep the flow hot: never idle for more than 600 ms.
    k.sim.clock.advance(600_000_000);
    send(&mut k, &mut dp, nics[0], 5000);
    k.sim.clock.advance(600_000_000);

    // Idle 0.6 s << 10 s, but age 1.2 s > the 1 s hard timeout.
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_hard, 1, "hard timeout ignores recent use");
    assert_eq!(s.deleted_idle, 0);
    assert_eq!(dp.megaflow_count(), 0);
}

/// A TSE-style adversarial workload: every packet carries a fresh
/// `tp_src`, so every packet wants its own megaflow. The dynamic flow
/// limit bounds the table; packets over the limit are still forwarded
/// (slow-path only), and the table drains back to zero once the attack
/// stops.
#[test]
fn flow_limit_bounds_tse_explosion() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..600u16 {
        dp.ofproto.add_rule(tp_src_rule(1000 + tp, 1));
    }
    dp.revalidator.cfg.flow_limit_max = 128;
    dp.revalidator.flow_limit = 128;

    for tp in 0..600u16 {
        send(&mut k, &mut dp, nics[0], 1000 + tp);
        assert!(
            dp.megaflow_count() <= 128,
            "table exploded past the flow limit at packet {tp}"
        );
    }
    assert_eq!(dp.megaflow_count(), 128, "table pinned at the limit");
    assert_eq!(
        dp.stats.flow_limit_hits,
        600 - 128,
        "every over-limit miss counted"
    );
    assert_eq!(
        k.device(nics[1]).tx_wire.len(),
        600,
        "over-limit packets are forwarded via the slow path, not dropped"
    );
    assert!(dp.stats.coherent(), "{:?}", dp.stats);

    // Attack over: everything idles out and the table recovers.
    k.sim.clock.advance(11 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_idle, 128);
    assert_eq!(dp.megaflow_count(), 0);

    // Fresh traffic installs again.
    let hits = dp.stats.flow_limit_hits;
    send(&mut k, &mut dp, nics[0], 1000);
    assert_eq!(dp.megaflow_count(), 1);
    assert_eq!(dp.stats.flow_limit_hits, hits, "no limit hit after drain");
}

#[test]
fn shrinking_flow_limit_evicts_least_recently_used() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..20u16 {
        dp.ofproto.add_rule(tp_src_rule(2000 + tp, 1));
    }
    // Distinct `used` timestamps: one flow per millisecond.
    for tp in 0..20u16 {
        send(&mut k, &mut dp, nics[0], 2000 + tp);
        k.sim.clock.advance(1_000_000);
    }
    assert_eq!(dp.megaflow_count(), 20);

    // Shrink the limit to 12 (still above 20/2, so no kill-all): the
    // sweep must evict exactly the 8 least-recently-used flows.
    dp.revalidator.flow_limit = 12;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.evicted, 8);
    assert_eq!(s.deleted_idle, 0, "overload idle (100ms) not yet reached");
    assert_eq!(dp.megaflow_count(), 12);

    // The oldest flow was evicted (next packet upcalls); the newest
    // survived (next packet is a cache hit).
    let upcalls = dp.stats.upcalls;
    send(&mut k, &mut dp, nics[0], 2019);
    assert_eq!(dp.stats.upcalls, upcalls, "most-recent flow survived");
}

#[test]
fn overload_past_twice_the_limit_kills_all_flows() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..20u16 {
        dp.ofproto.add_rule(tp_src_rule(3000 + tp, 1));
        send(&mut k, &mut dp, nics[0], 3000 + tp);
    }
    assert_eq!(dp.megaflow_count(), 20);

    // 20 flows > 2 x 8: the datapath is so far over the limit that the
    // sweep deletes everything ("kill them all" in udpif_revalidator).
    dp.revalidator.flow_limit = 8;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.evicted, 20);
    assert_eq!(dp.megaflow_count(), 0);
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
}

/// `adopted + orphaned + pending == restored` holds through a `flow_mod`
/// that lands while the restore gate is up: its pass leaves restored
/// flows to reconciliation instead of deleting them as `changed`.
#[test]
fn restore_ledger_holds_across_a_flow_mod_under_the_gate() {
    let (mut k, mut dp, nics) = setup();
    for tp in [4000, 4001] {
        dp.ofproto.add_rule(tp_src_rule(tp, 1));
        send(&mut k, &mut dp, nics[0], tp);
    }
    assert_eq!(dp.megaflow_count(), 2);
    let snap = dp.snapshot(k.sim.clock.now_ns());

    // The restarted daemon: same ports, an empty table, and the snapshot
    // restored behind the flow-restore-wait gate.
    let (mut k, mut dp, _) = setup();
    dp.restore_from(&snap, k.sim.clock.now_ns(), SEC);
    let ledger = |dp: &DpifNetdev| {
        let pending = dp.restored_count() as u64;
        assert_eq!(
            dp.restore.restored_flows,
            dp.stats.restore_adopted + dp.stats.restore_orphaned + pending,
            "{}",
            dp.flow_restore_show()
        );
    };
    ledger(&dp);

    // The controller repopulates the table under the gate; in the new
    // table tp_src 4001 forwards to another port.
    dp.add_flows(
        "table=0, priority=10, udp, tp_src=4000, actions=output:1\n\
         table=0, priority=10, udp, tp_src=4001, actions=output:2",
    )
    .unwrap();
    ledger(&dp);
    dp.flow_restore_complete(k.sim.clock.now_ns());
    ledger(&dp);
    dp.revalidate(&mut k, 0);
    ledger(&dp);

    let show = appctl::dispatch(&mut dp, &mut k, "flow-restore/show", &[]).unwrap();
    assert!(show.contains("1 adopted, 1 orphaned, 0 pending"), "{show}");
    let show = appctl::dispatch(&mut dp, &mut k, "upcall/show", &[]).unwrap();
    assert!(show.contains(" 0 changed"), "{show}");

    // Adoption checked the flow at the current table version: the next
    // sweep keeps it without re-translating.
    let translations = dp.ofproto.stats.translations;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!((s.dumped, s.deleted()), (1, 0));
    assert_eq!(dp.ofproto.stats.translations, translations);
}

#[test]
fn kernel_dpif_sweep_expires_flows_and_pushes_stats() {
    let (mut k, nics) = kernel_bridge(2);
    let (eth0, eth1, p0, p1) = (nics[0], nics[1], 0, 1);

    let mut dpif = DpifNetlink::new([0, 0, 0, 0]);
    dpif.ofproto.add_rule(fwd_rule(p0, p1, 10));

    // One miss plus two kernel fast-path hits.
    k.receive(eth0, 0, frame(5000));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    k.receive(eth0, 0, frame(5000));
    k.receive(eth0, 0, frame(5000));
    assert!(k.upcalls.is_empty());
    assert_eq!(k.device(eth1).tx_wire.len(), 3);
    assert_eq!(k.ovs.flow_count(), 1);
    assert_eq!(dpif.tracked_flows(), 1);

    // The sweep pushes the two fast-path packets up to the rule.
    let rule = dpif.ofproto.iter_rules().next().unwrap().clone();
    assert_eq!(rule.n_packets.get(), 1, "only the upcall so far");
    let translations = dpif.ofproto.stats.translations;
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!(s.dumped, 1);
    assert_eq!(s.deleted(), 0);
    assert_eq!(rule.n_packets.get(), 3, "kernel hit stats pushed back");
    assert_eq!(
        dpif.ofproto.stats.translations, translations,
        "unchanged tables: nothing re-translated"
    );

    let show = dpif.upcall_show(&k);
    assert!(show.contains("system@ovs-system"), "{show}");
    assert!(show.contains("(current 1)"), "{show}");

    // Idle out: the sweep deletes the kernel flow and releases its mask.
    k.sim.clock.advance(11 * SEC);
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!(s.deleted_idle, 1);
    assert_eq!(k.ovs.flow_count(), 0);
    assert_eq!(k.ovs.mask_count(), 0, "mask refcount released");
    assert_eq!(dpif.tracked_flows(), 0);
    assert_eq!(rule.n_packets.get(), 3, "stats survive the flow");

    // Fresh traffic misses and reinstalls.
    k.receive(eth0, 0, frame(5000));
    assert_eq!(k.upcalls.len(), 1);
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    assert_eq!(k.ovs.flow_count(), 1);
    assert_eq!(k.device(eth1).tx_wire.len(), 4);

    // A rule change: per-source-port rules now outrank the in_port rule,
    // so the installed flow re-translates under a wider mask.
    for tp in 7000..7004u16 {
        dpif.ofproto.add_rule(OfRule {
            priority: 20,
            ..tp_src_rule(tp, p1)
        });
    }
    let translations = dpif.ofproto.stats.translations;
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!(
        dpif.ofproto.stats.translations,
        translations + 1,
        "the one installed flow re-translated"
    );
    assert_eq!(s.deleted_changed, 1);
    assert_eq!(k.ovs.flow_count(), 0);
    assert_eq!(dpif.tracked_flows(), 0);

    // Four per-port flows, one per millisecond, against a limit of two
    // (not past twice it, so no kill-all): the two least recently used go.
    for tp in 7000..7004u16 {
        k.receive(eth0, 0, frame(tp));
        assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
        k.sim.clock.advance(1_000_000);
    }
    assert_eq!(k.ovs.flow_count(), 4);
    dpif.revalidator.flow_limit = 2;
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.evicted, s.deleted()), (2, 2));
    assert_eq!(k.ovs.flow_count(), 2);
    assert_eq!(dpif.tracked_flows(), 2);
    // The newest flow survived; the oldest upcalls again.
    k.receive(eth0, 0, frame(7003));
    assert!(k.upcalls.is_empty(), "most-recent flow survived");
    k.receive(eth0, 0, frame(7000));
    assert_eq!(k.upcalls.len(), 1, "least-recent flow was evicted");
}

/// The kernel twin of
/// `narrower_mask_over_the_same_masked_key_replaces_the_flow`. The kernel
/// keeps flows under different masks side by side, so the dpif must
/// remove the flow it replaces: left in the kernel untracked, it would
/// never be swept or evicted, and its hits would never reach the rules.
#[test]
fn narrower_mask_over_the_same_masked_key_replaces_the_kernel_flow() {
    let (mut k, nics) = kernel_bridge(3);
    let mut dpif = DpifNetlink::new([0, 0, 0, 0]);
    let rules = ovs_core::ofctl::parse_flows(
        "table=0, priority=20, udp, tp_dst=80, actions=output:2\n\
         table=0, priority=10, udp, actions=output:1",
    )
    .unwrap();
    for r in rules {
        dpif.ofproto.add_rule(r);
    }
    let plain = dpif
        .ofproto
        .iter_rules()
        .find(|r| r.rule.priority == 10)
        .unwrap()
        .clone();
    let to_port = |tp_dst| {
        builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            4000,
            tp_dst,
            96,
        )
    };
    let len = to_port(0).len() as u64;

    // A frame to port 0 examines the port-80 rule, so its flow masks
    // tp_dst. One upcall, two kernel hits.
    k.receive(nics[0], 0, to_port(0));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    k.receive(nics[0], 0, to_port(0));
    k.receive(nics[0], 0, to_port(0));
    assert!(k.upcalls.is_empty());
    assert_eq!(k.device(nics[1]).tx_wire.len(), 3);
    assert_eq!(plain.n_packets.get(), 1, "only the upcall so far");

    // The swapped-in table has no port-80 rule. A frame to port 5000
    // misses the old flow and translates to the narrower mask, whose
    // masked key is the old one.
    let mut other = Ofproto::new();
    other.add_rule(OfRule {
        table: 0,
        priority: 10,
        key: plain.rule.key,
        mask: plain.rule.mask,
        actions: vec![OfAction::Output(2)],
        cookie: 0,
    });
    std::mem::swap(&mut dpif.ofproto, &mut other);
    k.receive(nics[0], 0, to_port(5000));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    assert_eq!(k.device(nics[2]).tx_wire.len(), 1);
    assert_eq!(k.ovs.flow_count(), 1, "replaced, not added");
    assert_eq!(dpif.tracked_flows(), 1);
    assert_eq!(dpif.flows_deleted, 1);

    // The old flow's two kernel hits reached the first table's rule once.
    assert_eq!(plain.n_packets.get(), 3);
    assert_eq!(plain.n_bytes.get(), 3 * len);

    // The port-0 frame now hits the new flow in the kernel, to port 2.
    k.receive(nics[0], 0, to_port(0));
    assert!(k.upcalls.is_empty());
    assert_eq!(k.device(nics[1]).tx_wire.len(), 3, "replaced flow served");
    assert_eq!(k.device(nics[2]).tx_wire.len(), 2);

    // Idle out: the sweep deletes the one flow and leaves none behind.
    k.sim.clock.advance(11 * SEC);
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.dumped, s.deleted_idle), (1, 1));
    assert_eq!(k.ovs.flow_count(), 0, "no untracked flow left");
    assert_eq!(dpif.tracked_flows(), 0);
    assert_eq!(plain.n_packets.get(), 3, "pushed exactly once");
}
