//! Parity between the scalar and batched receive paths: `process_burst`
//! must make bit-for-bit the same forwarding decisions — and count the
//! same datapath statistics — as the packets run one at a time through
//! `process_packet`, for any traffic mix and any burst partitioning.
//! Batching may only change *when* work happens (amortized per-batch
//! costs), never *what* the datapath does.
//!
//! Also pins the SMC lifecycle guarantee the revalidator relies on: once
//! a sweep invalidates a megaflow, the signature match cache must never
//! serve it again.
//!
//! And a conntrack pipeline with runs of one flow: a run reuses its EMC
//! hit and shares one conntrack probe, which must count exactly what one
//! packet at a time counts.

use ovs_afxdp_repro::afxdp::{AfxdpPort, OptLevel};
use ovs_afxdp_repro::kernel::dev::{DeviceKind, NetDevice};
use ovs_afxdp_repro::kernel::Kernel;
use ovs_afxdp_repro::ovs::cache::{Emc, Smc};
use ovs_afxdp_repro::ovs::ct::CtStats;
use ovs_afxdp_repro::ovs::dpif::{DpifNetdev, DpifStats, PortType};
use ovs_afxdp_repro::ovs::ofproto::{OfAction, OfRule, Ofproto};
use ovs_afxdp_repro::packet::dp_packet::ct_state;
use ovs_afxdp_repro::packet::flow::{fields, FlowKey, FlowMask};
use ovs_afxdp_repro::packet::{builder, DpPacket, MacAddr};
use proptest::prelude::*;

const N_PORTS: u32 = 4;

/// The multi-table pipeline from the datapath-parity suite: traffic from
/// port 0 is classified by destination /16 (with an overlapping /17 at
/// higher priority), VLAN-tagged, and delivered to ports 1–3 or dropped.
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
    let dests: [([u8; 4], u8, i32, u32); 4] = [
        ([10, 1, 0, 0], 16, 10, 1),
        ([10, 2, 0, 0], 16, 10, 2),
        ([10, 2, 128, 0], 17, 20, 3),
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
    of
}

struct Rig {
    kernel: Kernel,
    dp: DpifNetdev,
    nics: Vec<u32>,
}

fn build_rig(smc: bool) -> Rig {
    build_rig_with(pipeline(), smc)
}

fn build_rig_with(of: Ofproto, smc: bool) -> Rig {
    let mut kernel = Kernel::new(8);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
    for p in 0..N_PORTS {
        let nic = kernel.add_device(NetDevice::new(
            &format!("eth{p}"),
            MacAddr::new(2, 0, 0, 0, 0, p as u8 + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let port = dp.add_port(
            &format!("eth{p}"),
            PortType::Afxdp(AfxdpPort::open(&mut kernel, nic, 512, OptLevel::O5).unwrap()),
        );
        assert_eq!(port, p);
        nics.push(nic);
    }
    dp.ofproto = of;
    dp.smc_enable = smc;
    // Deterministic EMC insertion so both paths populate the cache on
    // exactly the same packets.
    dp.set_emc_insert_inv_prob(1);
    Rig { kernel, dp, nics }
}

impl Rig {
    /// Drain every NIC's wire into per-port frame lists.
    fn drain(&mut self, out: &mut [Vec<Vec<u8>>]) {
        for (p, &nic) in self.nics.iter().enumerate() {
            while let Some(f) = self.kernel.dev_mut(nic).tx_wire.pop_front() {
                out[p].push(f);
            }
        }
    }
}

/// Run `frames` through a rig, partitioned into `bursts` (scalar when
/// `burst_of` yields 1s). Returns per-port delivered frames (sorted —
/// batching reorders across flows within a burst, never within one) and
/// the final datapath counters.
fn run(
    frames: &[Vec<u8>],
    bursts: &[usize],
    smc: bool,
    scalar: bool,
) -> (Vec<Vec<Vec<u8>>>, ovs_afxdp_repro::ovs::dpif::DpifStats) {
    let mut rig = build_rig(smc);
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); N_PORTS as usize];
    let mut it = frames.iter();
    'outer: for &n in bursts.iter().cycle() {
        let mut chunk = Vec::new();
        for _ in 0..n.max(1) {
            let Some(f) = it.next() else {
                break;
            };
            let mut p = DpPacket::from_data(f);
            p.in_port = 0;
            chunk.push(p);
        }
        if chunk.is_empty() {
            break 'outer;
        }
        if scalar {
            for p in chunk {
                rig.dp.process_packet(&mut rig.kernel, p, 0);
            }
        } else {
            rig.dp.process_burst(&mut rig.kernel, chunk, 0);
        }
        rig.drain(&mut out);
    }
    for v in &mut out {
        v.sort();
    }
    (out, rig.dp.stats)
}

fn frame(dst: [u8; 4], sport: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [172, 16, 9, 9],
        dst,
        sport,
        53,
        64,
    )
}

proptest! {
    /// Any frame mix, any burst partitioning: the batched pipeline (with
    /// and without the SMC tier) forwards the same bytes to the same
    /// ports as the scalar loop, and — SMC off, so the cache hierarchy
    /// is identical — counts exactly the same statistics.
    #[test]
    fn batched_pipeline_matches_scalar(
        picks in proptest::collection::vec((0u8..5, 0u8..=255, 1u8..=254, 0u16..8), 1..80),
        bursts in proptest::collection::vec(1usize..=32, 1..8),
    ) {
        let frames: Vec<Vec<u8>> = picks
            .iter()
            .map(|&(b, c, d, s)| frame([10, b, c, d], 1000 + s * 7))
            .collect();
        let ones = vec![1usize];

        let (fwd_scalar, stats_scalar) = run(&frames, &ones, false, true);
        let (fwd_batched, stats_batched) = run(&frames, &bursts, false, false);
        let (fwd_smc, stats_smc) = run(&frames, &bursts, true, false);

        prop_assert_eq!(&fwd_scalar, &fwd_batched, "forwarding diverged");
        prop_assert_eq!(stats_scalar, stats_batched, "stats diverged");
        prop_assert_eq!(&fwd_scalar, &fwd_smc, "SMC changed a forwarding decision");
        // The SMC shifts hits between cache tiers but never invents or
        // loses a packet.
        prop_assert_eq!(
            stats_smc.emc_hits + stats_smc.smc_hits + stats_smc.megaflow_hits
                + stats_smc.upcalls,
            stats_scalar.emc_hits + stats_scalar.megaflow_hits + stats_scalar.upcalls
        );
        prop_assert_eq!(stats_smc.tx_packets, stats_scalar.tx_packets);
        prop_assert_eq!(stats_smc.dropped, stats_scalar.dropped);
    }
}

/// A conntrack pipeline: pass 1 tracks in zone 5 and recirculates, pass
/// 2 commits a `+new` packet and recirculates again, and pass 3 routes
/// by destination /16 to ports 1–3. An established packet skips the
/// commit.
fn ct_pipeline() -> Ofproto {
    let mut of = Ofproto::new();
    let mut k = FlowKey::default();
    k.set_in_port(0);
    of.add_rule(OfRule {
        table: 0,
        priority: 10,
        key: k,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Ct {
            zone: 5,
            commit: false,
            resume_table: 1,
            nat: None,
        }],
        cookie: 1,
    });
    let mut new = FlowKey::default();
    new.set_ct_state(ct_state::TRACKED | ct_state::NEW);
    of.add_rule(OfRule {
        table: 1,
        priority: 10,
        key: new,
        mask: FlowMask::of_fields(&[&fields::CT_STATE]),
        actions: vec![OfAction::Ct {
            zone: 5,
            commit: true,
            resume_table: 2,
            nat: None,
        }],
        cookie: 2,
    });
    of.add_rule(OfRule {
        table: 1,
        priority: 5,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Goto(2)],
        cookie: 3,
    });
    for (b, port) in [(1u8, 1u32), (2, 2), (3, 3)] {
        let mut key = FlowKey::default();
        key.set_nw_dst_v4([10, b, 0, 0]);
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(16);
        of.add_rule(OfRule {
            table: 2,
            priority: 10,
            key,
            mask,
            actions: vec![OfAction::Output(port)],
            cookie: 4,
        });
    }
    of
}

/// Empty the EMC and keep the SMC, so each flow's next packet at each
/// pass misses the EMC and hits the SMC, which puts the flow back in the
/// EMC. Returns how many entries the EMC held.
fn empty_emc(dp: &mut DpifNetdev) -> usize {
    let (mut emc, mut smc) = (Emc::new(), Smc::new());
    dp.swap_caches(&mut emc, &mut smc);
    let held = emc.len();
    dp.swap_caches(&mut Emc::new(), &mut smc);
    held
}

/// What a conntrack-pipeline run ends with: per-port delivered frames
/// (sorted), the datapath and conntrack counters, and the connections
/// held.
type CtRun = (Vec<Vec<Vec<u8>>>, DpifStats, CtStats, usize);

/// The conntrack pipeline over `frames`, cut into `bursts` (one packet
/// per call when `scalar`), after every flow of `flows` was sent once,
/// one at a time, and the EMC emptied. `None` when two of the warm
/// flows share an EMC slot or an SMC way: which of them a slot holds
/// then depends on the order passes run in, which batching changes by
/// design.
fn run_ct(flows: &[Vec<u8>], frames: &[Vec<u8>], bursts: &[usize], scalar: bool) -> Option<CtRun> {
    let mut rig = build_rig_with(ct_pipeline(), true);
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); N_PORTS as usize];
    let packet = |f: &Vec<u8>| {
        let mut p = DpPacket::from_data(f);
        p.in_port = 0;
        p
    };
    for f in flows {
        rig.dp.process_packet(&mut rig.kernel, packet(f), 0);
    }
    // Each flow makes three EMC and SMC entries, one per pass.
    let entries = 3 * flows.len();
    if rig.dp.smc_count() != entries || empty_emc(&mut rig.dp) != entries {
        return None;
    }
    rig.drain(&mut out);
    let mut it = frames.iter();
    for &n in bursts.iter().cycle() {
        let chunk: Vec<DpPacket> = it.by_ref().take(n).map(packet).collect();
        if chunk.is_empty() {
            break;
        }
        if scalar {
            for p in chunk {
                rig.dp.process_packet(&mut rig.kernel, p, 0);
            }
        } else {
            rig.dp.process_burst(&mut rig.kernel, chunk, 0);
        }
        rig.drain(&mut out);
    }
    for v in &mut out {
        v.sort();
    }
    Some((out, rig.dp.stats, rig.dp.ct.stats, rig.dp.ct.len()))
}

proptest! {
    /// Frames in runs of 1–6 packets of one flow through the conntrack
    /// pipeline, SMC on and every miss inserted into the EMC: the
    /// batched pipeline, which reuses a run's EMC hit and tracks a run
    /// with one probe, forwards the same frames and counts the same
    /// datapath and conntrack statistics as one packet at a time. A
    /// reused EMC miss would send the packet after an SMC hit to the SMC
    /// again, where one at a time it hits the EMC.
    #[test]
    fn ct_pipeline_runs_match_one_packet_at_a_time(
        flows in proptest::collection::vec((1u8..4, 0u8..=255, 0u16..64), 2..12),
        runs in proptest::collection::vec((0usize..12, 1usize..=6), 1..24),
        bursts in proptest::collection::vec(1usize..=32, 1..6),
    ) {
        let flows: Vec<Vec<u8>> = flows
            .iter()
            .map(|&(b, c, s)| frame([10, b, c, 1], 2000 + s))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let frames: Vec<Vec<u8>> = runs
            .iter()
            .flat_map(|&(f, n)| std::iter::repeat_n(flows[f % flows.len()].clone(), n))
            .collect();
        let scalar = run_ct(&flows, &frames, &[1], true);
        let batched = run_ct(&flows, &frames, &bursts, false);
        prop_assume!(scalar.is_some());
        let (fwd_s, stats_s, ct_s, conns_s) = scalar.unwrap();
        let (fwd_b, stats_b, ct_b, conns_b) = batched.expect("same warm-up, same caches");
        prop_assert_eq!(&fwd_s, &fwd_b, "forwarding diverged");
        prop_assert_eq!(stats_s, stats_b, "dpif stats diverged");
        prop_assert_eq!(ct_s, ct_b, "ct stats diverged");
        prop_assert_eq!(conns_s, conns_b);
        // Every frame crossed the three passes and left on a port.
        let sent: usize = fwd_s.iter().map(Vec::len).sum();
        prop_assert_eq!(sent, flows.len() + frames.len());
        prop_assert!(stats_s.emc_hits > 0 && stats_s.smc_hits > 0);
    }
}

/// A sweep that invalidates a megaflow must take it out of the SMC's
/// reach at once: after the rule change + `revalidate_changed`, the old
/// entry is never served again — the next packet upcalls and follows the
/// new pipeline.
#[test]
fn sweep_invalidated_flows_never_served_from_smc() {
    let mut rig = build_rig(true);
    let f = frame([10, 1, 7, 7], 4321);

    // Warm: first packet upcalls and installs; the second is served from
    // a cache tier and the flow's SMC entry exists.
    for _ in 0..2 {
        let mut p = DpPacket::from_data(&f);
        p.in_port = 0;
        rig.dp.process_packet(&mut rig.kernel, p, 0);
    }
    assert_eq!(rig.dp.stats.upcalls, 1);
    assert!(rig.dp.smc_count() > 0, "warm flow cached in the SMC");
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); N_PORTS as usize];
    rig.drain(&mut out);
    assert_eq!(out[1].len(), 2, "warm traffic delivered to port 1");

    // Control plane change: a higher-priority rule now drops this
    // destination. The sweep re-translates, sees the actions changed,
    // and kills the megaflow — which must also purge it from the SMC.
    let mut key = FlowKey::default();
    key.set_nw_dst_v4([10, 1, 0, 0]);
    key.set_metadata(7);
    let mut mask = FlowMask::of_fields(&[&fields::METADATA]);
    mask.set_nw_dst_v4_prefix(16);
    rig.dp.ofproto.add_rule(OfRule {
        table: 1,
        priority: 99,
        key,
        mask,
        actions: vec![], // drop
        cookie: 3,
    });
    let deleted = rig.dp.revalidate_changed();
    assert!(deleted >= 1, "sweep deleted the stale megaflow");

    // Replay the same flow: the dead entry must not be served from any
    // cache — the packet upcalls and the new pipeline drops it.
    let (smc_hits0, emc_hits0) = (rig.dp.stats.smc_hits, rig.dp.stats.emc_hits);
    let mut p = DpPacket::from_data(&f);
    p.in_port = 0;
    rig.dp.process_packet(&mut rig.kernel, p, 0);
    assert_eq!(
        rig.dp.stats.smc_hits, smc_hits0,
        "sweep-invalidated flow was served from the SMC"
    );
    assert_eq!(
        rig.dp.stats.emc_hits, emc_hits0,
        "sweep-invalidated flow was served from the EMC"
    );
    assert_eq!(rig.dp.stats.upcalls, 2, "replay re-upcalled");
    rig.drain(&mut out);
    assert_eq!(out[1].len(), 2, "dropped: nothing new on port 1");
    assert_eq!(rig.dp.stats.dropped, 1);
}

/// The lazy path to the same guarantee: even *without* the end-of-sweep
/// purge, an SMC probe that lands on a dead megaflow must miss (and
/// reclaim the slot) rather than forward with stale actions.
#[test]
fn dead_megaflow_misses_in_smc_on_lookup() {
    let mut rig = build_rig(true);
    let f = frame([10, 2, 1, 1], 1111);
    for _ in 0..2 {
        let mut p = DpPacket::from_data(&f);
        p.in_port = 0;
        rig.dp.process_packet(&mut rig.kernel, p, 0);
    }
    let cached = rig.dp.smc_count();
    assert!(cached > 0);

    // Idle the flow out via the periodic sweep (which also purges), then
    // re-insert a fresh megaflow and kill it *without* sweeping: the
    // next lookup must reclaim the dead reference in place.
    rig.kernel.sim.clock.advance(11_000_000_000);
    rig.dp.revalidate(&mut rig.kernel, 0);
    assert_eq!(rig.dp.megaflow_count(), 0, "idle sweep drained the table");
    assert_eq!(rig.dp.smc_count(), 0, "sweep purged the SMC");

    let smc_hits0 = rig.dp.stats.smc_hits;
    let mut p = DpPacket::from_data(&f);
    p.in_port = 0;
    rig.dp.process_packet(&mut rig.kernel, p, 0);
    assert_eq!(rig.dp.stats.smc_hits, smc_hits0, "no stale SMC service");
    assert_eq!(rig.dp.stats.upcalls, 2, "idle-expired flow re-upcalled");
}
