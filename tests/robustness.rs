//! Robustness tier-1 tests (§6 "Reduced risk"): seeded fault injection
//! over the two-host NSX deployment, crash-recovery goldens, the umem
//! frame-leak audit, and upcall-queue backpressure.
//!
//! The invariant running through all of them: faults may lose packets,
//! but never *silently* — every offered frame is either delivered or
//! claimed by exactly one drop counter — and forwarding always resumes
//! once the schedule clears.

use ovs_afxdp::{AfxdpPort, OptLevel, XskSocket};
use ovs_core::dpif::PortType;
use ovs_core::health::quiet_simulated_panics;
use ovs_core::{AssignmentPolicy, DpifNetdev, HealthMonitor, PmdSet};
use ovs_kernel::dev::{Attachment, DeviceKind, NetDevice, XdpMode};
use ovs_kernel::ovs_module::Vport;
use ovs_kernel::Kernel;
use ovs_nfv::{ChainPolicy, NfSpec};
use ovs_nsx::ruleset::vm_udp_frame;
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_packet::{builder, DpPacket, MacAddr};
use ovs_ring::{DpPacketPool, PacketBatch};
use ovs_sim::{FaultKind, FaultPlan, PlanTargets, SimRng};
use ovs_tgen::scenarios::counted_drops;

use proptest::prelude::*;

const AFXDP: DatapathKind = DatapathKind::UserspaceAfxdp {
    opt: OptLevel::O5,
    interrupt_mode: false,
};

fn small_config(id: u8) -> HostConfig {
    let mut cfg = HostConfig::nsx_small(id, AFXDP, VmAttachment::VhostUser);
    cfg.nsx.target_rules = 400;
    cfg
}

/// The small pair with a sink VM on host 2.
fn host_pair() -> HostPair {
    HostPair::new(|id| {
        let mut cfg = small_config(id);
        if id == 2 {
            cfg.guest_role = ovs_kernel::GuestRole::Sink;
        }
        cfg
    })
}

/// Both hosts' datapath cache/lookup accounting must balance at every
/// observation point, crashed-and-rebuilt datapaths included.
fn assert_coherent(pair: &HostPair) {
    for (name, h) in [("h1", &pair.h1), ("h2", &pair.h2)] {
        if let Some(dp) = &h.dp {
            assert!(dp.stats.coherent(), "{name} stats incoherent");
        }
    }
}

// ----------------------------------------------------------------------
// (a) Seeded random fault plans: no silent loss, forwarding resumes
// ----------------------------------------------------------------------

proptest! {
    /// Arm a fully random seeded [`FaultPlan`] (every windowed fault
    /// class, jittered times and durations) against the supervised
    /// sender host of a two-host NSX pair, stream one-way traffic
    /// across the schedule, and check the §6 contract: stats stay
    /// coherent, `offered == delivered + counted drops` exactly, and a
    /// probe after the all-clear forwards without loss.
    #[test]
    fn random_fault_plans_never_lose_packets_silently(seed in 0u64..1_000_000) {
        quiet_simulated_panics();
        ovs_obs::coverage::reset();
        let mut pair = host_pair();
        pair.h1.enable_supervision(2_000_000, 8);

        const HORIZON_NS: u64 = 10_000_000;
        const ROUND_NS: u64 = 100_000;
        let sender = pair.h1.guest_of_vif[0];
        let plan = FaultPlan::random(
            seed,
            HORIZON_NS,
            PlanTargets {
                ifindex: pair.h1.uplink_if,
                guest: sender as u32,
                // The NSX pair runs no NF manager: the plan's NfPanic
                // window simply expires. The NF-chain rig below takes
                // the same fault class against live NFs.
                nf: 0,
            },
        );
        pair.h1.kernel.sim.faults.arm(plan);

        let mut offered = 0u64;
        for _ in 0..(HORIZON_NS / ROUND_NS) {
            for _ in 0..4 {
                pair.h1.kernel.guests[sender].tx_ring.push_back(vm_udp_frame(1, 2));
                offered += 1;
            }
            pair.shuttle();
            assert_coherent(&pair);
            pair.advance(ROUND_NS);
        }

        // Drain until the schedule has fully cleared (pending one-shots
        // consumed, restarts completed) and nothing is parked anywhere.
        // A graceful DaemonRestart leaves the flow-restore-wait gate up
        // past the fault window — misses are *counted* drops while it
        // holds, so wait it out before demanding lossless forwarding.
        for _ in 0..256 {
            let moved = pair.shuttle();
            assert_coherent(&pair);
            pair.advance(ROUND_NS);
            let gated = pair.h1.dp.as_ref().is_some_and(|dp| dp.restore.wait);
            if moved == 0 && pair.h1.kernel.sim.faults.all_clear() && !gated {
                break;
            }
        }
        prop_assert!(
            pair.h1.kernel.sim.faults.all_clear(),
            "seed {seed}: schedule never cleared"
        );
        prop_assert!(
            !pair.h1.dp.as_ref().is_some_and(|dp| dp.restore.wait),
            "seed {seed}: flow-restore-wait gate never lifted"
        );

        // The balance sheet: every frame delivered or claimed by exactly
        // one drop counter.
        let sink = pair.h2.guest_of_vif[0];
        let delivered = pair.h2.kernel.guests[sink].rx_count;
        let (by_counter, counted) = counted_drops();
        prop_assert_eq!(
            offered as i64 - delivered as i64 - counted as i64,
            0,
            "seed {}: {} offered, {} delivered, {} counted {:?}",
            seed,
            offered,
            delivered,
            counted,
            by_counter
        );

        // Forwarding must fully resume after the last fault clears.
        const PROBE: u64 = 32;
        for _ in 0..PROBE {
            pair.h1.kernel.guests[sender].tx_ring.push_back(vm_udp_frame(1, 2));
        }
        for _ in 0..256 {
            let moved = pair.shuttle();
            pair.advance(ROUND_NS);
            if moved == 0 {
                break;
            }
        }
        prop_assert_eq!(
            pair.h2.kernel.guests[sink].rx_count - delivered,
            PROBE,
            "seed {}: probe did not fully forward after all-clear",
            seed
        );
        assert_coherent(&pair);
    }
}

// ----------------------------------------------------------------------
// (a2) Armed NfPanic schedules against live NF service chains
// ----------------------------------------------------------------------

proptest! {
    /// Arm a seeded plan of [`FaultKind::NfPanic`] windows (the same
    /// plan/tick machinery the NSX soak uses, not direct injection)
    /// against a four-tenant NF-chain rig and stream skewed traffic
    /// across the schedule. The §6 contract extends through the NF
    /// drop classes: offered == delivered + counted exactly, dpif
    /// stats stay coherent, and a probe after the all-clear forwards
    /// without loss through the restarted NFs.
    #[test]
    fn nf_panic_plans_keep_the_ledger_exact(seed in 0u64..1_000_000) {
        quiet_simulated_panics();
        ovs_obs::coverage::reset();

        const ROUND_NS: u64 = 100_000;
        let mut k = Kernel::new(8);
        let nic0 = k.add_device(NetDevice::new(
            "eth0", MacAddr::new(2, 0, 0, 0, 0, 1), DeviceKind::Phys { link_gbps: 10.0 }, 1,
        ));
        let nic1 = k.add_device(NetDevice::new(
            "eth1", MacAddr::new(2, 0, 0, 0, 0, 2), DeviceKind::Phys { link_gbps: 10.0 }, 1,
        ));
        let mut dp = DpifNetdev::new();
        let p0 = dp.add_port(
            "eth0",
            PortType::Afxdp(AfxdpPort::open(&mut k, nic0, 1024, OptLevel::O5).unwrap()),
        );
        let p1 = dp.add_port(
            "eth1",
            PortType::Afxdp(AfxdpPort::open(&mut k, nic1, 1024, OptLevel::O5).unwrap()),
        );
        dp.set_emc_insert_inv_prob(1);

        // Four tenants, chain lengths 1..=4, alternating dead-NF policy
        // so the schedule exercises both bypass and fail-closed paths.
        let mut total_nfs = 0;
        for t in 0..4u32 {
            let len = 1 + t as usize;
            let specs = (0..len)
                .map(|i| {
                    let spec = if i == 0 {
                        NfSpec::Firewall { rules: vec![], default_allow: true }
                    } else {
                        NfSpec::Monitor
                    };
                    (format!("t{t}-nf{i}"), spec)
                })
                .collect();
            let policy = if t % 2 == 1 { ChainPolicy::FailClosed } else { ChainPolicy::Bypass };
            let cid = dp.nfv.add_chain(t, specs, 16, p1, policy);
            dp.add_flows(&format!(
                "table=0, priority=10, udp, tp_dst={}, actions=nf_chain:{cid}",
                4000 + t as u16
            ))
            .unwrap();
            total_nfs += len;
        }
        let mut pmds = PmdSet::new(&[4, 5], AssignmentPolicy::RoundRobin);
        pmds.add_port_rxqs(p0, 1);
        pmds.add_nf_units(total_nfs);
        pmds.rebalance();

        // Seeded plan: 3..=6 NfPanic windows against random NF ids,
        // jittered across the first 40 soak rounds.
        let mut prng = SimRng::new(seed ^ 0x00f0_00f0);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..(3 + prng.below(4)) {
            let at = prng.below(40) * ROUND_NS;
            let nf = prng.below(total_nfs as u64) as u32;
            plan = plan.event(at, FaultKind::NfPanic, nf, 0, 5_000_000);
        }
        k.sim.faults.arm(plan);

        let mut rng = SimRng::new(seed);
        let mut offered = 0u64;
        for _ in 0..60 {
            k.fault_tick();
            for _ in 0..4 {
                let t = rng.below(4) as u16;
                let sport = 1024 + rng.below(50_000) as u16;
                let f = builder::udp_ipv4(
                    MacAddr::new(2, 0, 0, 0, 9, 9),
                    MacAddr::new(2, 0, 0, 0, 0, 1),
                    [10, 0, 0, 1],
                    [10, 0, 0, 2],
                    sport,
                    4000 + t,
                    &[0x5a; 32],
                );
                k.receive(nic0, 0, f);
                offered += 1;
            }
            pmds.run_round(&mut dp, &mut k);
            assert!(dp.stats.coherent(), "seed {seed}: stats incoherent mid-soak");
            k.sim.clock.advance(ROUND_NS);
        }

        // Drain: nothing moving, no packets parked on NF rings, and the
        // whole schedule fired and expired (crashed NFs restarted).
        for _ in 0..1024 {
            k.fault_tick();
            let moved = pmds.run_round(&mut dp, &mut k);
            k.sim.clock.advance(ROUND_NS);
            let parked: usize = dp
                .nfv
                .chains()
                .iter()
                .map(|c| dp.nfv.chain_occupancy(c))
                .sum();
            if moved == 0 && parked == 0 && k.sim.faults.all_clear() {
                break;
            }
        }
        prop_assert!(k.sim.faults.all_clear(), "seed {seed}: schedule never cleared");

        let delivered = k.device(nic1).tx_wire.len() as u64;
        let (by_counter, counted) = counted_drops();
        prop_assert_eq!(
            offered as i64 - delivered as i64 - counted as i64,
            0,
            "seed {}: {} offered, {} delivered, {} counted {:?}",
            seed,
            offered,
            delivered,
            counted,
            by_counter
        );

        // Forwarding must fully resume through the restarted NFs.
        const PROBE: u64 = 32;
        for i in 0..PROBE {
            let f = builder::udp_ipv4(
                MacAddr::new(2, 0, 0, 0, 9, 9),
                MacAddr::new(2, 0, 0, 0, 0, 1),
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                5000 + i as u16,
                4000 + (i % 4) as u16,
                &[0x5a; 32],
            );
            k.receive(nic0, 0, f);
        }
        for _ in 0..256 {
            let moved = pmds.run_round(&mut dp, &mut k);
            k.sim.clock.advance(ROUND_NS);
            if moved == 0 {
                break;
            }
        }
        prop_assert_eq!(
            k.device(nic1).tx_wire.len() as u64 - delivered,
            PROBE,
            "seed {}: probe did not fully forward after all-clear",
            seed
        );
        assert!(dp.stats.coherent(), "seed {seed}: stats incoherent after probe");
    }
}

// ----------------------------------------------------------------------
// (b) Goldens: health/show and fault/show after a deterministic
//     crash → restart → vhost reconnect schedule
// ----------------------------------------------------------------------

const GOLDEN_HEALTH_SHOW: &str = "\
datapath health: running
  restarts      : 1/4 (next backoff 0.004s)
  crashes       : 1
    0.000s panic \"simulated datapath bug: invalid geneve option parse\" — recovered at 0.003s (+0.003s)
  mean recovery : 0.003s
";

const GOLDEN_FAULT_SHOW: &str = "\
fault injection: seed 0, plan 0/0 fired, 0 active, 2 injected
active:
  (none)
injected by class:
  datapath_panic     1
  vhost_disconnect   1
log:
  0.000s datapath_panic target 0 arg 0
  0.003s vhost_disconnect target 0 arg 0 for 0.005s
";

#[test]
fn crash_restart_reconnect_goldens() {
    quiet_simulated_panics();
    let mut h = Host::build(&small_config(1));
    h.enable_supervision(2_000_000, 4);
    assert_eq!(h.kernel.sim.clock.now_ns(), 0, "deterministic schedule");

    // t = 0 ms: the latent datapath bug fires on the next PMD poll.
    let out = h.appctl("fault/inject", &["datapath_panic"]).unwrap();
    assert_eq!(out, "injected datapath_panic target 0 arg 0 duration 0ms\n");
    h.pump();
    assert!(h.dp.is_none(), "supervisor tore the crashed datapath down");
    assert!(
        h.appctl("health/show", &[]).is_err(),
        "appctl unreachable while the datapath is down"
    );

    // t = 3 ms: past the 2 ms backoff — the supervisor rebuilds.
    h.kernel.sim.clock.advance(3_000_000);
    h.pump();
    assert!(h.dp.is_some(), "restarted after backoff");

    // Still t = 3 ms: the guest's vhost backend drops for 5 ms.
    h.appctl("fault/inject", &["vhost_disconnect", "0", "0", "5"])
        .unwrap();
    assert!(!h.kernel.guests[0].connected);

    // t = 9 ms: the window expired — reconnect renegotiated the rings.
    h.kernel.sim.clock.advance(6_000_000);
    h.pump();
    assert!(h.kernel.guests[0].connected, "vhost reconnected");
    assert_eq!(ovs_obs::coverage::total("vhost_reconnect"), 1);

    assert_eq!(h.appctl("health/show", &[]).unwrap(), GOLDEN_HEALTH_SHOW);
    assert_eq!(h.appctl("fault/show", &[]).unwrap(), GOLDEN_FAULT_SHOW);
}

// ----------------------------------------------------------------------
// (c) Frame-leak audit: tx against a full ring must never shrink the
//     umem pool
// ----------------------------------------------------------------------

#[test]
fn full_ring_tx_never_shrinks_umem_pool() {
    let mut k = Kernel::new(4);
    let eth0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr([2, 0, 0, 0, 0, 1]),
        DeviceKind::Phys { link_gbps: 25.0 },
        1,
    ));
    let mut sock = XskSocket::bind(&mut k, eth0, 0, 64, OptLevel::O5);
    let nframes = sock.pool.nframes();
    let mut descs = DpPacketPool::new(sock.metadata_frames(), 2048);

    // Lose the tx need_wakeup kick: the kernel stops draining the tx
    // ring, so sustained tx fills it and then starves the frame pool.
    k.inject_fault(FaultKind::RxRingStall, eth0, 0, 0);

    let frame = builder::udp_ipv4_frame(
        MacAddr([2, 0, 0, 0, 0, 2]),
        MacAddr([2, 0, 0, 0, 0, 1]),
        [10, 0, 0, 2],
        [10, 0, 0, 1],
        1,
        2,
        64,
    );
    let mut offered = 0u64;
    let mut sent = 0u64;
    for i in 0..10_000u32 {
        let mut batch = PacketBatch::new();
        for _ in 0..4 {
            batch.push(DpPacket::from_data(&frame)).unwrap();
            offered += 1;
        }
        sent += sock.tx_burst(&mut k, 1, &mut batch, &mut descs) as u64;
        // The audit invariant, every iteration: free + fill + rx + tx +
        // completion + sequestered == nframes. Nothing leaks, nothing
        // is minted.
        assert!(sock.frame_accounting_ok(), "umem frame leak at iter {i}");
        assert_eq!(sock.pool.nframes(), nframes, "pool shrank at iter {i}");
    }
    assert!(sent < offered, "the stalled ring must reject the overflow");
    assert_eq!(
        sock.stats.tx_dropped,
        offered - sent,
        "every rejected frame is a counted drop"
    );
    assert_eq!(ovs_obs::coverage::total("xsk_tx_ring_full"), offered - sent);

    // Clear the stall: the recovery kick drains the parked backlog into
    // the device, leaving the frames on the completion ring. The next
    // burst reclaims them into the pool (completions are reaped at the
    // end of `tx_burst`), and the one after that transmits again.
    k.set_xsk_kick_lost(eth0, false);
    k.xsk_recovery_kick(eth0);
    for expect_sent in [false, true] {
        let mut batch = PacketBatch::new();
        batch.push(DpPacket::from_data(&frame)).unwrap();
        let n = sock.tx_burst(&mut k, 1, &mut batch, &mut descs);
        assert_eq!(n == 1, expect_sent, "tx recovery sequence");
        assert!(sock.frame_accounting_ok());
        assert_eq!(sock.pool.nframes(), nframes);
    }
}

// ----------------------------------------------------------------------
// (d) Upcall queue backpressure: bounded, and the overflow is counted
// ----------------------------------------------------------------------

#[test]
fn upcall_queue_is_bounded_and_counted() {
    ovs_obs::coverage::reset();
    let mut k = Kernel::new(2);
    let eth0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr([2, 0, 0, 0, 0, 1]),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let p0 = k.ovs.add_vport(Vport::Netdev { ifindex: eth0 });
    k.dev_mut(eth0).attachment = Attachment::OvsBridge { port: p0 };
    let _ = XdpMode::Native; // (import parity with the kernel test module)

    // Nobody services upcalls: every distinct flow is a miss, and the
    // queue must saturate at its bound instead of growing without limit.
    const FLOWS: u32 = 6000;
    for i in 0..FLOWS {
        let f = builder::udp_ipv4_frame(
            MacAddr([2, 0, 0, 0, 9, 9]),
            MacAddr([2, 0, 0, 0, 0, 1]),
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [10, 0, 0, 1],
            (i % 50_000) as u16 + 1,
            80,
            64,
        );
        k.receive(eth0, 0, f);
    }
    assert_eq!(k.upcalls.len(), 4096, "queue bounded at MAX_UPCALLS");
    assert_eq!(
        k.upcall_drops,
        FLOWS as u64 - 4096,
        "overflow counted, not silently discarded"
    );
    assert_eq!(
        ovs_obs::coverage::total("upcall_queue_full"),
        k.upcall_drops,
        "drop counter and coverage counter agree"
    );
}

// ----------------------------------------------------------------------
// (e) Crash during multi-PMD operation: the scheduler's blueprint
//     (assignment, pins, load measurements) survives the restart; only
//     the per-PMD caches come back cold
// ----------------------------------------------------------------------

#[test]
fn crash_during_multi_pmd_preserves_assignment_and_restores_caches() {
    quiet_simulated_panics();
    let mut k = Kernel::new(16);
    let mut nics = Vec::new();
    for i in 0..2u8 {
        nics.push(k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            2,
        )));
    }
    let (nic0, nic1) = (nics[0], nics[1]);

    // The supervisor's builder: on every (re)start, re-open the AF_XDP
    // ports and re-install the controller's rule. Caches start cold.
    let mut health = HealthMonitor::with_policy(
        move |k: &mut Kernel| {
            let mut dp = DpifNetdev::new();
            let p0 = dp.add_port(
                "eth0",
                PortType::Afxdp(AfxdpPort::open(k, nic0, 1024, OptLevel::O5).unwrap()),
            );
            let p1 = dp.add_port(
                "eth1",
                PortType::Afxdp(AfxdpPort::open(k, nic1, 1024, OptLevel::O5).unwrap()),
            );
            dp.add_flows(&format!(
                "table=0, priority=10, in_port={p0}, actions=output:{p1}"
            ))
            .unwrap();
            // Deterministic cache warm-up: every EMC miss inserts.
            dp.set_emc_insert_inv_prob(1);
            dp
        },
        2_000_000,
        4,
    );
    let mut dp = Some(health.start(&mut k));

    // Two PMD threads split eth0's two rx queues (roundrobin deals one
    // queue to each core).
    let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(0, 2);
    pmds.rebalance();
    let assignment_before: Vec<Vec<ovs_core::RxqId>> =
        pmds.pmds().iter().map(|p| p.rxqs().to_vec()).collect();
    assert!(
        assignment_before.iter().all(|r| r.len() == 1),
        "both PMDs poll one queue each: {assignment_before:?}"
    );

    let inject = |k: &mut Kernel, q: usize, tp: u16| {
        let f = builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000 + tp,
            6000,
            96,
        );
        k.receive(nic0, q, f);
    };

    // Warm both PMDs' private caches, then let the rings fully drain so
    // nothing is parked mid-pipeline when the bug fires.
    for round in 0..16u16 {
        for q in 0..2 {
            inject(&mut k, q, round % 4);
        }
        pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    }
    for _ in 0..4 {
        pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    }
    let warm = k.device(nic1).tx_wire.len();
    assert_eq!(warm, 32, "all warm-up frames forwarded");
    assert!(
        pmds.pmds().iter().all(|p| p.emc_len() > 0),
        "both PMDs' private EMCs warmed"
    );

    // The latent datapath bug fires on the next supervised poll.
    k.inject_fault(ovs_sim::FaultKind::DatapathPanic, 0, 0, 0);
    pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    assert!(dp.is_none(), "supervisor tore the crashed datapath down");
    assert_eq!(health.crashes.len(), 1);
    assert!(
        pmds.pmds()
            .iter()
            .all(|p| p.emc_len() == 0 && p.smc_len() == 0),
        "the crash took the swapped-in caches with it: cold restart"
    );
    let assignment_after: Vec<Vec<ovs_core::RxqId>> =
        pmds.pmds().iter().map(|p| p.rxqs().to_vec()).collect();
    assert_eq!(
        assignment_after, assignment_before,
        "rxq→PMD assignment is supervisor state, not datapath state"
    );

    // Past the 2 ms backoff the next round rebuilds the datapath and
    // resumes polling the same assignment.
    k.sim.clock.advance(3_000_000);
    pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    assert!(dp.is_some(), "restarted after backoff");
    assert_eq!(health.restarts, 1);

    // Forwarding resumes over the restored blueprint: the first packets
    // take the slow path again (cold caches), then both EMCs re-warm.
    for round in 0..8u16 {
        for q in 0..2 {
            inject(&mut k, q, round % 4);
        }
        pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    }
    for _ in 0..4 {
        pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    }
    assert_eq!(
        k.device(nic1).tx_wire.len() - warm,
        16,
        "every post-restart frame forwarded"
    );
    assert!(
        pmds.pmds().iter().all(|p| p.emc_len() > 0),
        "private caches re-warmed after the restart"
    );
    assert!(
        dp.as_ref().unwrap().stats.upcalls > 0,
        "cold caches sent the first post-restart packets to the slow path"
    );
    // The per-PMD deltas still satisfy the stats identity on their own
    // (the global counters reset with the rebuilt datapath, so the
    // cross-check against them only holds within one incarnation).
    assert!(pmds.stats_sum().coherent());
}
