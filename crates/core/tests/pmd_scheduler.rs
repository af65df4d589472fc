//! PMD scheduler parity and auto-load-balancer tests.
//!
//! The multi-PMD scheduler must be a pure performance structure: however
//! the rxqs are spread over PMD threads (policy, thread count, pins),
//! the forwarded traffic and the per-port accounting must be identical
//! to a single-PMD reference run, and the per-PMD counter deltas must
//! sum exactly to the datapath's global stats.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::health::HealthMonitor;
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_core::pmd::{AssignmentPolicy, PmdSet};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};
use proptest::prelude::*;

const NQ: usize = 4;

fn frame(tp_src: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        1000 + tp_src,
        6000,
        96,
    )
}

fn setup() -> (Kernel, DpifNetdev, Vec<u32>) {
    let mut k = Kernel::new(16);
    let nics: Vec<u32> = (0..2u8)
        .map(|i| {
            k.add_device(NetDevice::new(
                &format!("eth{i}"),
                MacAddr::new(2, 0, 0, 0, 0, i + 1),
                DeviceKind::Phys { link_gbps: 10.0 },
                NQ,
            ))
        })
        .collect();
    let dp = datapath(&mut k, &nics);
    (k, dp, nics)
}

/// The datapath over `nics`: an AF_XDP port each, eth0 forwarding to
/// eth1 (also the blueprint a [`HealthMonitor`] rebuilds it from).
fn datapath(k: &mut Kernel, nics: &[u32]) -> DpifNetdev {
    let mut dp = DpifNetdev::new();
    for (i, &nic) in nics.iter().enumerate() {
        dp.add_port(
            &format!("eth{i}"),
            PortType::Afxdp(AfxdpPort::open(k, nic, 1024, OptLevel::O5).unwrap()),
        );
    }
    let mut key = FlowKey::default();
    key.set_in_port(0);
    dp.ofproto.add_rule(OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Output(1)],
        cookie: 0,
    });
    dp
}

/// One traffic event: `count` copies of flow `tp` into queue `q`.
#[derive(Debug, Clone)]
struct Burst {
    q: usize,
    tp: u16,
    count: usize,
}

fn arb_burst() -> impl Strategy<Value = Burst> {
    (0..NQ, 0u16..16, 1usize..4).prop_map(|(q, tp, count)| Burst { q, tp, count })
}

/// A random scheduler shape: how many PMDs, which policy, and an
/// optional affinity pin of one queue to one of the cores.
#[derive(Debug, Clone)]
struct Shape {
    n_pmds: usize,
    policy: AssignmentPolicy,
    pin: Option<(usize, usize)>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (1usize..=3, 0u8..3, any::<bool>(), 0..NQ, 0usize..3).prop_map(|(n_pmds, pol, pinned, q, c)| {
        Shape {
            n_pmds,
            policy: match pol {
                0 => AssignmentPolicy::RoundRobin,
                1 => AssignmentPolicy::Cycles,
                _ => AssignmentPolicy::Group,
            },
            pin: pinned.then_some((q, c % n_pmds)),
        }
    })
}

/// Drive `events` through a scheduler built per `shape` (or the
/// single-PMD reference when `shape` is `None`) and return the forwarded
/// frames (sorted — PMD interleaving legally reorders them), the egress
/// count, and the datapath's final global stats.
fn drive(
    events: &[Burst],
    shape: Option<&Shape>,
) -> (Vec<Vec<u8>>, usize, ovs_core::dpif::DpifStats, bool) {
    let (mut k, mut dp, nics) = setup();
    let cores: Vec<usize> = match shape {
        Some(s) => (8..8 + s.n_pmds).collect(),
        None => vec![8],
    };
    let policy = shape
        .map(|s| s.policy)
        .unwrap_or(AssignmentPolicy::RoundRobin);
    let mut pmds = PmdSet::new(&cores, policy);
    pmds.add_port_rxqs(0, NQ);
    if let Some(Shape {
        pin: Some((q, c)), ..
    }) = shape
    {
        pmds.set_affinity(0, *q, 8 + c);
    }
    pmds.rebalance();

    for ev in events {
        for _ in 0..ev.count {
            k.receive(nics[0], ev.q, frame(ev.tp));
        }
        pmds.run_round(&mut dp, &mut k);
    }
    for _ in 0..4 {
        pmds.run_round(&mut dp, &mut k);
    }

    let mut tx: Vec<Vec<u8>> = k.device(nics[1]).tx_wire.clone().into();
    let n_tx = tx.len();
    tx.sort();
    let coherent = pmds.coherent_with(&dp.stats);
    (tx, n_tx, dp.stats, coherent)
}

proptest! {
    /// However the rxqs are assigned — 1-3 PMDs, any policy, an
    /// optional pin — the forwarded frames, the egress count, and the
    /// end-to-end packet counters match the single-PMD reference, and
    /// the per-PMD stat deltas sum exactly to the global counters.
    #[test]
    fn multi_pmd_forwarding_matches_single_pmd_reference(
        events in proptest::collection::vec(arb_burst(), 1..48),
        shape in arb_shape(),
    ) {
        let (ref_tx, ref_n, ref_stats, ref_coherent) = drive(&events, None);
        let (tx, n, stats, coherent) = drive(&events, Some(&shape));

        prop_assert_eq!(n, ref_n, "egress count diverged under {:?}", shape);
        prop_assert_eq!(tx, ref_tx, "forwarded frames diverged under {:?}", shape);
        // End-to-end counters are placement-independent. (The cache-hit
        // *split* is not: per-PMD EMCs legally trade EMC hits for
        // megaflow hits when a flow's queue moves between threads.)
        prop_assert_eq!(stats.rx_packets, ref_stats.rx_packets);
        prop_assert_eq!(stats.packets_processed, ref_stats.packets_processed);
        prop_assert_eq!(stats.tx_packets, ref_stats.tx_packets);
        prop_assert_eq!(stats.upcalls, ref_stats.upcalls, "same flows, same slow-path trips");
        prop_assert_eq!(stats.flows_installed, ref_stats.flows_installed);
        // The scheduler-level invariant: sum(per-PMD deltas) == global.
        prop_assert!(coherent, "multi-PMD stats incoherent: {:?}", stats);
        prop_assert!(ref_coherent, "reference stats incoherent: {:?}", ref_stats);
    }
}

/// Seeded auto-lb run: the `group` policy with no load measurements
/// piles every rxq onto the first PMD (all estimated loads are zero, so
/// the lowest core always looks least loaded). Under a skewed workload
/// the auto-lb pass measures the real loads, dry-runs the re-placement,
/// and applies it — and the bottleneck PMD's per-round busy time drops.
/// Supervised rounds (behind a [`HealthMonitor`]) balance exactly alike.
#[test]
fn auto_lb_rebalance_improves_skewed_throughput() {
    let run = |supervised: bool| {
        let (mut k, dp, nics) = setup();
        let blueprint = nics.clone();
        let mut health =
            supervised.then(|| HealthMonitor::new(move |k: &mut Kernel| datapath(k, &blueprint)));
        let mut dp = Some(dp);
        let mut round = |pmds: &mut PmdSet, k: &mut Kernel| match health.as_mut() {
            Some(h) => pmds.run_round_supervised(h, &mut dp, k),
            None => pmds.run_round(dp.as_mut().unwrap(), k),
        };
        let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::Group);
        pmds.add_port_rxqs(0, NQ);
        pmds.rebalance();
        // Unmeasured group policy: everything lands on core 8.
        assert_eq!(pmds.pmds()[0].rxqs().len(), NQ);
        assert_eq!(pmds.pmds()[1].rxqs().len(), 0);

        pmds.auto_lb.enabled = true;
        pmds.auto_lb.interval_rounds = 32;

        // Queues 0 and 2 carry 4x the traffic of queues 1 and 3.
        let weights = [4usize, 1, 4, 1];
        let inject = |k: &mut Kernel| {
            for (q, &w) in weights.iter().enumerate() {
                for i in 0..4 * w {
                    k.receive(nics[0], q, frame((q * 4 + i % 4) as u16));
                }
            }
        };

        // Phase A: skewed placement. The check at round 32 rebalances.
        let mut phase_a_max = 0u64;
        let busy0: Vec<u64> = pmds.pmds().iter().map(|p| p.busy_ns).collect();
        for _ in 0..32 {
            inject(&mut k);
            round(&mut pmds, &mut k);
        }
        for (p, b0) in pmds.pmds().iter().zip(&busy0) {
            phase_a_max = phase_a_max.max(p.busy_ns - b0);
        }
        assert_eq!(pmds.auto_lb.checks, 1, "the interval check fired");
        assert_eq!(pmds.auto_lb.rebalances, 1, "skew cleared the threshold");
        assert!(
            !pmds.pmds()[1].rxqs().is_empty(),
            "rebalance moved rxqs to the idle PMD"
        );

        // Phase B: same offered load over the rebalanced placement.
        let busy1: Vec<u64> = pmds.pmds().iter().map(|p| p.busy_ns).collect();
        for _ in 0..32 {
            inject(&mut k);
            round(&mut pmds, &mut k);
        }
        let mut phase_b_max = 0u64;
        for (p, b1) in pmds.pmds().iter().zip(&busy1) {
            phase_b_max = phase_b_max.max(p.busy_ns - b1);
        }
        (phase_a_max, phase_b_max)
    };

    let (a, b) = run(false);
    assert!(
        b < a,
        "bottleneck PMD busy time must drop after the rebalance: {a} -> {b} ns"
    );
    // The improvement is the point, not a rounding artifact.
    assert!(
        (a - b) * 100 / a >= 20,
        "post-rebalance gain must be measurable: {a} -> {b} ns"
    );
    // Byte-determinism: the whole seeded run replays identically.
    assert_eq!(run(false), (a, b), "auto-lb run is deterministic");
    assert_eq!(run(true), (a, b), "a supervised round balances alike");
}

/// The appctl surface: rebalance applies, and the commands degrade
/// helpfully when no scheduler is attached.
#[test]
fn appctl_pmd_commands() {
    let (mut k, mut dp, _nics) = setup();
    let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(0, NQ);
    pmds.rebalance();

    let out = ovs_core::appctl::dispatch_full(
        &mut dp,
        &mut k,
        None,
        Some(&mut pmds),
        "dpif-netdev/pmd-rxq-show",
        &[],
    )
    .unwrap();
    assert!(out.contains("pmd thread core 8:"), "{out}");
    assert!(out.contains("pmd thread core 9:"), "{out}");
    assert!(out.contains("queue-id:"), "{out}");

    let out = ovs_core::appctl::dispatch_full(
        &mut dp,
        &mut k,
        None,
        Some(&mut pmds),
        "dpif-netdev/pmd-rxq-rebalance",
        &[],
    )
    .unwrap();
    assert!(out.contains("rebalanced (roundrobin policy)"), "{out}");

    let out = ovs_core::appctl::dispatch_full(
        &mut dp,
        &mut k,
        None,
        Some(&mut pmds),
        "dpif-netdev/pmd-auto-lb-show",
        &[],
    )
    .unwrap();
    assert!(out.contains("pmd-auto-lb: disabled"), "{out}");

    for cmd in [
        "dpif-netdev/pmd-rxq-show",
        "dpif-netdev/pmd-rxq-rebalance",
        "dpif-netdev/pmd-auto-lb-show",
    ] {
        let err = ovs_core::appctl::dispatch(&mut dp, &mut k, cmd, &[]).unwrap_err();
        assert!(err.contains("no PMD scheduler"), "{cmd}: {err}");
    }
}

/// Idle rounds are pure iterations: k rounds over r rxqs with nothing
/// to receive add exactly k·r iterations to `pmd-perf-show`, and move no
/// datapath counter, no PMD's counters or busy time, and no rxq load in
/// `pmd-rxq-show`. Both entry points alike.
#[test]
fn idle_rounds_add_iterations_and_move_nothing_else() {
    fn show(dp: &mut DpifNetdev, k: &mut Kernel, pmds: &mut PmdSet, cmd: &str) -> String {
        ovs_core::appctl::dispatch_full(dp, k, None, Some(pmds), cmd, &[]).unwrap()
    }
    fn iterations(perf: &str) -> u64 {
        let all = perf
            .split("all pmd threads:")
            .nth(1)
            .expect("summary block");
        let n = all.split("iterations: ").nth(1).expect("iterations field");
        n.split_whitespace().next().unwrap().parse().unwrap()
    }
    for supervised in [false, true] {
        let (mut k, dp, nics) = setup();
        let blueprint = nics.clone();
        let mut health = HealthMonitor::new(move |k: &mut Kernel| datapath(k, &blueprint));
        let mut dp = Some(dp);
        let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::Cycles);
        pmds.add_port_rxqs(0, NQ);
        pmds.add_port_rxqs(1, NQ);
        pmds.rebalance();
        let mut round = |pmds: &mut PmdSet, dp: &mut Option<DpifNetdev>, k: &mut Kernel| {
            if supervised {
                pmds.run_round_supervised(&mut health, dp, k)
            } else {
                pmds.run_round(dp.as_mut().unwrap(), k)
            }
        };
        // Traffic first, so counters, busy time and loads are non-zero.
        for q in 0..NQ {
            for i in 0..=q {
                k.receive(nics[0], q, frame((q * 4 + i) as u16));
            }
        }
        assert!(round(&mut pmds, &mut dp, &mut k) > 0);

        let snapshot = |dp: &mut Option<DpifNetdev>, k: &mut Kernel, pmds: &mut PmdSet| {
            let d = dp.as_mut().unwrap();
            let per_pmd: Vec<_> = pmds.pmds().iter().map(|p| (p.stats, p.busy_ns)).collect();
            let rxq_show = show(d, k, pmds, "dpif-netdev/pmd-rxq-show");
            let iters = iterations(&show(d, k, pmds, "dpif-netdev/pmd-perf-show"));
            (d.stats, per_pmd, rxq_show, iters)
        };
        let (stats, per_pmd, rxq_show, iters) = snapshot(&mut dp, &mut k, &mut pmds);
        assert!(per_pmd.iter().all(|(_, busy)| *busy > 0), "{rxq_show}");
        const ROUNDS: u64 = 5;
        for _ in 0..ROUNDS {
            assert_eq!(
                round(&mut pmds, &mut dp, &mut k),
                0,
                "an idle round moved packets"
            );
        }
        let after = snapshot(&mut dp, &mut k, &mut pmds);
        let rxqs = (2 * NQ) as u64;
        assert_eq!(after.3 - iters, ROUNDS * rxqs, "supervised: {supervised}");
        assert_eq!(after.0, stats, "supervised: {supervised}");
        assert_eq!(after.1, per_pmd, "supervised: {supervised}");
        assert_eq!(after.2, rxq_show, "supervised: {supervised}");
    }
}
