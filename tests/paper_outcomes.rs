//! The paper's five numbered outcomes (§5), as executable assertions over
//! the simulation. These pin the *shape* of every headline claim so a
//! regression in any substrate that would invert a conclusion fails CI.

use ovs_afxdp::OptLevel;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, VmAttachment};
use ovs_afxdp_repro::tgen::iperf::{self, CcMode, Offloads};
use ovs_afxdp_repro::tgen::netperf::{self, RrConfig};
use ovs_afxdp_repro::tgen::scenarios::{self, DpKind, PathKind, ScenarioConfig, VmAttach};

const AFXDP: DatapathKind = DatapathKind::UserspaceAfxdp {
    opt: OptLevel::O5,
    interrupt_mode: false,
};

/// Outcome #1: "For VMs, OVS AF_XDP outperforms in-kernel OVS ... For
/// container networking, however, in-kernel OVS remains faster than
/// AF_XDP for TCP workloads for now."
#[test]
fn outcome1_vms_faster_containers_not_yet() {
    // VMs, cross-host (Fig 8a): AF_XDP + vhostuser beats kernel + tap.
    let kernel = iperf::fig8a_cross_host(DatapathKind::Kernel, VmAttachment::Tap);
    let afxdp = iperf::fig8a_cross_host(AFXDP, VmAttachment::VhostUser);
    assert!(
        afxdp.gbps > 2.0 * kernel.gbps,
        "about 3x across hosts in the paper; got {:.2} vs {:.2}",
        afxdp.gbps,
        kernel.gbps
    );
    // VMs, intra-host (Fig 8b): AF_XDP + vhostuser + offloads beats kernel.
    let kernel_b = iperf::fig8b_intra_host(DatapathKind::Kernel, VmAttachment::Tap, Offloads::FULL);
    let afxdp_b = iperf::fig8b_intra_host(AFXDP, VmAttachment::VhostUser, Offloads::FULL);
    assert!(afxdp_b.gbps > kernel_b.gbps);
    // Containers, TCP (Fig 8c): the kernel still wins — XDP lacks TSO.
    let kernel_c = iperf::fig8c_containers(CcMode::Kernel, Offloads::FULL);
    let afxdp_c = iperf::fig8c_containers(CcMode::AfxdpUserspace(OptLevel::O5), Offloads::CSUM);
    assert!(
        kernel_c.gbps > afxdp_c.gbps,
        "in-kernel {:.1} must beat AF_XDP {:.1} for container TCP",
        kernel_c.gbps,
        afxdp_c.gbps
    );
}

/// Outcome #2: "OVS AF_XDP outperforms the other solutions when the
/// endpoints are containers. In the other settings, DPDK provides better
/// performance."
#[test]
fn outcome2_containers_afxdp_else_dpdk() {
    for flows in [1usize, 1000] {
        // PCP: AF_XDP (XDP redirect) wins in speed.
        let pcp = |dp| scenarios::run(&ScenarioConfig::micro(dp, PathKind::Pcp, flows));
        let a = pcp(DpKind::Afxdp(OptLevel::O5));
        let k = pcp(DpKind::Kernel);
        let d = pcp(DpKind::Dpdk);
        assert!(a.mpps > k.mpps && a.mpps > d.mpps, "flows={flows}");
        // ... and in CPU use.
        assert!(a.usage.total() <= d.usage.total() + 0.3, "flows={flows}");

        // P2P and PVP: DPDK leads.
        let p2p = |dp| scenarios::run(&ScenarioConfig::micro(dp, PathKind::P2p, flows));
        assert!(p2p(DpKind::Dpdk).mpps > p2p(DpKind::Afxdp(OptLevel::O5)).mpps);
        let pvp = |dp| {
            scenarios::run(&ScenarioConfig::micro(
                dp,
                PathKind::Pvp(VmAttach::VhostUser),
                flows,
            ))
        };
        assert!(pvp(DpKind::Dpdk).mpps > pvp(DpKind::Afxdp(OptLevel::O5)).mpps);
    }
}

/// Fig 9a (P2P, 64 B): 1,000 flows hurt every userspace datapath, whose
/// caches stop fitting, while the kernel speeds up — RSS spreads the
/// flows over more softirq cores, fast but not efficient.
#[test]
fn fig9a_thousand_flows_slow_userspace_and_spread_the_kernel() {
    let p2p = |dp, flows| scenarios::run(&ScenarioConfig::micro(dp, PathKind::P2p, flows));
    for dp in [DpKind::Afxdp(OptLevel::O5), DpKind::Dpdk] {
        let (one, many) = (p2p(dp, 1), p2p(dp, 1000));
        assert!(
            many.mpps < one.mpps,
            "{dp:?}: {:.3} Mpps at 1000 flows vs {:.3} at 1",
            many.mpps,
            one.mpps
        );
    }
    let (one, many) = (p2p(DpKind::Kernel, 1), p2p(DpKind::Kernel, 1000));
    assert!(
        many.mpps > one.mpps,
        "kernel: {:.3} Mpps at 1000 flows vs {:.3} at 1",
        many.mpps,
        one.mpps
    );
    assert!(
        many.usage.total() > one.usage.total(),
        "kernel: {:.2} HT at 1000 flows vs {:.2} at 1",
        many.usage.total(),
        one.usage.total()
    );
}

/// Outcome #3: "OVS with AF_XDP performs about as well as the better of
/// in-kernel or DPDK for virtual networking both across and within hosts"
/// (the latency view, Fig 10/11).
#[test]
fn outcome3_latency_tracks_the_best() {
    // Inter-host VM: AF_XDP barely trails DPDK, both far ahead of kernel.
    let a = netperf::vm_rr(RrConfig::Afxdp).latency_us;
    let d = netperf::vm_rr(RrConfig::Dpdk).latency_us;
    let k = netperf::vm_rr(RrConfig::Kernel).latency_us;
    assert!(a.p50 < d.p50 * 1.2, "afxdp {} ~ dpdk {}", a.p50, d.p50);
    assert!(a.p50 < k.p50 * 0.8);
    // Intra-host containers: AF_XDP matches the kernel; DPDK collapses
    // ("beats DPDK processing latency by 12x" in the intro).
    let a = netperf::container_rr(RrConfig::Afxdp);
    let k = netperf::container_rr(RrConfig::Kernel);
    let d = netperf::container_rr(RrConfig::Dpdk);
    assert!((a.latency_us.p50 - k.latency_us.p50).abs() < 0.25 * k.latency_us.p50);
    assert!(
        d.latency_us.p99 > 10.0 * a.latency_us.p99,
        "P99: dpdk {} vs afxdp {}",
        d.latency_us.p99,
        a.latency_us.p99
    );
    assert!(a.tps > 4.0 * d.tps, "transaction rate gap");
}

/// Outcome #4: "Complexity in XDP code reduces performance. Processing
/// packets in userspace with AF_XDP isn't always slower than processing
/// in XDP."
#[test]
fn outcome4_xdp_complexity_costs() {
    use scenarios::XdpTask;
    let a = scenarios::run_xdp_task(XdpTask::Drop).mpps;
    let b = scenarios::run_xdp_task(XdpTask::ParseDrop).mpps;
    let c = scenarios::run_xdp_task(XdpTask::ParseLookupDrop).mpps;
    let d = scenarios::run_xdp_task(XdpTask::SwapFwd).mpps;
    assert!(
        a > b && b > c && c > d,
        "each added task step costs: {a} {b} {c} {d}"
    );
    // The userspace datapath's P2P rate beats the in-XDP forwarding task:
    // userspace isn't always slower than XDP.
    let user = scenarios::run(&ScenarioConfig {
        link_gbps: 10.0,
        ..ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, 1)
    });
    assert!(
        user.mpps > d,
        "userspace {:.1} vs XDP fwd {:.1}",
        user.mpps,
        d
    );
}

/// Outcome #5: "AF_XDP does not yet provide the performance of DPDK but
/// it is mature enough to saturate 25 Gbps with large packets."
#[test]
fn outcome5_line_rate_with_large_packets() {
    let big = scenarios::run(&ScenarioConfig {
        queues: 6,
        frame_len: 1518,
        ..ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, 1000)
    });
    assert!(big.line_limited, "1518B at 6 queues saturates 25 GbE");
    let small = scenarios::run(&ScenarioConfig {
        queues: 6,
        frame_len: 64,
        ..ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, 1000)
    });
    assert!(!small.line_limited, "64B tops out below line rate");
    let dpdk_small = scenarios::run(&ScenarioConfig {
        queues: 6,
        frame_len: 64,
        ..ScenarioConfig::micro(DpKind::Dpdk, PathKind::P2p, 1000)
    });
    assert!(
        dpdk_small.mpps > small.mpps,
        "DPDK consistently outperforms at 64B"
    );
}

/// Takeaway #4: "eBPF solves maintainability issues but it is too slow
/// for packet switching" — 10–20% behind the kernel module.
#[test]
fn takeaway4_ebpf_datapath_too_slow() {
    let kernel = scenarios::run_fig2_kernel().mpps;
    let ebpf = scenarios::run_fig2_ebpf().mpps;
    assert!(ebpf < kernel);
    let slowdown = 1.0 - ebpf / kernel;
    assert!(
        (0.05..=0.30).contains(&slowdown),
        "eBPF should be ~10-20% slower, got {:.0}%",
        slowdown * 100.0
    );
}
