//! The §5 benchmark topologies, runnable over every datapath.
//!
//! All three loopback shapes receive packets from the generator on one
//! NIC port, carry them across a scenario-specific internal path, and send
//! them out the other port (§5.2):
//!
//! * **P2P** — NIC → switch → NIC (pure packet-I/O cost);
//! * **PVP** — adds a round trip through a VM (tap or vhostuser);
//! * **PCP** — adds a round trip through a container (veth; AF_XDP uses
//!   the in-kernel XDP redirect fast path, Fig 5 path C).
//!
//! Plus the special rigs: the Table 2 optimization ladder (NIC → OVS
//! userspace receive path), the Fig 2 single-core datapath comparison,
//! and the Table 5 XDP-task ladder.

use crate::flood::{self, make_flows, rss_queue};
use crate::measure::RateMeasurement;
use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortNo, PortType};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_core::pmd::{AssignmentPolicy, PmdSet};
use ovs_dpdk::{AfPacketDev, EthDev, VhostUserDev};
use ovs_ebpf::maps::{DevMap, HashMap as BpfHashMap, Map};
use ovs_ebpf::programs;
use ovs_kernel::dev::{Attachment, DeviceKind, NetDevice, XdpMode};
use ovs_kernel::guest::{Guest, GuestRole, VirtioBackend};
use ovs_kernel::namespace::ContainerRole;
use ovs_kernel::ovs_module::{KAction, Vport};
use ovs_kernel::Kernel;
use ovs_nsx::ruleset::{self as nsx_ruleset, vm_udp_frame};
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::MacAddr;

/// Which datapath the scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpKind {
    /// The OVS kernel module (baseline).
    Kernel,
    /// The userspace datapath over AF_XDP at an optimization level.
    Afxdp(OptLevel),
    /// The DPDK-style PMD comparator.
    Dpdk,
}

/// VM attachment for PVP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmAttach {
    Tap,
    VhostUser,
}

/// The loopback path shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    P2p,
    Pvp(VmAttach),
    Pcp,
}

/// A benchmark scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    pub dp: DpKind,
    pub path: PathKind,
    /// Flow count (1 or 1000 in the paper).
    pub flows: usize,
    /// Frame length in bytes.
    pub frame_len: usize,
    /// NIC queues (and PMD threads for userspace datapaths).
    pub queues: usize,
    /// Link speed.
    pub link_gbps: f64,
    /// Packets to drive through the path.
    pub n_pkts: usize,
}

impl ScenarioConfig {
    /// The §5.2 microbenchmark defaults: 64 B frames on 25 GbE.
    pub fn micro(dp: DpKind, path: PathKind, flows: usize) -> Self {
        Self {
            dp,
            path,
            flows,
            frame_len: 64,
            queues: 1,
            link_gbps: 25.0,
            n_pkts: 8_192,
        }
    }
}

const CPUS: usize = 16;
/// Base hyperthread for PMD threads.
const PMD_BASE: usize = 8;
/// Hyperthread running guest vCPUs.
const GUEST_CORE: usize = 14;
/// Hyperthread for vhost-net/host-stack work.
const HOST_CORE: usize = 6;

/// The NSX hosts' datapath: userspace over AF_XDP at the top rung.
const NSX_AFXDP: DatapathKind = DatapathKind::UserspaceAfxdp {
    opt: OptLevel::O5,
    interrupt_mode: false,
};

/// The small NSX pair with a sink VM on host 2: the rig of the fault,
/// restart and outage soaks.
fn sink_pair() -> HostPair {
    HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_small(id, NSX_AFXDP, VmAttachment::VhostUser);
        if id == 2 {
            cfg.guest_role = GuestRole::Sink;
        }
        cfg
    })
}

const NIC0_MAC: MacAddr = flood::GEN_DST_MAC;
const NIC1_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xCC]);

/// Run a scenario, returning the lossless rate and CPU usage.
pub fn run(cfg: &ScenarioConfig) -> RateMeasurement {
    match cfg.dp {
        DpKind::Kernel => run_kernel(cfg),
        DpKind::Afxdp(opt) => match cfg.path {
            PathKind::Pcp => run_afxdp_pcp(cfg),
            _ => run_userspace(cfg, UserIo::Afxdp(opt)),
        },
        DpKind::Dpdk => run_userspace(cfg, UserIo::Dpdk),
    }
}

fn port_forward_rule(in_port: PortNo, out_port: PortNo) -> OfRule {
    let mut key = FlowKey::default();
    key.set_in_port(in_port);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Output(out_port)],
        cookie: 0,
    }
}

// ----------------------------------------------------------------------
// Kernel datapath scenarios
// ----------------------------------------------------------------------

fn run_kernel(cfg: &ScenarioConfig) -> RateMeasurement {
    let mut k = Kernel::new(CPUS);
    // RSS: one flow stays on one queue/core; many flows spread across all
    // hyperthreads and pay the contention penalty (Table 4's 9.7 softirq
    // threads).
    let spread = cfg.flows > 1;
    let hw_queues = if spread { 10 } else { 1 };
    k.config.rss_cores = (0..hw_queues.min(10)).collect();
    k.config.host_stack_core = HOST_CORE;
    if spread {
        // Full RSS contention only bites the pure-forwarding P2P path;
        // the VM/container paths serialize elsewhere first.
        k.config.softirq_scale = match cfg.path {
            PathKind::P2p => k.sim.costs.kernel_rss_penalty,
            _ => 1.5,
        };
    }

    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        hw_queues,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        hw_queues,
    ));
    let p0 = k.ovs.add_vport(Vport::Netdev { ifindex: nic0 });
    let p1 = k.ovs.add_vport(Vport::Netdev { ifindex: nic1 });
    k.dev_mut(nic0).attachment = Attachment::OvsBridge { port: p0 };
    k.dev_mut(nic1).attachment = Attachment::OvsBridge { port: p1 };

    let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
    let mut key = FlowKey::default();
    key.set_in_port(p0);

    let mut guest = None;
    match cfg.path {
        PathKind::P2p => {
            k.ovs.install_flow(&key, &mask, vec![KAction::Output(p1)]);
        }
        PathKind::Pvp(_) => {
            // Kernel mode always attaches VMs over tap + vhost-net.
            let tap = k.add_device(NetDevice::new(
                "tap0",
                MacAddr::new(2, 0, 0, 0, 1, 1),
                DeviceKind::Tap,
                1,
            ));
            let pt = k.ovs.add_vport(Vport::Netdev { ifindex: tap });
            k.dev_mut(tap).attachment = Attachment::OvsBridge { port: pt };
            let g = k.add_guest(Guest::new(
                "vm0",
                MacAddr::new(2, 0, 0, 0, 1, 1),
                [10, 99, 0, 2],
                GuestRole::PmdForwarder,
                VirtioBackend::VhostNet { tap_ifindex: tap },
                GUEST_CORE,
            ));
            guest = Some(g);
            k.ovs.install_flow(&key, &mask, vec![KAction::Output(pt)]);
            let mut kt = FlowKey::default();
            kt.set_in_port(pt);
            k.ovs.install_flow(&kt, &mask, vec![KAction::Output(p1)]);
        }
        PathKind::Pcp => {
            let (host_if, _inner, _ns) = k.add_container(
                "c0",
                [10, 88, 0, 2],
                MacAddr::new(6, 0, 0, 0, 1, 1),
                ContainerRole::Echo,
            );
            let pc = k.ovs.add_vport(Vport::Netdev { ifindex: host_if });
            k.dev_mut(host_if).attachment = Attachment::OvsBridge { port: pc };
            k.ovs.install_flow(&key, &mask, vec![KAction::Output(pc)]);
            let mut kc = FlowKey::default();
            kc.set_in_port(pc);
            k.ovs.install_flow(&kc, &mask, vec![KAction::Output(p1)]);
        }
    }

    let flows = make_flows(cfg.flows, cfg.frame_len, 42);
    for i in 0..cfg.n_pkts {
        let f = &flows[i % flows.len()];
        let q = rss_queue(f, hw_queues);
        k.receive(nic0, q, f.clone());
        if let Some(g) = guest {
            k.vhost_net_service(g);
        }
        if i % 64 == 0 {
            k.dev_mut(nic1).tx_wire.clear();
        }
    }
    RateMeasurement::from_sim(&k.sim, cfg.n_pkts, cfg.frame_len, cfg.link_gbps)
}

// ----------------------------------------------------------------------
// Userspace datapath scenarios (AF_XDP / DPDK)
// ----------------------------------------------------------------------

enum UserIo {
    Afxdp(OptLevel),
    Dpdk,
}

fn run_userspace(cfg: &ScenarioConfig, io: UserIo) -> RateMeasurement {
    let mut k = Kernel::new(CPUS);
    // Eight softirq affinity slots: each NIC queue's RX and the TX-drain
    // side land on distinct hyperthreads, as irqbalance would arrange.
    k.config.rss_cores = (0..8).collect();
    k.config.host_stack_core = HOST_CORE;

    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        cfg.queues,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        cfg.queues,
    ));

    let mut dp = DpifNetdev::new();
    let (p0, p1) = match &io {
        UserIo::Afxdp(opt) => {
            let a0 = AfxdpPort::open(&mut k, nic0, 4096, *opt).expect("afxdp nic0");
            let a1 = AfxdpPort::open(&mut k, nic1, 4096, *opt).expect("afxdp nic1");
            (
                dp.add_port("eth0", PortType::Afxdp(a0)),
                dp.add_port("eth1", PortType::Afxdp(a1)),
            )
        }
        UserIo::Dpdk => {
            let d0 = EthDev::probe(&mut k, "eth0", 8192).expect("dpdk nic0");
            let d1 = EthDev::probe(&mut k, "eth1", 8192).expect("dpdk nic1");
            (
                dp.add_port("eth0", PortType::Dpdk(d0)),
                dp.add_port("eth1", PortType::Dpdk(d1)),
            )
        }
    };

    let mut guest = None;
    match cfg.path {
        PathKind::P2p => {
            dp.ofproto.add_rule(port_forward_rule(p0, p1));
        }
        PathKind::Pvp(attach) => {
            let gmac = MacAddr::new(2, 0, 0, 0, 1, 1);
            match attach {
                VmAttach::VhostUser => {
                    let g = k.add_guest(Guest::new(
                        "vm0",
                        gmac,
                        [10, 99, 0, 2],
                        GuestRole::PmdForwarder,
                        VirtioBackend::VhostUser,
                        GUEST_CORE,
                    ));
                    let pv = dp.add_port("vhost0", PortType::VhostUser(VhostUserDev::new(g)));
                    dp.ofproto.add_rule(port_forward_rule(p0, pv));
                    dp.ofproto.add_rule(port_forward_rule(pv, p1));
                    guest = Some((g, pv));
                }
                VmAttach::Tap => {
                    let tap = k.add_device(NetDevice::new("tap0", gmac, DeviceKind::Tap, 1));
                    let g = k.add_guest(Guest::new(
                        "vm0",
                        gmac,
                        [10, 99, 0, 2],
                        GuestRole::PmdForwarder,
                        VirtioBackend::VhostNet { tap_ifindex: tap },
                        GUEST_CORE,
                    ));
                    let pv = dp.add_port("tap0", PortType::Tap { ifindex: tap });
                    dp.ofproto.add_rule(port_forward_rule(p0, pv));
                    dp.ofproto.add_rule(port_forward_rule(pv, p1));
                    guest = Some((g, pv));
                }
            }
        }
        PathKind::Pcp => {
            // DPDK reaches containers over af_packet on the veth.
            let (host_if, _inner, _ns) = k.add_container(
                "c0",
                [10, 88, 0, 2],
                MacAddr::new(6, 0, 0, 0, 1, 1),
                ContainerRole::Echo,
            );
            let pc = dp.add_port("c0", PortType::AfPacket(AfPacketDev::bind(host_if)));
            dp.ofproto.add_rule(port_forward_rule(p0, pc));
            dp.ofproto.add_rule(port_forward_rule(pc, p1));
            guest = Some((usize::MAX, pc));
        }
    }

    // The PMD scheduler owns the polling loop: one PMD thread per NIC
    // queue, each rxq pinned to the hyperthread the hand-rolled loop
    // used (NIC queue q on PMD_BASE+q, the VM/container leg on
    // PMD_BASE), so the per-core accounting is unchanged. The scheduler
    // also charges the Fig 12 umem/tx contention penalty per poll.
    let queues = cfg.queues.max(1);
    let pmd_cores: Vec<usize> = (0..queues).map(|q| PMD_BASE + q).collect();
    let mut pmds = PmdSet::new(&pmd_cores, AssignmentPolicy::RoundRobin);
    for q in 0..queues {
        pmds.add_rxq(p0, q);
        pmds.set_affinity(p0, q, PMD_BASE + q);
    }
    if let Some((_, pv)) = guest {
        pmds.add_rxq(pv, 0);
        pmds.set_affinity(pv, 0, PMD_BASE);
    }
    pmds.rebalance();

    let flows = make_flows(cfg.flows, cfg.frame_len, 42);
    let mut injected = 0usize;
    while injected < cfg.n_pkts {
        // Inject one batch; NIC-side RSS fans each flow out to one of
        // the polled hardware queues.
        let burst = 32.min(cfg.n_pkts - injected);
        for _ in 0..burst {
            let f = &flows[injected % flows.len()];
            k.receive_steered(nic0, f.clone());
            injected += 1;
        }
        pmds.run_round(&mut dp, &mut k);
        if let Some((g, _)) = guest {
            if g != usize::MAX {
                k.run_guest(g);
            }
        }
        if injected.is_multiple_of(2048) {
            k.dev_mut(nic1).tx_wire.clear();
        }
    }
    // Drain the in-flight tail (VM/container round trips lag the
    // injection loop by a round).
    for _ in 0..4 {
        pmds.run_round(&mut dp, &mut k);
        if let Some((g, _)) = guest {
            if g != usize::MAX {
                k.run_guest(g);
            }
        }
    }
    pmds.run_round(&mut dp, &mut k);

    RateMeasurement::from_sim(&k.sim, cfg.n_pkts, cfg.frame_len, cfg.link_gbps)
}

// ----------------------------------------------------------------------
// AF_XDP PCP: the in-kernel XDP redirect fast path (Fig 5 path C)
// ----------------------------------------------------------------------

fn run_afxdp_pcp(cfg: &ScenarioConfig) -> RateMeasurement {
    let mut k = Kernel::new(CPUS);
    k.config.rss_cores = vec![0];
    k.config.host_stack_core = HOST_CORE;

    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        1,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        1,
    ));
    let cip = [10, 88, 0, 2];
    let (host_if, _inner, _ns) = k.add_container(
        "c0",
        cip,
        MacAddr::new(6, 0, 0, 0, 1, 1),
        ContainerRole::Echo,
    );
    // veth drivers support native XDP (the paper's [67]).
    k.dev_mut(host_if).caps.native_xdp = true;

    // NIC -> veth devmap; veth -> NIC1 devmap.
    let mut to_veth = DevMap::new(2);
    to_veth.set(0, host_if).unwrap();
    let to_veth_fd = k.maps.add(Map::Dev(to_veth));
    let mut to_nic = DevMap::new(2);
    to_nic.set(0, nic1).unwrap();
    let to_nic_fd = k.maps.add(Map::Dev(to_nic));
    // Everything non-container still needs an xskmap target; unused here.
    let xsk_fd = k.maps.add(Map::Xsk(ovs_ebpf::maps::XskMap::new(1)));

    k.attach_xdp(
        nic0,
        programs::container_redirect(to_veth_fd, 0, cip, xsk_fd),
        XdpMode::Native,
        None,
    )
    .unwrap();
    k.attach_xdp(
        host_if,
        programs::redirect_all_to_dev(to_nic_fd, 0),
        XdpMode::Native,
        None,
    )
    .unwrap();

    let flows = make_flows_to(cfg.flows, cfg.frame_len, cip);
    for i in 0..cfg.n_pkts {
        let f = &flows[i % flows.len()];
        k.receive(nic0, 0, f.clone());
        if i % 64 == 0 {
            k.dev_mut(nic1).tx_wire.clear();
        }
    }
    RateMeasurement::from_sim(&k.sim, cfg.n_pkts, cfg.frame_len, cfg.link_gbps)
}

/// Flows addressed *to* a given destination IP (PCP traffic must reach
/// the container).
fn make_flows_to(n_flows: usize, frame_len: usize, dst: [u8; 4]) -> Vec<Vec<u8>> {
    let mut rng = ovs_sim::SimRng::new(43);
    (0..n_flows.max(1))
        .map(|i| {
            let (src, sport) = if i == 0 {
                ([10, 0, 0, 1], 1000)
            } else {
                (
                    [
                        10,
                        rng.below(250) as u8 + 1,
                        rng.below(250) as u8,
                        rng.below(250) as u8 + 1,
                    ],
                    1024 + rng.below(50_000) as u16,
                )
            };
            ovs_packet::builder::udp_ipv4_frame(
                flood::GEN_SRC_MAC,
                MacAddr::new(6, 0, 0, 0, 1, 1),
                src,
                dst,
                sport,
                7,
                frame_len,
            )
        })
        .collect()
}

/// Future-work ablation (Outcome #2): preferred busy polling \[64\] runs the
/// kernel-side XSK work inline on the PMD cores. Returns (baseline,
/// busy-poll) measurements: the rate dips slightly (the PMD absorbs the
/// softirq work) but total CPU drops toward DPDK's footprint.
pub fn run_busy_poll_ablation(flows: usize) -> (RateMeasurement, RateMeasurement) {
    let baseline = run(&ScenarioConfig::micro(
        DpKind::Afxdp(OptLevel::O5),
        PathKind::P2p,
        flows,
    ));

    // Re-run with busy polling enabled on every socket.
    let cfg = ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, flows);
    let mut k = Kernel::new(CPUS);
    k.config.rss_cores = (0..8).collect();
    k.config.host_stack_core = HOST_CORE;
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        1,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys {
            link_gbps: cfg.link_gbps,
        },
        1,
    ));
    let mut dp = DpifNetdev::new();
    let mut a0 = AfxdpPort::open(&mut k, nic0, 4096, OptLevel::O5).unwrap();
    let mut a1 = AfxdpPort::open(&mut k, nic1, 4096, OptLevel::O5).unwrap();
    for s in a0.sockets.iter_mut().chain(a1.sockets.iter_mut()) {
        s.enable_busy_poll(PMD_BASE);
    }
    let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
    let p1 = dp.add_port("eth1", PortType::Afxdp(a1));
    dp.ofproto.add_rule(port_forward_rule(p0, p1));

    let mut pmds = PmdSet::new(&[PMD_BASE], AssignmentPolicy::RoundRobin);
    pmds.add_rxq(p0, 0);
    pmds.rebalance();

    let flows_v = make_flows(cfg.flows, cfg.frame_len, 42);
    let mut injected = 0usize;
    while injected < cfg.n_pkts {
        for _ in 0..32.min(cfg.n_pkts - injected) {
            let f = &flows_v[injected % flows_v.len()];
            k.receive(nic0, 0, f.clone());
            injected += 1;
        }
        pmds.run_round(&mut dp, &mut k);
        if injected.is_multiple_of(2048) {
            k.dev_mut(nic1).tx_wire.clear();
        }
    }
    let busy = RateMeasurement::from_sim(&k.sim, cfg.n_pkts, cfg.frame_len, cfg.link_gbps);
    (baseline, busy)
}

// ----------------------------------------------------------------------
// Assignment-policy ablation on a skewed-rxq workload
// ----------------------------------------------------------------------

/// Outcome of one [`run_policy_ablation`] measurement.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// The policy under test.
    pub policy: AssignmentPolicy,
    /// Measured core-ns per PMD over the measurement phase (post
    /// rebalance), index-aligned with the PMD cores.
    pub pmd_busy_ns: Vec<u64>,
    /// Throughput proxy: packets per max-loaded-PMD millisecond. The
    /// round-based scheduler has no idle time, so the busiest core is
    /// the bottleneck a free-running PMD set would converge to.
    pub est_mpps: f64,
    /// Packets forwarded in the measurement phase.
    pub n_pkts: usize,
}

/// The skewed-rxq workload behind the BENCH_scaling policy ablation:
/// 4 NIC queues whose offered load is 4:1:4:1 (queues 0 and 2 carry 4×
/// the traffic of 1 and 3) over **2** PMD threads. `roundrobin` deals
/// queues out in registration order and lands both heavy queues on the
/// same PMD (an 8:2 load split); the load-aware `cycles` and `group`
/// policies use the warm-up phase's per-rxq cycle measurements to split
/// them 5:5, which shows up directly in the max-PMD-load throughput
/// proxy.
pub fn run_policy_ablation(policy: AssignmentPolicy) -> PolicyReport {
    const QUEUES: usize = 4;
    const WEIGHTS: [usize; QUEUES] = [4, 1, 4, 1];

    let mut k = Kernel::new(CPUS);
    k.config.rss_cores = (0..8).collect();
    k.config.host_stack_core = HOST_CORE;
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys { link_gbps: 25.0 },
        QUEUES,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys { link_gbps: 25.0 },
        QUEUES,
    ));
    let mut dp = DpifNetdev::new();
    let a0 = AfxdpPort::open(&mut k, nic0, 4096, OptLevel::O5).expect("afxdp nic0");
    let a1 = AfxdpPort::open(&mut k, nic1, 4096, OptLevel::O5).expect("afxdp nic1");
    let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
    let p1 = dp.add_port("eth1", PortType::Afxdp(a1));
    dp.ofproto.add_rule(port_forward_rule(p0, p1));

    // Two PMDs for four queues — placement decides the load split.
    let mut pmds = PmdSet::new(&[PMD_BASE, PMD_BASE + 1], policy);
    pmds.add_port_rxqs(p0, QUEUES);
    pmds.rebalance();

    // One representative flow per queue, found by walking the RSS hash.
    let candidates = make_flows(256, 64, 7);
    let mut per_queue: Vec<Option<&Vec<u8>>> = vec![None; QUEUES];
    for f in &candidates {
        let q = rss_queue(f, QUEUES);
        if per_queue[q].is_none() {
            per_queue[q] = Some(f);
        }
    }
    let per_queue: Vec<&Vec<u8>> = per_queue
        .into_iter()
        .map(|f| f.expect("rss covers all queues"))
        .collect();

    let inject_round = |k: &mut Kernel| -> usize {
        let mut n = 0;
        for (q, f) in per_queue.iter().enumerate() {
            for _ in 0..8 * WEIGHTS[q] {
                k.receive(nic0, q, (*f).clone());
                n += 1;
            }
        }
        n
    };

    // Warm-up phase: measure per-rxq cycles under the skew, then let the
    // policy re-place the queues with the measurements in hand.
    for _ in 0..32 {
        inject_round(&mut k);
        pmds.run_round(&mut dp, &mut k);
        k.dev_mut(nic1).tx_wire.clear();
    }
    pmds.rebalance();

    // Measurement phase.
    let busy0: Vec<u64> = pmds.pmds().iter().map(|p| p.busy_ns).collect();
    let mut n_pkts = 0usize;
    for _ in 0..64 {
        n_pkts += inject_round(&mut k);
        pmds.run_round(&mut dp, &mut k);
        k.dev_mut(nic1).tx_wire.clear();
    }
    pmds.run_round(&mut dp, &mut k);
    let pmd_busy_ns: Vec<u64> = pmds
        .pmds()
        .iter()
        .zip(&busy0)
        .map(|(p, b0)| p.busy_ns - b0)
        .collect();
    let max_ns = pmd_busy_ns.iter().copied().max().unwrap_or(1).max(1);
    PolicyReport {
        policy,
        est_mpps: n_pkts as f64 * 1e3 / max_ns as f64,
        pmd_busy_ns,
        n_pkts,
    }
}

// ----------------------------------------------------------------------
// Table 2: the optimization ladder (NIC -> OVS userspace receive path)
// ----------------------------------------------------------------------

/// Measure the Table 2 row for one optimization level: a single 64-byte
/// UDP flow forwarded between the physical NIC and OVS userspace.
pub fn run_ladder(opt: OptLevel) -> RateMeasurement {
    run_userspace(
        &ScenarioConfig::micro(DpKind::Afxdp(opt), PathKind::P2p, 1),
        UserIo::Afxdp(opt),
    )
}

// ----------------------------------------------------------------------
// Fig 2: single-core 64B forwarding, kernel vs eBPF(tc) vs DPDK
// ----------------------------------------------------------------------

/// Fig 2 kernel bar: the OVS kernel module on one core.
pub fn run_fig2_kernel() -> RateMeasurement {
    run_kernel(&ScenarioConfig::micro(DpKind::Kernel, PathKind::P2p, 1))
}

/// Fig 2 eBPF bar: the tc-hook eBPF datapath (flow-map lookup + devmap
/// forward) on one core.
pub fn run_fig2_ebpf() -> RateMeasurement {
    let n_pkts = 8_192;
    let mut k = Kernel::new(CPUS);
    k.config.rss_cores = vec![0];
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        NIC1_MAC,
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let flow_fd = k.maps.add(Map::Hash(BpfHashMap::new(16, 8, 1024)));
    let mut dm = DevMap::new(2);
    dm.set(1, nic1).unwrap();
    let dev_fd = k.maps.add(Map::Dev(dm));
    // Install the single benchmark flow: -> devmap slot 1.
    if let Some(Map::Hash(h)) = k.maps.get_mut(flow_fd) {
        let key = programs::dp_flow_key([10, 0, 0, 1], [10, 0, 0, 2], 1000, 2000, 17);
        h.update(&key, &1u64.to_le_bytes()).unwrap();
    }
    k.dev_mut(nic0).tc_bpf = Some(programs::ebpf_datapath(flow_fd, dev_fd));

    let flows = make_flows(1, 64, 42);
    for i in 0..n_pkts {
        k.receive(nic0, 0, flows[0].clone());
        if i % 64 == 0 {
            k.dev_mut(nic1).tx_wire.clear();
        }
    }
    RateMeasurement::from_sim(&k.sim, n_pkts, 64, 10.0)
}

/// Fig 2 DPDK bar: the userspace PMD on one core.
pub fn run_fig2_dpdk() -> RateMeasurement {
    run_userspace(
        &ScenarioConfig {
            link_gbps: 10.0,
            ..ScenarioConfig::micro(DpKind::Dpdk, PathKind::P2p, 1)
        },
        UserIo::Dpdk,
    )
}

// ----------------------------------------------------------------------
// Table 5: single-core XDP processing tasks
// ----------------------------------------------------------------------

/// The Table 5 task ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdpTask {
    /// A: drop without looking.
    Drop,
    /// B: parse Ethernet/IPv4, then drop.
    ParseDrop,
    /// C: parse + L2 hash-map lookup, then drop.
    ParseLookupDrop,
    /// D: parse, swap MACs, transmit back out.
    SwapFwd,
}

/// Run one Table 5 task at 10 GbE line-rate input on a single core.
pub fn run_xdp_task(task: XdpTask) -> RateMeasurement {
    let n_pkts = 8_192;
    let mut k = Kernel::new(4);
    k.config.rss_cores = vec![0];
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        NIC0_MAC,
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let l2_fd = k.maps.add(Map::Hash(BpfHashMap::new(8, 8, 1024)));
    if let Some(Map::Hash(h)) = k.maps.get_mut(l2_fd) {
        h.update(&programs::l2_key(NIC0_MAC.0), &1u64.to_le_bytes())
            .unwrap();
    }
    let prog = match task {
        XdpTask::Drop => programs::task_a_drop(),
        XdpTask::ParseDrop => programs::task_b_parse_drop(),
        XdpTask::ParseLookupDrop => programs::task_c_parse_lookup_drop(l2_fd),
        XdpTask::SwapFwd => programs::task_d_swap_fwd(),
    };
    k.attach_xdp(nic0, prog, XdpMode::Native, None).unwrap();

    let flows = make_flows(1, 64, 42);
    for i in 0..n_pkts {
        k.receive(nic0, 0, flows[0].clone());
        if i % 64 == 0 {
            k.dev_mut(nic0).tx_wire.clear();
        }
    }
    RateMeasurement::from_sim(&k.sim, n_pkts, 64, 10.0)
}

// ----------------------------------------------------------------------
// Flow-churn soak (revalidator)
// ----------------------------------------------------------------------

/// Outcome of a [`run_churn`] soak.
#[derive(Debug)]
pub struct ChurnReport {
    /// Distinct 5-tuples offered.
    pub flows_offered: usize,
    /// Largest megaflow table observed at any point.
    pub peak_flows: usize,
    /// The configured flow-limit ceiling.
    pub flow_limit: usize,
    /// Upcalls that forwarded without installing (table at the limit).
    pub limit_hits: u64,
    /// Flows reaped by idle expiry across all sweeps.
    pub deleted_idle: u64,
    /// Flows evicted over the limit across all sweeps.
    pub evicted: u64,
    /// Revalidator sweeps run.
    pub sweeps: u64,
    /// Megaflows left after the final drain sweep.
    pub final_flows: usize,
    /// Legitimate VM-to-VM frames that left the uplink during the churn.
    pub legit_forwarded: usize,
}

/// Flow-churn soak: `n_flows` distinct flows sent by a VM cross the
/// full NSX pipeline. Each flow carries a fresh destination MAC — the
/// field the NSX forwarding table matches on — so every flow wants its
/// own megaflow: the Tuple-Space-Explosion shape (Csikor et al.,
/// attacker varies exactly the fields the classifier consults). The
/// revalidator's flow limit must bound the table throughout, legitimate
/// traffic interleaved with the churn must keep flowing, and the final
/// sweep after the churn stops must drain the table.
pub fn run_churn(n_flows: usize, flow_limit: usize) -> ChurnReport {
    let cfg = HostConfig::nsx_small(1, NSX_AFXDP, VmAttachment::VhostUser);
    let mut h = Host::build(&cfg);
    h.peer([172, 16, 0, 2], MacAddr::new(2, 0, 0, 0, 0, 0xEE));
    {
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.revalidator.cfg.flow_limit_max = flow_limit;
        dp.revalidator.flow_limit = flow_limit;
    }

    let g = h.guest_of_vif[0];
    let mut peak = 0usize;
    const BATCH: usize = 64;
    // One revalidator round roughly every 300 ms of virtual time.
    const SWEEP_EVERY_BATCHES: usize = 32;

    let mut offered = 0usize;
    let mut batch_no = 0usize;
    let mut legit_out = 0usize;
    while offered < n_flows {
        let burst = BATCH.min(n_flows - offered);
        for i in 0..burst {
            // The first frame of every batch is legitimate VM-to-VM
            // traffic; the rest walk fresh destination MACs.
            let dst = if i == 0 {
                nsx_ruleset::vm_mac(2, 0, 0)
            } else {
                MacAddr::new(
                    0x0e,
                    0x99,
                    (offered >> 24) as u8,
                    (offered >> 16) as u8,
                    (offered >> 8) as u8,
                    offered as u8,
                )
            };
            let f = ovs_packet::builder::udp_ipv4_frame(
                nsx_ruleset::vm_mac(1, 0, 0),
                dst,
                nsx_ruleset::vm_ip(1, 0, 0),
                nsx_ruleset::vm_ip(2, 0, 0),
                5000,
                4444,
                64,
            );
            h.kernel.guests[g].tx_ring.push_back(f);
            offered += 1;
        }
        h.pump();
        // Legitimate traffic keeps crossing the overlay while the churn
        // hammers the flow table: every batch's VM-to-VM frame leaves
        // the uplink Geneve-encapsulated.
        legit_out += h.wire_take().len();
        h.kernel.sim.clock.advance(10_000_000); // 10 ms per batch
        batch_no += 1;

        {
            let dp = h.dp.as_ref().expect("userspace datapath");
            peak = peak.max(dp.megaflow_count());
            assert!(
                dp.megaflow_count() <= flow_limit,
                "megaflow table {} exploded past the flow limit {}",
                dp.megaflow_count(),
                flow_limit
            );
        }
        if batch_no.is_multiple_of(SWEEP_EVERY_BATCHES) {
            // Sweep through the scheduler so dead-flagged megaflows are
            // purged from the PMD-private caches too.
            h.revalidate();
        }
    }

    // Churn over: everything idles out and the table drains.
    h.kernel.sim.clock.advance(11_000_000_000);
    h.revalidate();
    let dp = h.dp.as_ref().expect("userspace datapath");
    ChurnReport {
        flows_offered: offered,
        peak_flows: peak,
        flow_limit,
        limit_hits: dp.stats.flow_limit_hits,
        deleted_idle: dp.revalidator.stats.deleted_idle,
        evicted: dp.revalidator.stats.evicted,
        sweeps: dp.revalidator.stats.sweeps,
        final_flows: dp.megaflow_count(),
        legit_forwarded: legit_out,
    }
}

// ----------------------------------------------------------------------
// Batched fast path ablation (batched vs batched+SMC, by burst size)
// ----------------------------------------------------------------------

/// How the datapath receive path is driven in [`run_fastpath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastpathMode {
    /// Whole bursts through `process_burst` — per-megaflow batches
    /// amortize the fixed cost.
    Batched,
    /// Batched with the signature match cache tier enabled.
    BatchedSmc,
}

impl FastpathMode {
    pub fn label(self) -> &'static str {
        match self {
            FastpathMode::Batched => "batched",
            FastpathMode::BatchedSmc => "batched_smc",
        }
    }
}

/// Outcome of one [`run_fastpath`] measurement.
#[derive(Debug)]
pub struct FastpathReport {
    pub mode: &'static str,
    pub burst: usize,
    pub n_flows: usize,
    pub n_pkts: usize,
    /// Switch-core busy time per packet over the measured window.
    pub ns_per_pkt: f64,
    pub mpps: f64,
    pub emc_hits: u64,
    pub smc_hits: u64,
    pub megaflow_hits: u64,
    pub upcalls: u64,
    /// Wide-lane bulk dpcls steps (lane-wide signature compares) during
    /// the window — the headline classifier work metric now that probes
    /// are batched.
    pub lane_steps: u64,
    /// Keys carried by those steps; `lane_keys / (lane_steps × width)`
    /// is the lane occupancy.
    pub lane_keys: u64,
    /// Configured bulk-probe lane width.
    pub lane_width: usize,
    /// Full `FlowKey` expansions during the window — zero when every
    /// packet was served from the caches (the sparse-key fast path
    /// never materializes a full key on a hit).
    pub miniflow_expands: u64,
}

impl FastpathReport {
    /// Fraction of bulk-probe lane slots actually filled (0 when no
    /// bulk probes ran, e.g. every EMC miss served by the SMC).
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_steps == 0 {
            return 0.0;
        }
        self.lane_keys as f64 / (self.lane_steps as f64 * self.lane_width as f64)
    }
}

/// Fast-path ablation: `n_pkts` VM frames cross the full NSX pipeline
/// (DFW conntrack ×2 recirculations, then Geneve encap to the AF_XDP
/// uplink) in bursts of `burst`, with `n_flows` distinct 5-tuples
/// arranged in short runs so bursts share megaflows — the flow locality
/// per-megaflow batching exploits. The flow set exceeds the EMC
/// pressure threshold and EMC insertion keeps its default 1/100
/// probability, so the plain-batched path leans on dpcls while
/// `BatchedSmc` serves the same misses from the SMC.
pub fn run_fastpath(
    mode: FastpathMode,
    burst: usize,
    n_flows: usize,
    n_pkts: usize,
) -> FastpathReport {
    use ovs_packet::DpPacket;

    let cfg = HostConfig::nsx_small(1, NSX_AFXDP, VmAttachment::VhostUser);
    let mut h = Host::build(&cfg);
    h.peer([172, 16, 0, 2], MacAddr::new(2, 0, 0, 0, 0, 0xEE));
    let core = h.switch_core;
    let vif = h.ports.vifs[0];
    {
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.smc_enable = mode == FastpathMode::BatchedSmc;
    }

    let frame = |flow: usize| {
        ovs_packet::builder::udp_ipv4_frame(
            nsx_ruleset::vm_mac(1, 0, 0),
            nsx_ruleset::vm_mac(2, 0, 0),
            nsx_ruleset::vm_ip(1, 0, 0),
            nsx_ruleset::vm_ip(2, 0, 0),
            (5000 + (flow % 50_000)) as u16,
            4444,
            64,
        )
    };
    // Packets arrive in runs of RUN_LEN per flow, so a 32-packet burst
    // spans 8 flows — per-megaflow batches of ~4.
    const RUN_LEN: usize = 4;
    let flow_of = |seq: usize| (seq / RUN_LEN) % n_flows;

    // Warm-up: every flow upcalls once, installing its megaflows (and,
    // in SMC mode, its SMC entries) for all recirculation passes.
    for f in 0..n_flows {
        let mut p = DpPacket::from_data(&frame(f));
        p.in_port = vif;
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.process_packet(&mut h.kernel, p, core);
    }
    let _ = h.wire_take();

    // Measured window.
    let (t0, s0, steps0, keys0, expands0) = {
        let dp = h.dp.as_ref().expect("userspace datapath");
        (
            h.kernel.sim.cpus.core(core).total_ns(),
            dp.stats,
            dp.lane_steps(),
            dp.lane_keys(),
            dp.miniflow_stats.expands,
        )
    };
    let mut sent = 0usize;
    while sent < n_pkts {
        let n = burst.min(n_pkts - sent);
        let mut chunk: Vec<DpPacket> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut p = DpPacket::from_data(&frame(flow_of(sent)));
            p.in_port = vif;
            chunk.push(p);
            sent += 1;
        }
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.process_burst(&mut h.kernel, chunk, core);
        // Keep the uplink ring drained so tx never stalls the window.
        let _ = h.wire_take();
    }
    let dp = h.dp.as_ref().expect("userspace datapath");
    let dt = h.kernel.sim.cpus.core(core).total_ns() - t0;
    let s1 = dp.stats;
    let ns_per_pkt = dt / n_pkts as f64;
    FastpathReport {
        mode: mode.label(),
        burst,
        n_flows,
        n_pkts,
        ns_per_pkt,
        mpps: if ns_per_pkt > 0.0 {
            1e3 / ns_per_pkt
        } else {
            0.0
        },
        emc_hits: s1.emc_hits - s0.emc_hits,
        smc_hits: s1.smc_hits - s0.smc_hits,
        megaflow_hits: s1.megaflow_hits - s0.megaflow_hits,
        upcalls: s1.upcalls - s0.upcalls,
        lane_steps: dp.lane_steps() - steps0,
        lane_keys: dp.lane_keys() - keys0,
        lane_width: dp.lane_width(),
        miniflow_expands: dp.miniflow_stats.expands - expands0,
    }
}

// ----------------------------------------------------------------------
// Fault-injection soak (robustness)
// ----------------------------------------------------------------------

/// The drop counters that may legitimately absorb packets during a fault
/// soak. Anything offered and neither delivered nor counted by one of
/// these is *unaccounted* — a silent loss, which the soak treats as a
/// failure.
pub const DROP_COUNTERS: [&str; 14] = [
    "xsk_tx_ring_full",
    "xsk_close_flushed",
    "xsk_rx_dropped",
    "netdev_rx_carrier_down",
    "netdev_tx_carrier_down",
    "vhost_tx_disconnected",
    "vhost_ring_flushed",
    "upcall_queue_full",
    "upcalls_gated",
    "fail_secure_drop",
    "nf_ring_full",
    "nf_verdict_drop",
    "nf_crash_drop",
    "nf_fail_closed",
];

/// Frames in the forwarding probe a soak sends once its schedule clears.
const PROBE: u64 = 32;

/// The forwarding probe closing the two-host soaks: [`PROBE`] frames from
/// VM0 on host 1, shuttled until quiet (at most 64 rounds of
/// `round_ns`). Returns the probe frames host 2's sink VM consumed.
fn probe_forwarding(pair: &mut HostPair, round_ns: u64) -> u64 {
    let (sender, sink) = (pair.h1.guest_of_vif[0], pair.h2.guest_of_vif[0]);
    let before = pair.h2.kernel.guests[sink].rx_count;
    for _ in 0..PROBE {
        pair.h1.kernel.guests[sender]
            .tx_ring
            .push_back(vm_udp_frame(1, 2));
    }
    for _ in 0..64 {
        let moved = pair.shuttle();
        pair.advance(round_ns);
        if moved == 0 {
            break;
        }
    }
    pair.h2.kernel.guests[sink].rx_count - before
}

/// Every [`DROP_COUNTERS`] value, in order, and their sum.
pub fn counted_drops() -> (Vec<(&'static str, u64)>, u64) {
    let by_counter: Vec<(&'static str, u64)> = DROP_COUNTERS
        .iter()
        .map(|&n| (n, ovs_obs::coverage::total(n)))
        .collect();
    let total = by_counter.iter().map(|(_, v)| v).sum();
    (by_counter, total)
}

/// Outcome of a [`run_faults`] soak.
#[derive(Debug)]
pub struct FaultsReport {
    /// The schedule seed (same seed ⇒ byte-identical report).
    pub seed: u64,
    /// Frames offered by the sending VM (soak traffic + final probe).
    pub frames_offered: u64,
    /// Frames the remote sink VM consumed.
    pub delivered: u64,
    /// Frames absorbed by [`DROP_COUNTERS`].
    pub counted_drops: u64,
    /// `offered - delivered - counted_drops`; must be zero.
    pub unaccounted: i64,
    /// Datapath panics caught by the supervisor.
    pub crashes: u64,
    /// Supervised restarts completed.
    pub restarts: u64,
    /// Mean crash-to-recovery latency in virtual milliseconds.
    pub mean_recovery_ms: f64,
    /// vhostuser reconnect edges observed.
    pub vhost_reconnects: u64,
    /// Whether the sender's uplink ran on the copy-mode rung at any
    /// point (it crashed while XDP native attach was rejected). The
    /// later *planned* restart re-attaches natively once the attach
    /// fault clears, so the soak may still end zero-copy.
    pub degraded_mode: bool,
    /// Switch-core cost per forwarded frame before the crash (zero-copy).
    pub native_ns_per_pkt: f64,
    /// Switch-core cost per forwarded frame after the degraded restart.
    pub degraded_ns_per_pkt: f64,
    /// Fault injections by class, both hosts summed, `FaultKind::ALL` order.
    pub per_class: Vec<(&'static str, u64)>,
    /// Every [`DROP_COUNTERS`] value at the end of the soak.
    pub drops_by_counter: Vec<(&'static str, u64)>,
    /// Probe frames sent after the all-clear.
    pub probe_sent: u64,
    /// Probe frames the sink consumed (all of them ⇒ forwarding resumed).
    pub probe_delivered: u64,
    /// Did forwarding fully resume after the last fault cleared?
    pub forwarding_resumed: bool,
    /// Planned (hitless) daemon restarts completed via snapshot/restore.
    pub graceful_restarts: u64,
    /// Controller reconnects after the scheduled outage.
    pub controller_reconnects: u64,
}

/// Fault-injection soak over the two-host NSX deployment (§6): VM0 on
/// host 1 streams one-way UDP to a sink VM on host 2 while a seeded
/// schedule injects every fault class the robustness harness knows —
/// a datapath panic under supervision, an XDP native-attach rejection
/// spanning the restart (so the rebuilt port degrades to copy mode), a
/// lost tx kick on the sender's uplink, a vhostuser disconnect/reconnect
/// on the receiving VIF, umem exhaustion on the receiver's uplink, a
/// carrier flap on the wire, a planned daemon restart (hitless:
/// snapshot, rebuild, flow-restore-wait), and a controller outage ridden
/// in `secure` fail mode. The invariant under test: every offered frame
/// is either delivered or counted by a specific drop counter — faults
/// may lose packets, but never silently — and forwarding resumes once
/// the schedule clears.
pub fn run_faults(seed: u64) -> FaultsReport {
    use ovs_sim::{FaultKind, FaultPlan, SimRng};

    ovs_obs::coverage::reset();
    let mut pair = sink_pair();

    // Supervise the sender's datapath: 2 ms initial backoff so the
    // restart lands well inside the soak horizon. The sender also holds
    // a controller session in `secure` fail mode for the scheduled
    // controller outage.
    pair.h1.enable_supervision(2_000_000, 8);
    pair.h1.connect_controller(ovs_core::FailMode::Secure);

    // --- The seeded schedule: six classes across the two hosts. -------
    const HORIZON_NS: u64 = 20_000_000; // 20 ms of virtual time
    const ROUND_NS: u64 = 100_000; // 100 µs per soak round
    let mut rng = SimRng::new(seed);
    let mut jitter = |base_ns: u64| base_ns + rng.below(500_000);
    let panic_at = jitter(4_000_000);
    let h1_plan = FaultPlan::new(seed)
        // Native attach rejected from just before the crash until well
        // after the restart: the rebuilt uplink comes up in copy mode.
        .event(
            panic_at - 200_000,
            FaultKind::XdpAttachFail,
            pair.h1.uplink_if,
            1,
            6_000_000,
        )
        .event(panic_at, FaultKind::DatapathPanic, 0, 0, 0)
        .event(
            jitter(10_000_000),
            FaultKind::RxRingStall,
            pair.h1.uplink_if,
            0,
            jitter(1_500_000),
        );
    let sink_guest = pair.h2.guest_of_vif[0];
    let h2_plan = FaultPlan::new(seed)
        .event(
            jitter(8_000_000),
            FaultKind::VhostDisconnect,
            sink_guest as u32,
            0,
            jitter(1_500_000),
        )
        .event(
            jitter(12_500_000),
            FaultKind::UmemExhaust,
            pair.h2.uplink_if,
            0,
            jitter(1_500_000),
        )
        .event(
            jitter(15_500_000),
            FaultKind::CarrierFlap,
            pair.h2.uplink_if,
            0,
            jitter(1_200_000),
        );
    // The two control-plane classes land after the crash has recovered:
    // a planned daemon restart (snapshot + flow-restore-wait) and a
    // controller outage window near the end of the horizon.
    let h1_plan = h1_plan
        .event(jitter(13_000_000), FaultKind::DaemonRestart, 0, 0, 0)
        .event(
            jitter(16_500_000),
            FaultKind::ControllerDisconnect,
            0,
            0,
            jitter(1_200_000),
        )
        // The NSX pair runs no NF manager, so this window expires
        // unconsumed — it keeps the soak covering every fault class;
        // live-NF consumption is `run_chains`'s job.
        .event(
            jitter(9_000_000),
            FaultKind::NfPanic,
            0,
            0,
            jitter(1_000_000),
        );
    pair.h1.kernel.sim.faults.arm(h1_plan);
    pair.h2.kernel.sim.faults.arm(h2_plan);

    let sender = pair.h1.guest_of_vif[0];
    let core = pair.h1.switch_core;

    // --- The soak: 4 frames per 100 µs round across the horizon. ------
    // Per-frame switch cost is measured over *warm* rounds only (caches
    // populated), both before the crash and after the degraded restart,
    // so the delta isolates the copy-mode penalty from cold-start upcalls.
    const WARMUP_ROUNDS: u32 = 10;
    let mut offered = 0u64;
    let mut native = (0.0f64, 0u64); // (core ns, frames out) pre-crash, warm
    let mut degraded = (0.0f64, 0u64); // post-restart, warm, copy mode
    let mut degraded_seen = false;
    let mut rounds_up = 0u32; // rounds since the current datapath came up
    let mut last_busy = pair.h1.kernel.sim.cpus.core(core).total_ns();
    let rounds = (HORIZON_NS / ROUND_NS) as usize;
    for _ in 0..rounds {
        for _ in 0..4 {
            pair.h1.kernel.guests[sender]
                .tx_ring
                .push_back(vm_udp_frame(1, 2));
            offered += 1;
        }
        let wired = pair.wired_1to2();
        pair.shuttle();
        let wire1 = pair.wired_1to2() - wired;
        let h1 = &pair.h1;
        let busy = h1.kernel.sim.cpus.core(core).total_ns();
        let crashed = h1
            .health
            .as_ref()
            .map(|h| !h.crashes.is_empty())
            .unwrap_or(false);
        let restarted = h1.health.as_ref().map(|h| h.restarts > 0).unwrap_or(false);
        let uplink_degraded = h1
            .dp
            .as_ref()
            .and_then(|dp| dp.port(h1.ports.uplink))
            .map(|p| match &p.ty {
                PortType::Afxdp(a) => a.degraded,
                _ => false,
            })
            .unwrap_or(false);
        degraded_seen |= uplink_degraded;
        if h1.dp.is_none() {
            rounds_up = 0;
        } else {
            rounds_up += 1;
        }
        if rounds_up > WARMUP_ROUNDS {
            if !crashed {
                native.0 += busy - last_busy;
                native.1 += wire1;
            } else if restarted && uplink_degraded {
                degraded.0 += busy - last_busy;
                degraded.1 += wire1;
            }
        }
        last_busy = busy;
        pair.advance(ROUND_NS);
    }

    // --- Drain: run past the horizon until both schedules are clear and
    // the pipes are empty (pending guest tx counts as movement, so quiet
    // means nothing is parked anywhere).
    for _ in 0..256 {
        let moved = pair.shuttle();
        pair.advance(ROUND_NS);
        if moved == 0
            && pair.h1.kernel.sim.faults.all_clear()
            && pair.h2.kernel.sim.faults.all_clear()
        {
            break;
        }
    }

    // --- Forwarding probe after the all-clear. -------------------------
    let probe_delivered = probe_forwarding(&mut pair, ROUND_NS);
    offered += PROBE;

    // --- The balance sheet. -------------------------------------------
    let (h1, h2) = (&pair.h1, &pair.h2);
    let delivered = h2.kernel.guests[sink_guest].rx_count;
    let (drops_by_counter, counted_drops) = counted_drops();
    let health = h1.health.as_ref().expect("supervised");
    let per_class: Vec<(&'static str, u64)> = FaultKind::ALL
        .iter()
        .map(|k| {
            (
                k.label(),
                h1.kernel.sim.faults.injected(*k) + h2.kernel.sim.faults.injected(*k),
            )
        })
        .collect();
    let degraded_mode = degraded_seen;
    let per_pkt = |(ns, frames): (f64, u64)| if frames > 0 { ns / frames as f64 } else { 0.0 };
    FaultsReport {
        seed,
        frames_offered: offered,
        delivered,
        counted_drops,
        unaccounted: offered as i64 - delivered as i64 - counted_drops as i64,
        crashes: health.crashes.len() as u64,
        restarts: health.restarts,
        mean_recovery_ms: health.mean_recovery_ns().unwrap_or(0) as f64 / 1e6,
        vhost_reconnects: ovs_obs::coverage::total("vhost_reconnect"),
        degraded_mode,
        native_ns_per_pkt: per_pkt(native),
        degraded_ns_per_pkt: per_pkt(degraded),
        per_class,
        drops_by_counter,
        probe_sent: PROBE,
        probe_delivered,
        forwarding_resumed: probe_delivered == PROBE,
        graceful_restarts: health.graceful_restarts,
        controller_reconnects: h1.controller.as_ref().map(|c| c.reconnects).unwrap_or(0),
    }
}

// ----------------------------------------------------------------------
// Hitless-restart soak (flow-restore-wait)
// ----------------------------------------------------------------------

/// Outcome of a [`run_restart`] soak.
#[derive(Debug)]
pub struct RestartReport {
    /// The schedule seed (same seed ⇒ byte-identical report).
    pub seed: u64,
    /// Soak round the planned restart fired in (`None` = control run).
    pub restart_round: Option<usize>,
    /// Frames offered by the sending VM (soak traffic + final probe).
    pub frames_offered: u64,
    /// Frames the remote sink VM consumed.
    pub delivered: u64,
    /// Frames absorbed by [`DROP_COUNTERS`].
    pub counted_drops: u64,
    /// `offered - delivered - counted_drops`; must be zero.
    pub unaccounted: i64,
    /// Planned restarts completed via snapshot/restore.
    pub graceful_restarts: u64,
    /// Crash-path restarts (must stay zero: the restart was planned).
    pub crash_restarts: u64,
    /// Megaflows carried across the restart in the snapshot.
    pub restored_flows: u64,
    /// Conntrack entries carried across the restart.
    pub restored_conns: u64,
    /// Misses dropped by the `flow-restore-wait` gate.
    pub gated_upcalls: u64,
    /// Packets forwarded *from restored megaflows* while upcalls were
    /// gated — the hitless-restart payoff; must be positive.
    pub gated_forwarded: u64,
    /// Restored flows re-adopted by reconciliation (translation still
    /// agrees; stats pushback resumed).
    pub adopted: u64,
    /// Restored flows orphaned (no live rule produces them) and deleted.
    pub orphaned: u64,
    /// Fault injection → gate lifted and every restored flow reconciled,
    /// in virtual milliseconds.
    pub reconvergence_ms: f64,
    /// Probe frames sent after the drain.
    pub probe_sent: u64,
    /// Probe frames the sink consumed.
    pub probe_delivered: u64,
    /// Did forwarding fully resume?
    pub forwarding_resumed: bool,
}

/// Restart soak over the two-host NSX deployment: VM0 on host 1 streams
/// one-way UDP to a sink on host 2; at `restart_round` a planned
/// `daemon-restart` fault fires, and the supervisor snapshots the
/// datapath (megaflows + ukeys + conntrack), tears it down, rebuilds it
/// from the blueprint, and restores the snapshot under
/// `flow-restore-wait`. While the gate holds, traffic keeps forwarding
/// from the restored megaflows with upcalls dropped into a named
/// counter; once it lifts, the revalidator reconciles every restored
/// flow against the rebuilt rule table. Invariants: the PR 4 ledger
/// (`offered == delivered + Σ drops`) holds through the restart window,
/// packets were forwarded from restored flows while gated, and nothing
/// takes the crash path.
///
/// `restart_round: None` runs the identical schedule with no restart —
/// the control run the parity test compares against.
pub fn run_restart_at(seed: u64, restart_round: Option<usize>) -> RestartReport {
    use ovs_sim::FaultKind;

    ovs_obs::coverage::reset();
    let mut pair = sink_pair();

    // Supervised with a tight restart policy: 0.5 ms rebuild window,
    // 2 ms flow-restore-wait gate, so reconvergence completes well
    // inside the soak horizon.
    pair.h1.enable_supervision(2_000_000, 8);
    pair.h1
        .health
        .as_mut()
        .unwrap()
        .set_restart_policy(500_000, 2_000_000);

    const HORIZON_NS: u64 = 20_000_000;
    const ROUND_NS: u64 = 100_000;
    let rounds = (HORIZON_NS / ROUND_NS) as usize;
    let sender = pair.h1.guest_of_vif[0];
    let sink_guest = pair.h2.guest_of_vif[0];
    // Reconvergence: gate lifted and no restored flow left pending.
    let reconverged = |h: &Host| {
        h.dp.as_ref().is_some_and(|dp| {
            !dp.restore.wait && dp.restore.restored_at_ns > 0 && dp.restored_count() == 0
        })
    };

    let mut offered = 0u64;
    let mut restart_at_ns: Option<u64> = None;
    let mut reconverged_ns: Option<u64> = None;
    for round in 0..rounds {
        if Some(round) == restart_round {
            pair.h1
                .kernel
                .inject_fault(FaultKind::DaemonRestart, 0, 0, 0);
            restart_at_ns = Some(pair.h1.kernel.sim.clock.now_ns());
        }
        for _ in 0..4 {
            pair.h1.kernel.guests[sender]
                .tx_ring
                .push_back(vm_udp_frame(1, 2));
            offered += 1;
        }
        pair.shuttle();
        // The revalidator rides its usual cadence: every 10 rounds
        // (1 ms), pushing stats, sweeping lifecycle, and — after a
        // restore — reconciling restored flows against the rule table.
        if round.is_multiple_of(10) {
            pair.h1.revalidate();
        }
        if reconverged_ns.is_none() && restart_at_ns.is_some() && reconverged(&pair.h1) {
            reconverged_ns = Some(pair.h1.kernel.sim.clock.now_ns());
        }
        pair.advance(ROUND_NS);
    }

    // Drain until quiet, still sweeping the revalidator.
    for i in 0..256u32 {
        let moved = pair.shuttle();
        if i.is_multiple_of(10) {
            pair.h1.revalidate();
        }
        if reconverged_ns.is_none() && restart_at_ns.is_some() && reconverged(&pair.h1) {
            reconverged_ns = Some(pair.h1.kernel.sim.clock.now_ns());
        }
        pair.advance(ROUND_NS);
        if moved == 0
            && pair.h1.kernel.sim.faults.all_clear()
            && (reconverged_ns.is_some() || restart_at_ns.is_none())
        {
            break;
        }
    }

    let probe_delivered = probe_forwarding(&mut pair, ROUND_NS);
    offered += PROBE;

    let delivered = pair.h2.kernel.guests[sink_guest].rx_count;
    let (_, counted_drops) = counted_drops();
    let health = pair.h1.health.as_ref().expect("supervised");
    let dp = pair.h1.dp.as_ref().expect("datapath back up");
    let grec = health.graceful.last();
    RestartReport {
        seed,
        restart_round,
        frames_offered: offered,
        delivered,
        counted_drops,
        unaccounted: offered as i64 - delivered as i64 - counted_drops as i64,
        graceful_restarts: health.graceful_restarts,
        crash_restarts: health.restarts,
        restored_flows: grec.map(|g| g.snapshot_flows).unwrap_or(0),
        restored_conns: grec.map(|g| g.snapshot_conns).unwrap_or(0),
        gated_upcalls: dp.stats.upcalls_gated,
        gated_forwarded: dp.restore.gated_forwarded,
        adopted: dp.stats.restore_adopted,
        orphaned: dp.stats.restore_orphaned,
        reconvergence_ms: match (restart_at_ns, reconverged_ns) {
            (Some(t0), Some(t1)) => (t1 - t0) as f64 / 1e6,
            _ => 0.0,
        },
        probe_sent: PROBE,
        probe_delivered,
        forwarding_resumed: probe_delivered == PROBE,
    }
}

/// [`run_restart_at`] with the planned restart a third of the way into
/// the soak (warm caches, live conntrack).
pub fn run_restart(seed: u64) -> RestartReport {
    let rounds = (20_000_000u64 / 100_000) as usize;
    run_restart_at(seed, Some(rounds / 3))
}

// ----------------------------------------------------------------------
// Controller-outage goodput (fail-mode ladder under TSE flood)
// ----------------------------------------------------------------------

/// Outcome of a [`run_outage`] run.
#[derive(Debug)]
pub struct OutageReport {
    /// `"secure"` or `"standalone"`.
    pub fail_mode: &'static str,
    /// Legitimate frames offered during the outage window.
    pub legit_offered: u64,
    /// Legitimate frames the sink consumed during the outage window.
    pub legit_delivered: u64,
    /// TSE flood frames offered during the outage window (each a
    /// distinct destination MAC: one would-be megaflow per frame).
    pub flood_offered: u64,
    /// Switch-core busy time over the outage window, virtual ns.
    pub outage_core_ns: f64,
    /// Legit frames delivered per switch-core-second during the outage —
    /// the number the fail-mode ladder is judged on.
    pub goodput_per_core_sec: f64,
    /// Misses dropped by the secure gate during the outage.
    pub fail_secure_drops: u64,
    /// Datapath megaflows at the end of the window (standalone shows the
    /// tuple-space explosion; secure stays flat).
    pub megaflows_after: u64,
    /// Controller reconnects after the window cleared.
    pub reconnects: u64,
    /// Did forwarding fully resume under controller policy afterwards?
    pub forwarding_resumed: bool,
}

/// Controller-outage goodput run: VM0 on host 1 streams legitimate UDP
/// to the sink on host 2 while the controller session is down and a
/// tuple-space-explosion flood (every frame a fresh destination MAC)
/// arrives from a second local VM. In `standalone` the fallback L2
/// tables answer every flood miss with a translate-and-install — the
/// classic TSE feast — while `secure` drops each miss at the gate for
/// the cost of a cache lookup. Goodput is legit frames delivered per
/// switch-core-second over the outage window; the robustness acceptance
/// bar is secure ≥ 2× standalone.
pub fn run_outage(fail_mode: ovs_core::FailMode) -> OutageReport {
    use ovs_sim::FaultKind;

    ovs_obs::coverage::reset();
    let mut pair = sink_pair();
    pair.h1.connect_controller(fail_mode);

    const ROUND_NS: u64 = 100_000;
    let sender = pair.h1.guest_of_vif[0];
    let flooder = pair.h1.guest_of_vif[1];
    let sink_guest = pair.h2.guest_of_vif[0];
    // TSE flood: every frame a fresh destination MAC, so each one is a
    // distinct tuple the fallback tables would install a megaflow for.
    let flood = |n: u64| {
        ovs_packet::builder::udp_ipv4_frame(
            nsx_ruleset::vm_mac(1, 0, 1),
            MacAddr::new(
                0xde,
                0xad,
                (n >> 24) as u8,
                (n >> 16) as u8,
                (n >> 8) as u8,
                n as u8,
            ),
            nsx_ruleset::vm_ip(1, 0, 1),
            [198, 51, 100, 7],
            5555,
            6666,
            200,
        )
    };

    // Warm-up under controller policy: caches hot, connection committed.
    for _ in 0..20 {
        for _ in 0..4 {
            pair.h1.kernel.guests[sender]
                .tx_ring
                .push_back(vm_udp_frame(1, 2));
        }
        pair.shuttle();
        pair.advance(ROUND_NS);
    }

    // The outage window: 8 ms of controller silence under flood.
    const OUTAGE_NS: u64 = 8_000_000;
    let outage_rounds = (OUTAGE_NS / ROUND_NS) as usize;
    pair.h1
        .kernel
        .inject_fault(FaultKind::ControllerDisconnect, 0, 0, OUTAGE_NS);
    let core = pair.h1.switch_core;
    let busy0 = pair.h1.kernel.sim.cpus.core(core).total_ns();
    let sink0 = pair.h2.kernel.guests[sink_guest].rx_count;
    let mut legit_offered = 0u64;
    let mut flood_offered = 0u64;
    for _ in 0..outage_rounds {
        for _ in 0..4 {
            pair.h1.kernel.guests[sender]
                .tx_ring
                .push_back(vm_udp_frame(1, 2));
            legit_offered += 1;
        }
        for _ in 0..16 {
            pair.h1.kernel.guests[flooder]
                .tx_ring
                .push_back(flood(flood_offered));
            flood_offered += 1;
        }
        pair.shuttle();
        pair.advance(ROUND_NS);
    }
    let outage_core_ns = pair.h1.kernel.sim.cpus.core(core).total_ns() - busy0;
    let legit_delivered = pair.h2.kernel.guests[sink_guest].rx_count - sink0;
    let megaflows_after = pair
        .h1
        .dp
        .as_ref()
        .map(|dp| dp.stats.flows_installed - dp.stats.flows_deleted)
        .unwrap_or(0);

    // Clear the window, reconnect, drain.
    for _ in 0..256 {
        let moved = pair.shuttle();
        pair.advance(ROUND_NS);
        let h1 = &pair.h1;
        let reconnected = h1
            .controller
            .as_ref()
            .map(|c| c.is_connected())
            .unwrap_or(true);
        if moved == 0 && h1.kernel.sim.faults.all_clear() && reconnected {
            break;
        }
    }

    // Forwarding probe under restored controller policy.
    let probe_delivered = probe_forwarding(&mut pair, ROUND_NS);
    let h1 = &pair.h1;

    let goodput = if outage_core_ns > 0.0 {
        legit_delivered as f64 / (outage_core_ns / 1e9)
    } else {
        0.0
    };
    OutageReport {
        fail_mode: fail_mode.label(),
        legit_offered,
        legit_delivered,
        flood_offered,
        outage_core_ns,
        goodput_per_core_sec: goodput,
        fail_secure_drops: ovs_obs::coverage::total("fail_secure_drop"),
        megaflows_after,
        reconnects: h1.controller.as_ref().map(|c| c.reconnects).unwrap_or(0),
        forwarding_resumed: probe_delivered == PROBE,
    }
}

// ----------------------------------------------------------------------
// NF service-chain soak (ovs-nfv)
// ----------------------------------------------------------------------

/// Outcome of a [`run_chains`] soak.
#[derive(Debug)]
pub struct ChainsReport {
    /// The schedule seed (same seed ⇒ byte-identical report).
    pub seed: u64,
    /// Tenants configured (== chains installed).
    pub tenants: u64,
    /// NF instances across all chains (rxq-like scheduler units).
    pub nf_instances: u64,
    /// Frames offered at the ingress NIC (soak + bursts + curve + probe).
    pub frames_offered: u64,
    /// Frames that reached a wire (default output + steered backends).
    pub delivered: u64,
    /// Frames absorbed by [`DROP_COUNTERS`].
    pub counted_drops: u64,
    /// `offered - delivered - counted_drops`; must be zero.
    pub unaccounted: i64,
    /// NF worker panics caught at the manager's unwind boundary.
    pub nf_crashes: u64,
    /// NF restarts completed after backoff.
    pub nf_restarts: u64,
    /// Packets lost with a crashing worker (its popped batch).
    pub crash_drops: u64,
    /// Packets dropped by NF verdict (firewall/DPI policy).
    pub verdict_drops: u64,
    /// Packets refused at a full NF ring (explicit backpressure).
    pub ring_full_drops: u64,
    /// Packets dropped entering a dead NF on a fail-closed chain.
    pub fail_closed_drops: u64,
    /// Packets the load balancer steered off the default output.
    pub steered: u64,
    /// Mempool descriptor reuses vs fresh allocations (throughput proxy).
    pub pool_reuses: u64,
    pub pool_fresh: u64,
    /// Switch-core cost per frame by chain length 1..=4 (must rise
    /// monotonically — each hop adds ring + exec + nothing else).
    pub chain_ns_per_pkt: Vec<(usize, f64)>,
    /// Estimated cross-PMD variance improvement of the auto-lb dry run
    /// after the skewed phase (percent), and whether it was applied.
    pub lb_improvement_pct: u64,
    pub lb_rebalances: u64,
    /// Busiest-PMD core-ns per offered frame before/after the rebalance.
    pub bottleneck_before_ns_per_pkt: f64,
    pub bottleneck_after_ns_per_pkt: f64,
    /// Every [`DROP_COUNTERS`] value at the end of the soak.
    pub drops_by_counter: Vec<(&'static str, u64)>,
    /// Probe frames after the all-clear; all must deliver.
    pub probe_sent: u64,
    pub probe_delivered: u64,
    pub forwarding_resumed: bool,
}

/// Per-tenant NF service chains on the PMD scheduler (the openNetVM-style
/// subsystem): every tenant owns a chain of 1..=4 NFs (firewall →
/// monitor → DPI → load balancer, truncated to the tenant's length),
/// reached via an `nf_chain` flow action keyed on the tenant's UDP port.
/// NF instances are scheduled as rxq-like units across 4 PMD cores.
///
/// The soak runs two skew phases: phase A under a load-blind round-robin
/// assignment (every 8th tenant is "hot" and their single-NF chains all
/// collide on one PMD by construction), then one `pmd-auto-lb` dry run
/// under the cycles policy rebalances by measured load, and phase B
/// repeats the same traffic over the spread assignment. Mid-phase NF
/// panics exercise crash isolation (restart with backoff; bypass vs
/// fail-closed dead-NF policy), a one-round burst overflows a 16-deep
/// NF ring to exercise explicit backpressure, and DPI drops a marked
/// frame every 50th. The invariant throughout: every offered frame is
/// delivered or claimed by exactly one named drop counter.
pub fn run_chains(tenants: usize, seed: u64) -> ChainsReport {
    use ovs_core::nfv::{ChainPolicy, FwRule, NfSpec};
    use ovs_sim::{FaultKind, SimRng};

    assert!(tenants >= 8, "need at least one hot-tenant stride");
    ovs_obs::coverage::reset();

    const BASE_PORT: u16 = 2000;
    const ROUND_NS: u64 = 100_000; // 100 µs per soak round
    const ROUNDS: usize = 200;
    const PER_ROUND: usize = 8;
    const PMD_CORES: [usize; 4] = [4, 5, 6, 7];

    let mut k = Kernel::new(16);
    let mut nics = Vec::new();
    for i in 0..3u8 {
        nics.push(k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        )));
    }
    let (nic0, nic1, nic2) = (nics[0], nics[1], nics[2]);
    // Model NFs doing real per-packet work (DPI scans, table updates) —
    // heavy enough that chain length and NF placement dominate the
    // per-core budget the auto-lb balances.
    k.sim.costs.nf_exec_ns = 480.0;

    let mut dp = DpifNetdev::new();
    let p0 = dp.add_port(
        "eth0",
        PortType::Afxdp(AfxdpPort::open(&mut k, nic0, 4096, OptLevel::O5).unwrap()),
    );
    let p1 = dp.add_port(
        "eth1",
        PortType::Afxdp(AfxdpPort::open(&mut k, nic1, 4096, OptLevel::O5).unwrap()),
    );
    let p2 = dp.add_port(
        "eth2",
        PortType::Afxdp(AfxdpPort::open(&mut k, nic2, 4096, OptLevel::O5).unwrap()),
    );
    dp.set_emc_insert_inv_prob(1);

    // One chain per tenant, length cycling 1..=4. The LB only ever sits
    // last (it steers packets out of the chain), so a length-L chain is
    // exactly L hops. Odd tenants fail closed when an NF is dead; even
    // tenants bypass it.
    let mut total_nfs = 0usize;
    for t in 0..tenants as u32 {
        let len = 1 + (t % 4) as usize;
        let templates: [(&str, NfSpec); 4] = [
            (
                "fw",
                NfSpec::Firewall {
                    rules: vec![FwRule {
                        proto: Some(17),
                        dport_lo: 1,
                        dport_hi: 1,
                        allow: false,
                    }],
                    default_allow: true,
                },
            ),
            ("mon", NfSpec::Monitor),
            (
                "dpi",
                NfSpec::Dpi {
                    patterns: vec![b"EVIL".to_vec()],
                },
            ),
            (
                "lb",
                NfSpec::LoadBalancer {
                    backends: vec![p1, p2],
                },
            ),
        ];
        let specs: Vec<(String, NfSpec)> = templates
            .into_iter()
            .take(len)
            .map(|(name, spec)| (format!("t{t}-{name}"), spec))
            .collect();
        let policy = if t % 2 == 1 {
            ChainPolicy::FailClosed
        } else {
            ChainPolicy::Bypass
        };
        let cid = dp.nfv.add_chain(t, specs, 16, p1, policy);
        dp.add_flows(&format!(
            "table=0, priority=10, udp, tp_dst={}, actions=nf_chain:{cid}",
            BASE_PORT + t as u16
        ))
        .unwrap();
        total_nfs += len;
    }

    // Phase A starts load-blind: round-robin deals units by count, and
    // the hot tenants (every 8th, single-NF chains) land at unit indices
    // ≡ 0 (mod 20), which — with the port rxq registered first — all hit
    // the same PMD. That is the skew the auto-lb later undoes.
    let mut pmds = PmdSet::new(&PMD_CORES, AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(p0, 1);
    pmds.add_nf_units(total_nfs);
    pmds.rebalance();

    let frame = |t: u32, sport: u16, evil: bool| {
        let mut payload = vec![0x5au8; 86];
        if evil {
            payload[..4].copy_from_slice(b"EVIL");
        }
        ovs_packet::builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            sport,
            BASE_PORT + t as u16,
            &payload,
        )
    };

    let delivered_now =
        |k: &Kernel| (k.device(nic1).tx_wire.len() + k.device(nic2).tx_wire.len()) as u64;
    let busy = |k: &Kernel, core: usize| k.sim.cpus.core(core).total_ns();

    let mut rng = SimRng::new(seed);
    let hot = (tenants / 8) as u64;
    let mut offered = 0u64;
    let mut frame_no = 0u64;

    // Drain until nothing moves, no packets are parked in NF rings, and
    // the fault schedule is spent (dead NFs restart as the clock runs).
    fn drain(k: &mut Kernel, dp: &mut DpifNetdev, pmds: &mut PmdSet) {
        for _ in 0..1024 {
            let moved = pmds.run_round(dp, k);
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
    }

    // One skewed soak phase. `panic_round`/`panic_nf` arm an NfPanic the
    // targeted worker consumes on its next poll; the panicked tenant gets
    // a guaranteed mini-burst the same round (so the crash loses a real
    // batch) and the tenant rides follow-up frames through the dead
    // window (so bypass/fail-closed policy is exercised, not just coded).
    // `burst_round` slams 64 frames at hot tenant 0 to overflow its
    // 16-deep ring.
    let phase = |k: &mut Kernel,
                 dp: &mut DpifNetdev,
                 pmds: &mut PmdSet,
                 rng: &mut SimRng,
                 offered: &mut u64,
                 frame_no: &mut u64,
                 panic_round: usize,
                 panic_tenant: u32,
                 burst_round: Option<usize>|
     -> f64 {
        let panic_nf = dp
            .nfv
            .chain_of_tenant(panic_tenant)
            .expect("tenant exists")
            .nfs[0];
        let busy0: Vec<f64> = PMD_CORES.iter().map(|&c| busy(k, c)).collect();
        for r in 0..ROUNDS {
            if r == panic_round {
                k.inject_fault(FaultKind::NfPanic, panic_nf, 0, 5_000_000);
                for _ in 0..4 {
                    k.receive(nic0, 0, frame(panic_tenant, 7000, false));
                    *offered += 1;
                }
            }
            if r > panic_round && r <= panic_round + 4 {
                // Dead window: the NF's backoff is 1 ms = 10 rounds.
                for _ in 0..2 {
                    k.receive(nic0, 0, frame(panic_tenant, 7001, false));
                    *offered += 1;
                }
            }
            if burst_round == Some(r) {
                for i in 0..64u16 {
                    k.receive(nic0, 0, frame(0, 8000 + i, false));
                    *offered += 1;
                }
            }
            for _ in 0..PER_ROUND {
                let evil = *frame_no % 50 == 49;
                let t = if evil {
                    2 // length-3 chain: its DPI drops the marked frame
                } else if rng.below(2) == 0 {
                    (8 * rng.below(hot)) as u32
                } else {
                    rng.below(tenants as u64) as u32
                };
                let sport = 1024 + rng.below(50_000) as u16;
                k.receive(nic0, 0, frame(t, sport, evil));
                *offered += 1;
                *frame_no += 1;
            }
            pmds.run_round(dp, k);
            k.sim.clock.advance(ROUND_NS);
        }
        drain(k, dp, pmds);
        PMD_CORES
            .iter()
            .zip(&busy0)
            .map(|(&c, b0)| busy(k, c) - b0)
            .fold(0.0f64, f64::max)
    };

    // --- Phase A: skewed load on the load-blind assignment. -----------
    let offered_a0 = offered;
    let busy_a = phase(
        &mut k,
        &mut dp,
        &mut pmds,
        &mut rng,
        &mut offered,
        &mut frame_no,
        60,
        0,
        Some(120),
    );
    let bottleneck_before = busy_a / (offered - offered_a0) as f64;

    // --- One auto-lb pass under the load-aware policy. Group (greedy
    // least-loaded) rather than Cycles: the zigzag deal ignores where
    // the heavyweight port rxq already sits, so only the greedy policy
    // reliably spreads the hot NFs *around* it at every tenant scale.
    pmds.set_policy(AssignmentPolicy::Group);
    let lb_improvement_pct = pmds.auto_lb_check();

    // --- Phase B: same traffic over the rebalanced assignment; the
    // crashing NF heads an odd (fail-closed) tenant's chain this time.
    let offered_b0 = offered;
    let busy_b = phase(
        &mut k,
        &mut dp,
        &mut pmds,
        &mut rng,
        &mut offered,
        &mut frame_no,
        60,
        1,
        None,
    );
    let bottleneck_after = busy_b / (offered - offered_b0) as f64;

    // --- Chain-length cost curve: warm each probe tenant, then meter a
    // fixed batch through its length-L chain. Each extra hop is one ring
    // crossing plus one NF invocation, so the curve must rise.
    let mut chain_ns_per_pkt = Vec::new();
    for len in 1..=4usize {
        let t = (len - 1) as u32;
        for _ in 0..16 {
            k.receive(nic0, 0, frame(t, 5000, false));
            offered += 1;
        }
        drain(&mut k, &mut dp, &mut pmds);
        let busy0: Vec<f64> = PMD_CORES.iter().map(|&c| busy(&k, c)).collect();
        const CURVE_FRAMES: u64 = 64;
        for _ in 0..CURVE_FRAMES {
            k.receive(nic0, 0, frame(t, 5000, false));
            offered += 1;
        }
        drain(&mut k, &mut dp, &mut pmds);
        let spent: f64 = PMD_CORES
            .iter()
            .zip(&busy0)
            .map(|(&c, b0)| busy(&k, c) - b0)
            .sum();
        chain_ns_per_pkt.push((len, spent / CURVE_FRAMES as f64));
    }

    // --- Forwarding probe after the all-clear. ------------------------
    let probe_base = delivered_now(&k);
    for i in 0..PROBE {
        k.receive(nic0, 0, frame((i % 5) as u32, 5000, false));
        offered += 1;
    }
    drain(&mut k, &mut dp, &mut pmds);
    let probe_delivered = delivered_now(&k) - probe_base;

    // --- The balance sheet. -------------------------------------------
    let delivered = delivered_now(&k);
    let (drops_by_counter, counted_drops) = counted_drops();
    let totals = dp.nfv.totals();
    let (pool_reuses, pool_fresh) = dp.nfv.pool_stats();
    ChainsReport {
        seed,
        tenants: tenants as u64,
        nf_instances: total_nfs as u64,
        frames_offered: offered,
        delivered,
        counted_drops,
        unaccounted: offered as i64 - delivered as i64 - counted_drops as i64,
        nf_crashes: totals.crashes,
        nf_restarts: totals.restarts,
        crash_drops: totals.crash_drops,
        verdict_drops: totals.verdict_drops,
        ring_full_drops: totals.ring_full_drops,
        fail_closed_drops: totals.fail_closed_drops,
        steered: totals.steered,
        pool_reuses,
        pool_fresh,
        chain_ns_per_pkt,
        lb_improvement_pct,
        lb_rebalances: pmds.auto_lb.rebalances,
        bottleneck_before_ns_per_pkt: bottleneck_before,
        bottleneck_after_ns_per_pkt: bottleneck_after,
        drops_by_counter,
        probe_sent: PROBE,
        probe_delivered,
        forwarding_resumed: probe_delivered == PROBE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ablation_load_aware_beats_roundrobin() {
        let rr = run_policy_ablation(AssignmentPolicy::RoundRobin);
        let cy = run_policy_ablation(AssignmentPolicy::Cycles);
        let gr = run_policy_ablation(AssignmentPolicy::Group);
        println!("roundrobin {rr:?}\ncycles     {cy:?}\ngroup      {gr:?}");
        // Round-robin piles both heavy queues onto one PMD; the
        // load-aware policies split them, so the bottleneck core does
        // less work and the throughput proxy rises.
        assert!(
            cy.est_mpps > rr.est_mpps,
            "cycles {:.2} must beat roundrobin {:.2}",
            cy.est_mpps,
            rr.est_mpps
        );
        assert!(
            gr.est_mpps > rr.est_mpps,
            "group {:.2} must beat roundrobin {:.2}",
            gr.est_mpps,
            rr.est_mpps
        );
        // Determinism: the same policy measures the same load twice.
        let rr2 = run_policy_ablation(AssignmentPolicy::RoundRobin);
        assert_eq!(rr.pmd_busy_ns, rr2.pmd_busy_ns, "byte-deterministic");
    }

    #[test]
    fn faults_soak_accounts_for_every_frame() {
        let r = run_faults(0xC0FFEE);
        println!("{r:#?}");
        assert_eq!(
            r.unaccounted, 0,
            "every offered frame must be delivered or counted: {r:#?}"
        );
        assert_eq!(r.crashes, 1, "the scheduled panic fired: {r:#?}");
        assert_eq!(r.restarts, 1, "the supervisor restarted: {r:#?}");
        assert_eq!(
            r.graceful_restarts, 1,
            "the planned restart was hitless: {r:#?}"
        );
        assert!(r.degraded_mode, "rebuilt uplink degraded to copy mode");
        assert!(
            r.forwarding_resumed,
            "probe after all-clear must fully deliver: {r:#?}"
        );
        for (label, n) in &r.per_class {
            if *label != "vhost_reconnect" {
                assert!(*n > 0, "class {label} never injected: {r:#?}");
            }
        }
    }

    #[test]
    fn chains_soak_accounts_for_every_frame() {
        let r = run_chains(64, 0xA11CE);
        println!("{r:#?}");
        assert_eq!(
            r.unaccounted, 0,
            "every offered frame must be delivered or counted: {r:#?}"
        );
        assert!(r.nf_crashes >= 2, "both scheduled NF panics fired: {r:#?}");
        assert!(r.nf_restarts >= 2, "crashed NFs restarted: {r:#?}");
        assert!(
            r.crash_drops > 0,
            "a crash loses its in-flight batch: {r:#?}"
        );
        assert!(r.verdict_drops > 0, "DPI dropped the marked frames: {r:#?}");
        assert!(
            r.ring_full_drops > 0,
            "the burst overflowed the ring: {r:#?}"
        );
        assert!(
            r.fail_closed_drops > 0,
            "the fail-closed chain dropped during the dead window: {r:#?}"
        );
        assert!(r.steered > 0, "the load balancer steered packets: {r:#?}");
        for w in r.chain_ns_per_pkt.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "per-frame cost must rise with chain length: {:?}",
                r.chain_ns_per_pkt
            );
        }
        assert!(
            r.lb_improvement_pct > 0 && r.lb_rebalances >= 1,
            "auto-lb must find and apply an improvement: {r:#?}"
        );
        assert!(r.forwarding_resumed, "probe after all-clear: {r:#?}");
    }

    #[test]
    fn restart_soak_is_hitless_and_accounted() {
        let r = run_restart(0xBEEF);
        println!("{r:#?}");
        assert_eq!(r.unaccounted, 0, "zero unaccounted loss: {r:#?}");
        assert_eq!(r.graceful_restarts, 1, "{r:#?}");
        assert_eq!(r.crash_restarts, 0, "planned restart, not a crash: {r:#?}");
        assert!(r.restored_flows > 0, "{r:#?}");
        assert!(
            r.gated_forwarded > 0,
            "restored megaflows forwarded during the gate: {r:#?}"
        );
        assert_eq!(
            r.adopted + r.orphaned,
            r.restored_flows,
            "every restored flow reconciled: {r:#?}"
        );
        assert!(r.reconvergence_ms > 0.0, "{r:#?}");
        assert!(r.forwarding_resumed, "{r:#?}");
    }

    #[test]
    fn outage_secure_beats_standalone_goodput() {
        let sec = run_outage(ovs_core::FailMode::Secure);
        let sta = run_outage(ovs_core::FailMode::Standalone);
        println!("secure     {sec:#?}\nstandalone {sta:#?}");
        assert!(
            sec.fail_secure_drops > 0,
            "the gate took the flood: {sec:#?}"
        );
        assert!(sec.forwarding_resumed, "{sec:#?}");
        assert!(sta.forwarding_resumed, "{sta:#?}");
        assert!(
            sta.megaflows_after > sec.megaflows_after,
            "standalone shows the TSE explosion: {} vs {}",
            sta.megaflows_after,
            sec.megaflows_after
        );
        assert!(
            sec.goodput_per_core_sec >= 2.0 * sta.goodput_per_core_sec,
            "secure {:.0}/core-s must be >= 2x standalone {:.0}/core-s",
            sec.goodput_per_core_sec,
            sta.goodput_per_core_sec
        );
    }

    #[test]
    fn fastpath_batching_and_smc_beat_burst_of_one() {
        let single = run_fastpath(FastpathMode::Batched, 1, 512, 4096);
        let batched = run_fastpath(FastpathMode::Batched, 32, 512, 4096);
        let smc = run_fastpath(FastpathMode::BatchedSmc, 32, 512, 4096);
        println!("burst 1 {single:?}");
        println!("batched {batched:?}");
        println!("smc     {smc:?}");
        assert!(
            batched.ns_per_pkt < single.ns_per_pkt,
            "batching amortizes per-batch costs: {} vs {}",
            batched.ns_per_pkt,
            single.ns_per_pkt
        );
        assert!(
            smc.ns_per_pkt < batched.ns_per_pkt,
            "SMC undercuts dpcls on EMC misses: {} vs {}",
            smc.ns_per_pkt,
            batched.ns_per_pkt
        );
        assert!(smc.smc_hits > 0, "SMC actually serves traffic");
        assert_eq!(batched.smc_hits, 0, "SMC off by default");
        assert!(
            single.ns_per_pkt / smc.ns_per_pkt >= 1.5,
            "batched+SMC speedup over bursts of one: {:.2}x",
            single.ns_per_pkt / smc.ns_per_pkt
        );

        // With every flow warmed the window is pure cache hits, and the
        // sparse fast path never expands a full FlowKey on a hit.
        for r in [&single, &batched, &smc] {
            assert_eq!(r.upcalls, 0, "{}: warm window upcalled", r.mode);
            assert_eq!(
                r.miniflow_expands, 0,
                "{}: full-key expansion on the pure-hit path",
                r.mode
            );
        }

        // Lane accounting: dpcls probes happen in lane-wide steps, and
        // whole-burst probing fills lanes better than one key at a time.
        assert!(batched.lane_steps > 0, "batched mode bulk-probes dpcls");
        assert!(
            batched.lane_keys >= batched.lane_steps,
            "each step carries at least one key"
        );
        assert!(
            batched.lane_occupancy() > single.lane_occupancy(),
            "bursts fill probe lanes: {:.2} vs {:.2}",
            batched.lane_occupancy(),
            single.lane_occupancy()
        );
    }

    #[test]
    fn p2p_all_datapaths_produce_rates() {
        for dp in [DpKind::Kernel, DpKind::Afxdp(OptLevel::O5), DpKind::Dpdk] {
            let m = run(&ScenarioConfig::micro(dp, PathKind::P2p, 1));
            assert!(m.mpps > 0.5, "{dp:?}: {} Mpps", m.mpps);
            assert!(m.mpps < 40.0);
            assert!(m.usage.total() > 0.0);
        }
    }

    #[test]
    fn dpdk_fastest_afxdp_between_kernel_single_flow() {
        let kern = run(&ScenarioConfig::micro(DpKind::Kernel, PathKind::P2p, 1));
        let afx = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::P2p,
            1,
        ));
        let dpdk = run(&ScenarioConfig::micro(DpKind::Dpdk, PathKind::P2p, 1));
        assert!(
            dpdk.mpps > afx.mpps,
            "dpdk {} > afxdp {}",
            dpdk.mpps,
            afx.mpps
        );
        assert!(
            afx.mpps > kern.mpps,
            "afxdp {} > kernel {}",
            afx.mpps,
            kern.mpps
        );
    }

    #[test]
    fn thousand_flows_slower_for_userspace_faster_for_kernel() {
        let a1 = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::P2p,
            1,
        ));
        let a1000 = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::P2p,
            1000,
        ));
        assert!(a1000.mpps < a1.mpps, "userspace: 1000 flows slower");
        let k1 = run(&ScenarioConfig::micro(DpKind::Kernel, PathKind::P2p, 1));
        let k1000 = run(&ScenarioConfig::micro(DpKind::Kernel, PathKind::P2p, 1000));
        assert!(k1000.mpps > k1.mpps, "kernel: RSS makes 1000 flows faster");
        assert!(
            k1000.usage.total() > 4.0,
            "kernel RSS is fast but not efficient: {} HT",
            k1000.usage.total()
        );
    }

    #[test]
    fn pvp_slower_than_p2p() {
        let p2p = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::P2p,
            1,
        ));
        let pvp = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::Pvp(VmAttach::VhostUser),
            1,
        ));
        assert!(pvp.mpps < p2p.mpps);
        assert!(pvp.usage.guest > 0.0, "guest time accounted");
    }

    #[test]
    fn pvp_vhostuser_beats_tap() {
        let vh = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::Pvp(VmAttach::VhostUser),
            1,
        ));
        let tap = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::Pvp(VmAttach::Tap),
            1,
        ));
        assert!(
            vh.mpps > tap.mpps,
            "vhostuser {} > tap {}",
            vh.mpps,
            tap.mpps
        );
    }

    #[test]
    fn pcp_afxdp_beats_kernel_and_dpdk() {
        let afx = run(&ScenarioConfig::micro(
            DpKind::Afxdp(OptLevel::O5),
            PathKind::Pcp,
            1,
        ));
        let kern = run(&ScenarioConfig::micro(DpKind::Kernel, PathKind::Pcp, 1));
        let dpdk = run(&ScenarioConfig::micro(DpKind::Dpdk, PathKind::Pcp, 1));
        assert!(
            afx.mpps > kern.mpps,
            "afxdp {} > kernel {}",
            afx.mpps,
            kern.mpps
        );
        assert!(
            afx.mpps > dpdk.mpps,
            "afxdp {} > dpdk {}",
            afx.mpps,
            dpdk.mpps
        );
    }

    #[test]
    fn ladder_is_monotonic() {
        let mut prev = 0.0;
        for opt in OptLevel::LADDER {
            let m = run_ladder(opt);
            assert!(m.mpps > prev, "{}: {} !> {}", opt.label(), m.mpps, prev);
            prev = m.mpps;
        }
    }

    #[test]
    fn fig2_ordering_kernel_vs_ebpf_vs_dpdk() {
        let kern = run_fig2_kernel();
        let ebpf = run_fig2_ebpf();
        let dpdk = run_fig2_dpdk();
        assert!(
            ebpf.mpps < kern.mpps,
            "eBPF {} slower than kernel {}",
            ebpf.mpps,
            kern.mpps
        );
        assert!(
            ebpf.mpps > kern.mpps * 0.7,
            "eBPF only 10-20% slower, not catastrophically: {} vs {}",
            ebpf.mpps,
            kern.mpps
        );
        assert!(dpdk.mpps > kern.mpps * 2.0, "DPDK much faster");
    }

    #[test]
    fn xdp_task_ladder_decreases() {
        let a = run_xdp_task(XdpTask::Drop);
        let b = run_xdp_task(XdpTask::ParseDrop);
        let c = run_xdp_task(XdpTask::ParseLookupDrop);
        let d = run_xdp_task(XdpTask::SwapFwd);
        assert!(a.mpps >= b.mpps);
        assert!(b.mpps > c.mpps);
        assert!(c.mpps > d.mpps);
        assert!(a.line_limited, "task A reaches 10G line rate");
    }

    #[test]
    fn churn_stays_under_the_flow_limit_and_drains() {
        let r = run_churn(6_000, 512);
        assert_eq!(r.flows_offered, 6_000);
        assert!(
            r.peak_flows <= r.flow_limit,
            "peak {} > limit {}",
            r.peak_flows,
            r.flow_limit
        );
        assert!(r.peak_flows > 0, "traffic actually installed megaflows");
        assert!(
            r.limit_hits > 0,
            "6k conntracked tuples against a 512-flow limit must hit it"
        );
        assert_eq!(r.final_flows, 0, "idle expiry drains the table");
        assert!(r.deleted_idle > 0);
        assert!(r.sweeps >= 2);
        assert!(
            r.legit_forwarded > 0,
            "legitimate traffic keeps flowing during the churn"
        );
    }

    #[test]
    fn busy_polling_cuts_total_cpu() {
        let (base, busy) = run_busy_poll_ablation(1000);
        assert!(
            busy.usage.total() < base.usage.total(),
            "busy polling reduces total CPU: {:.2} vs {:.2}",
            busy.usage.total(),
            base.usage.total()
        );
        // Throughput stays in the same ballpark.
        assert!(busy.mpps > base.mpps * 0.6);
    }

    #[test]
    fn multi_queue_scales_but_sublinearly_for_afxdp() {
        let one = run(&ScenarioConfig {
            queues: 1,
            ..ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, 1000)
        });
        let four = run(&ScenarioConfig {
            queues: 4,
            ..ScenarioConfig::micro(DpKind::Afxdp(OptLevel::O5), PathKind::P2p, 1000)
        });
        assert!(four.mpps > one.mpps, "more queues, more rate");
        assert!(
            four.mpps < one.mpps * 3.9,
            "contention keeps scaling sublinear: {} vs {}",
            four.mpps,
            one.mpps
        );
    }
}
