//! Bulk-TCP throughput — the Fig 8 experiment engine.
//!
//! A sender VM (or container) pushes a single bulk TCP stream; each
//! `iperf` write becomes either one TSO super-frame (~64 kB, when the
//! virtio path offers segmentation offload) or a stream of MTU-sized
//! segments. The stream crosses the NSX pipeline — three datapath passes
//! with conntrack and, across hosts, Geneve encapsulation — and the
//! throughput is the sender's payload bytes over the bottleneck stage's
//! busy time, capped by the 10 GbE wire where applicable.

use ovs_afxdp::OptLevel;
use ovs_kernel::guest::GuestRole;
use ovs_kernel::namespace::ContainerRole;
use ovs_kernel::Kernel;
use ovs_nsx::ruleset;
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_packet::tcp::flags;
use ovs_packet::{builder, MacAddr};

/// Offload configuration of a Fig 8 bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offloads {
    /// Checksum offload available end to end.
    pub csum: bool,
    /// TCP segmentation offload available end to end.
    pub tso: bool,
}

impl Offloads {
    pub const NONE: Offloads = Offloads {
        csum: false,
        tso: false,
    };
    pub const CSUM: Offloads = Offloads {
        csum: true,
        tso: false,
    };
    pub const FULL: Offloads = Offloads {
        csum: true,
        tso: true,
    };
}

/// A Fig 8 throughput result.
#[derive(Debug, Clone, Copy)]
pub struct TcpThroughput {
    /// Goodput in Gbps.
    pub gbps: f64,
    /// Whether the wire was the limit.
    pub line_limited: bool,
}

/// Number of sender writes driven per measurement.
const WRITES: usize = 256;
/// Software-checksum penalty per payload byte when checksum offload is
/// unavailable end to end, charged to the switching core (OVS fills and
/// verifies L4 checksums in software on the vhost path).
/// **[calibrated]** to Fig 8's offload-vs-no-offload gaps.
const SW_CSUM_NS_PER_BYTE: f64 = 0.45;
/// TSO super-frame payload (a 44-segment GSO packet).
const TSO_PAYLOAD: usize = 44 * 1460;
/// Plain-MTU payload.
const MTU_PAYLOAD: usize = 1460;

fn bulk_frames(src_host: u8, dst_host: u8, payload: usize) -> Vec<Vec<u8>> {
    let data = vec![0x42u8; payload];
    (0..WRITES)
        .map(|i| {
            builder::tcp_ipv4(
                ruleset::vm_mac(src_host, 0, 0),
                ruleset::vm_mac(dst_host, 0, 0),
                ruleset::vm_ip(src_host, 0, 0),
                ruleset::vm_ip(dst_host, 0, 0),
                40_000,
                5201,
                (i * payload) as u32,
                0,
                flags::ACK,
                &data,
            )
        })
        .collect()
}

fn config(id: u8, datapath: DatapathKind, attachment: VmAttachment) -> HostConfig {
    let mut cfg = HostConfig::nsx_default(id, datapath, attachment);
    cfg.nsx.vms = 2;
    cfg.nsx.tunnels = 8;
    cfg.nsx.target_rules = 2_000;
    cfg.guest_role = GuestRole::Sink;
    cfg
}

/// Offer `frames` from host 1's VM one at a time, pumping host 1, then
/// host 2, then host 1 again after each, so rings never grow without
/// bound. This order sets Fig 8a's numbers.
fn drive_pair(pair: &mut HostPair, frames: Vec<Vec<u8>>) {
    let HostPair { h1, h2, .. } = pair;
    let g = h1.guest_of_vif[0];
    for f in frames {
        h1.kernel.guests[g].tx_ring.push_back(f);
        h1.pump();
        for w in h1.wire_take() {
            h2.wire_inject(w);
        }
        h2.pump();
        for w in h2.wire_take() {
            h1.wire_inject(w);
        }
        h1.pump();
    }
}

/// The bottleneck-derived throughput over both hosts.
fn throughput(h1: &Host, h2: &Host, payload_bytes: usize, link_gbps: Option<f64>) -> TcpThroughput {
    let busy = h1
        .kernel
        .sim
        .cpus
        .bottleneck_ns()
        .max(h2.kernel.sim.cpus.bottleneck_ns());
    let gbps_cpu = if busy > 0.0 {
        payload_bytes as f64 * 8.0 / busy
    } else {
        f64::INFINITY
    };
    match link_gbps {
        Some(l) if l < gbps_cpu => TcpThroughput {
            gbps: l,
            line_limited: true,
        },
        _ => TcpThroughput {
            gbps: gbps_cpu,
            line_limited: false,
        },
    }
}

/// Fig 8(a): VM→VM across hosts over Geneve on a 10 GbE link.
///
/// TSO is not usable over the tunnel (no tunnel-TSO), so senders emit
/// MTU-sized segments in every variant, as the paper's bar set implies
/// (8a has interrupt/polling/vhostuser/checksum variants, no TSO bar).
pub fn fig8a_cross_host(datapath: DatapathKind, attachment: VmAttachment) -> TcpThroughput {
    let mut pair = HostPair::new(|id| config(id, datapath, attachment));
    let frames = bulk_frames(1, 2, MTU_PAYLOAD);
    let payload = WRITES * MTU_PAYLOAD;
    drive_pair(&mut pair, frames);
    // Without end-to-end checksum offload the switch checksums in
    // software; charge it where the datapath runs.
    if let DatapathKind::UserspaceAfxdp { opt, .. } = datapath {
        if !opt.csum_offload() {
            let ns = payload as f64 * SW_CSUM_NS_PER_BYTE;
            let core = pair.h2.switch_core;
            pair.h2.kernel.sim.charge(core, ovs_sim::Context::User, ns);
        }
    }
    throughput(&pair.h1, &pair.h2, payload, Some(10.0))
}

/// Fig 8(b): VM→VM within one host.
pub fn fig8b_intra_host(
    datapath: DatapathKind,
    attachment: VmAttachment,
    offloads: Offloads,
) -> TcpThroughput {
    let mut h1 = Host::build(&config(1, datapath, attachment));
    let payload = if offloads.tso {
        TSO_PAYLOAD
    } else {
        MTU_PAYLOAD
    };
    // Sender VM0-if0 -> receiver VM1-if0, both local.
    let data = vec![0x42u8; payload];
    let frames: Vec<Vec<u8>> = (0..WRITES)
        .map(|i| {
            builder::tcp_ipv4(
                ruleset::vm_mac(1, 0, 0),
                ruleset::vm_mac(1, 1, 0),
                ruleset::vm_ip(1, 0, 0),
                ruleset::vm_ip(1, 1, 0),
                40_000,
                5201,
                (i * payload) as u32,
                0,
                flags::ACK,
                &data,
            )
        })
        .collect();
    let g = h1.guest_of_vif[0];
    for f in frames {
        h1.kernel.guests[g].tx_ring.push_back(f);
        h1.pump();
    }
    if !offloads.csum {
        let ns = (WRITES * payload) as f64 * SW_CSUM_NS_PER_BYTE;
        let core = h1.switch_core;
        h1.kernel.sim.charge(core, ovs_sim::Context::User, ns);
    }
    let busy = h1.kernel.sim.cpus.bottleneck_ns();
    TcpThroughput {
        gbps: (WRITES * payload) as f64 * 8.0 / busy.max(1.0),
        line_limited: false,
    }
}

/// How containers are switched in Fig 8(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// In-kernel OVS across the veth pair.
    Kernel,
    /// XDP redirection between the veths (Fig 5 path C).
    XdpRedirect,
    /// Userspace OVS over AF_XDP on the veths (Fig 5 path A).
    AfxdpUserspace(OptLevel),
}

/// Fig 8(c): container→container within one host.
pub fn fig8c_containers(mode: CcMode, offloads: Offloads) -> TcpThroughput {
    use ovs_core::dpif::{DpifNetdev, PortType};
    use ovs_core::ofproto::{OfAction, OfRule};
    use ovs_ebpf::maps::{DevMap, Map};
    use ovs_kernel::dev::{Attachment, XdpMode};
    use ovs_kernel::ovs_module::{KAction, Vport};
    use ovs_packet::flow::{fields, FlowKey, FlowMask};

    let mut k = Kernel::new(16);
    k.config.rss_cores = vec![0, 1];
    k.config.host_stack_core = 2;
    let mac_a = MacAddr::new(6, 0, 0, 0, 0, 1);
    let mac_b = MacAddr::new(6, 0, 0, 0, 0, 2);
    let (host_a, _ia, _na) = k.add_container("c0", [10, 77, 0, 1], mac_a, ContainerRole::Sink);
    let (host_b, _ib, _nb) = k.add_container("c1", [10, 77, 0, 2], mac_b, ContainerRole::Sink);

    // Native veth XDP exists upstream (used by the redirect fast path),
    // but zero-copy AF_XDP on veth does not (§3.4): the userspace mode
    // falls back to generic/copy mode.
    if mode == CcMode::XdpRedirect {
        k.dev_mut(host_a).caps.native_xdp = true;
        k.dev_mut(host_b).caps.native_xdp = true;
    }

    // TSO only works where no XDP/AF_XDP leg intervenes (§6: XDP lacks
    // TSO), so only the kernel mode may carry super-frames.
    let payload = if offloads.tso && mode == CcMode::Kernel {
        TSO_PAYLOAD
    } else {
        MTU_PAYLOAD
    };
    let data = vec![0x42u8; payload];
    let frames: Vec<Vec<u8>> = (0..WRITES)
        .map(|i| {
            builder::tcp_ipv4(
                mac_a,
                mac_b,
                [10, 77, 0, 1],
                [10, 77, 0, 2],
                40_000,
                5201,
                (i * payload) as u32,
                0,
                flags::ACK,
                &data,
            )
        })
        .collect();

    let mut dp: Option<DpifNetdev> = None;
    let mut pa = 0;
    match mode {
        CcMode::Kernel => {
            let va = k.ovs.add_vport(Vport::Netdev { ifindex: host_a });
            let vb = k.ovs.add_vport(Vport::Netdev { ifindex: host_b });
            k.dev_mut(host_a).attachment = Attachment::OvsBridge { port: va };
            k.dev_mut(host_b).attachment = Attachment::OvsBridge { port: vb };
            let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
            let mut ka = FlowKey::default();
            ka.set_in_port(va);
            k.ovs.install_flow(&ka, &mask, vec![KAction::Output(vb)]);
            let mut kb = FlowKey::default();
            kb.set_in_port(vb);
            k.ovs.install_flow(&kb, &mask, vec![KAction::Output(va)]);
        }
        CcMode::XdpRedirect => {
            // Attaching XDP to a veth disables GRO, so the containers'
            // stacks handle every MTU frame individually where the plain
            // kernel path would aggregate; charged below per frame.
            let mut to_b = DevMap::new(1);
            to_b.set(0, host_b).unwrap();
            let fd_b = k.maps.add(Map::Dev(to_b));
            let mut to_a = DevMap::new(1);
            to_a.set(0, host_a).unwrap();
            let fd_a = k.maps.add(Map::Dev(to_a));
            k.attach_xdp(
                host_a,
                ovs_ebpf::programs::redirect_all_to_dev(fd_b, 0),
                XdpMode::Native,
                None,
            )
            .unwrap();
            k.attach_xdp(
                host_b,
                ovs_ebpf::programs::redirect_all_to_dev(fd_a, 0),
                XdpMode::Native,
                None,
            )
            .unwrap();
        }
        CcMode::AfxdpUserspace(opt) => {
            let mut dpn = DpifNetdev::new();
            let aa = ovs_afxdp::AfxdpPort::open(&mut k, host_a, 512, opt).unwrap();
            let ab = ovs_afxdp::AfxdpPort::open(&mut k, host_b, 512, opt).unwrap();
            pa = dpn.add_port("c0", PortType::Afxdp(aa));
            let pb = dpn.add_port("c1", PortType::Afxdp(ab));
            let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
            let mut ka = FlowKey::default();
            ka.set_in_port(pa);
            dpn.ofproto.add_rule(OfRule {
                table: 0,
                priority: 1,
                key: ka,
                mask,
                actions: vec![OfAction::Output(pb)],
                cookie: 0,
            });
            let mut kb = FlowKey::default();
            kb.set_in_port(pb);
            dpn.ofproto.add_rule(OfRule {
                table: 0,
                priority: 1,
                key: kb,
                mask,
                actions: vec![OfAction::Output(pa)],
                cookie: 0,
            });
            dp = Some(dpn);
        }
    }

    // Container A "sends": frames leave its namespace through the veth.
    for f in frames {
        let inner_a = match k.device(host_a).kind {
            ovs_kernel::dev::DeviceKind::Veth { peer } => peer,
            _ => unreachable!(),
        };
        k.transmit(inner_a, f, 3);
        if let Some(dpn) = dp.as_mut() {
            dpn.pmd_poll(&mut k, pa, 0, 8);
        }
    }
    if let CcMode::AfxdpUserspace(opt) = mode {
        if !(offloads.csum && opt.csum_offload()) {
            let ns = (WRITES * payload) as f64 * SW_CSUM_NS_PER_BYTE;
            k.sim.charge(2, ovs_sim::Context::Softirq, ns);
        }
    }
    if mode == CcMode::XdpRedirect {
        // GRO loss: per-MTU-frame stack work the kernel path amortizes.
        let ns = WRITES as f64 * 250.0;
        k.sim.charge(2, ovs_sim::Context::Softirq, ns);
    }
    let busy = k.sim.cpus.bottleneck_ns();
    TcpThroughput {
        gbps: (WRITES * payload) as f64 * 8.0 / busy.max(1.0),
        line_limited: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AFXDP_POLL: DatapathKind = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    const AFXDP_NO_CSUM: DatapathKind = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O4,
        interrupt_mode: false,
    };
    const AFXDP_INTR: DatapathKind = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O4,
        interrupt_mode: true,
    };

    #[test]
    fn fig8a_orderings() {
        let kernel = fig8a_cross_host(DatapathKind::Kernel, VmAttachment::Tap);
        let intr = fig8a_cross_host(AFXDP_INTR, VmAttachment::Tap);
        let poll_tap = fig8a_cross_host(AFXDP_NO_CSUM, VmAttachment::Tap);
        let vhost = fig8a_cross_host(AFXDP_NO_CSUM, VmAttachment::VhostUser);
        let vhost_csum = fig8a_cross_host(AFXDP_POLL, VmAttachment::VhostUser);
        // Paper: 1.9 < 2.2 < 3.0 < 4.4 < 6.5 Gbps.
        assert!(
            intr.gbps < kernel.gbps,
            "interrupt afxdp {} < kernel {}",
            intr.gbps,
            kernel.gbps
        );
        assert!(
            kernel.gbps < poll_tap.gbps,
            "kernel {} < polling {}",
            kernel.gbps,
            poll_tap.gbps
        );
        assert!(
            poll_tap.gbps < vhost.gbps,
            "tap {} < vhostuser {}",
            poll_tap.gbps,
            vhost.gbps
        );
        assert!(
            vhost.gbps < vhost_csum.gbps,
            "no-csum {} < csum {}",
            vhost.gbps,
            vhost_csum.gbps
        );
        assert!(vhost_csum.gbps < 10.0, "under the 10G wire");
    }

    #[test]
    fn fig8b_tso_dominates() {
        let kernel = fig8b_intra_host(DatapathKind::Kernel, VmAttachment::Tap, Offloads::FULL);
        let vhost_none = fig8b_intra_host(AFXDP_NO_CSUM, VmAttachment::VhostUser, Offloads::NONE);
        let vhost_csum = fig8b_intra_host(AFXDP_POLL, VmAttachment::VhostUser, Offloads::CSUM);
        let vhost_tso = fig8b_intra_host(AFXDP_POLL, VmAttachment::VhostUser, Offloads::FULL);
        // Paper: vhost 3.8 < csum 8.4 < kernel 12 < vhost+TSO 29.
        assert!(vhost_none.gbps < vhost_csum.gbps);
        assert!(vhost_csum.gbps < vhost_tso.gbps);
        assert!(
            kernel.gbps < vhost_tso.gbps,
            "vhostuser+TSO beats the kernel: {} vs {}",
            vhost_tso.gbps,
            kernel.gbps
        );
        assert!(
            kernel.gbps > vhost_none.gbps,
            "kernel TSO beats offload-less vhost"
        );
    }

    #[test]
    fn fig8c_kernel_tso_wins_for_containers() {
        let kern_off = fig8c_containers(CcMode::Kernel, Offloads::NONE);
        let kern_on = fig8c_containers(CcMode::Kernel, Offloads::FULL);
        let xdp = fig8c_containers(CcMode::XdpRedirect, Offloads::NONE);
        let afx = fig8c_containers(CcMode::AfxdpUserspace(OptLevel::O5), Offloads::CSUM);
        // Paper: 5.9 (kernel, no offload) ~ 5.7 (xdp) > 5.0 (afxdp+csum);
        // 49 (kernel full offload) dwarfs everything.
        assert!(
            kern_on.gbps > 3.0 * kern_off.gbps,
            "TSO+csum decisive: {} vs {}",
            kern_on.gbps,
            kern_off.gbps
        );
        assert!(
            kern_on.gbps > xdp.gbps,
            "kernel with offloads beats XDP redirect"
        );
        assert!(
            xdp.gbps > afx.gbps,
            "xdp redirect {} > afxdp userspace {}",
            xdp.gbps,
            afx.gbps
        );
    }
}
