//! Deployment topology: one NSX-managed hypervisor, buildable with either
//! datapath architecture, ready to wire back-to-back with a peer.
//!
//! This reproduces the §5.1 testbed: two servers, each running OVS plus an
//! NSX agent that programs ~103k rules, Geneve tunnelling between the
//! VTEPs, and VMs attached over tap (kernel mode) or tap/vhostuser
//! (userspace mode).

use crate::ruleset::{self, NsxConfig, NsxPorts, RulesetStats};
use ovs_afxdp::OptLevel;
use ovs_core::dpif::{DpifNetdev, DpifNetlink, PortNo, PortType};
use ovs_core::pmd::{AssignmentPolicy, PmdSet};
use ovs_core::tunnel::{TunnelConfig, TunnelKind};
use ovs_core::{ControllerSession, FailMode, HealthMonitor};
use ovs_dpdk::VhostUserDev;
use ovs_kernel::dev::{Attachment, DeviceKind, NetDevice};
use ovs_kernel::guest::{Guest, GuestRole, VirtioBackend};
use ovs_kernel::ovs_module::Vport;
use ovs_kernel::Kernel;
use ovs_packet::MacAddr;

/// How VMs attach to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmAttachment {
    /// Kernel tap + vhost-net (path A in Fig 5).
    Tap,
    /// Shared-memory vhostuser (path B in Fig 5).
    VhostUser,
}

/// Which datapath architecture the host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathKind {
    /// The traditional split design: OVS kernel module + upcalls.
    Kernel,
    /// The paper's design: userspace datapath fed by AF_XDP.
    UserspaceAfxdp { opt: OptLevel, interrupt_mode: bool },
}

/// Host construction parameters.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host id (1 or 2); tags MACs and IPs.
    pub id: u8,
    /// The peer's host id.
    pub remote_id: u8,
    /// VTEP address of this host.
    pub vtep_ip: [u8; 4],
    /// Uplink NIC speed.
    pub nic_gbps: f64,
    /// Datapath architecture.
    pub datapath: DatapathKind,
    /// VM attachment type (kernel mode always uses taps).
    pub attachment: VmAttachment,
    /// Guest application role.
    pub guest_role: GuestRole,
    /// NSX rule-set configuration.
    pub nsx: NsxConfig,
    /// Host CPU count.
    pub cpus: usize,
    /// Core for PMD / upcall-handler work.
    pub switch_core: usize,
    /// First core for guest vCPUs.
    pub guest_core_base: usize,
}

impl HostConfig {
    /// The paper's §5.1 host: 8 cores + HT (16 threads), 10 GbE uplink.
    pub fn nsx_default(id: u8, datapath: DatapathKind, attachment: VmAttachment) -> Self {
        Self {
            id,
            remote_id: 3 - id,
            vtep_ip: [172, 16, 0, id],
            nic_gbps: 10.0,
            datapath,
            attachment,
            guest_role: GuestRole::Echo,
            nsx: NsxConfig {
                local_vtep: [172, 16, 0, id],
                remote_vtep: [172, 16, 0, 3 - id],
                ..NsxConfig::default()
            },
            cpus: 16,
            switch_core: 1,
            guest_core_base: 8,
        }
    }

    /// [`HostConfig::nsx_default`] scaled down for tests and soaks: 2 VMs,
    /// 4 Geneve tunnels, 800 rules.
    pub fn nsx_small(id: u8, datapath: DatapathKind, attachment: VmAttachment) -> Self {
        let mut cfg = Self::nsx_default(id, datapath, attachment);
        cfg.nsx.vms = 2;
        cfg.nsx.tunnels = 4;
        cfg.nsx.target_rules = 800;
        cfg
    }
}

/// Everything needed to (re)construct the userspace datapath from
/// scratch: the supervisor's restart path replays exactly this, the way
/// a restarted `ovs-vswitchd` re-reads the ovsdb and re-syncs OpenFlow
/// rules from the controller.
#[derive(Clone)]
struct DpBlueprint {
    id: u8,
    remote_id: u8,
    vtep_ip: [u8; 4],
    nsx: NsxConfig,
    opt: OptLevel,
    interrupt_mode: bool,
    uplink_if: u32,
    taps: Vec<Option<u32>>,
    guest_of_vif: Vec<usize>,
    ports: NsxPorts,
}

/// Construct the userspace datapath from its blueprint: ports opened
/// (walking the AF_XDP degradation ladder), the NSX rule set installed,
/// Netlink replica caches synced. Used for initial build and for every
/// supervised restart.
fn build_userspace_dp(kernel: &mut Kernel, bp: &DpBlueprint) -> (DpifNetdev, RulesetStats) {
    let mut dp = DpifNetdev::new();
    let p_up = dp.add_port_afxdp(kernel, "eth0", bp.uplink_if, 4096, bp.opt);
    assert_eq!(p_up, bp.ports.uplink);
    if bp.interrupt_mode {
        if let Some(p) = dp.port_mut(p_up) {
            if let PortType::Afxdp(a) = &mut p.ty {
                for s in &mut a.sockets {
                    s.interrupt_mode = true;
                }
            }
        }
    }
    let p_tun = dp.add_port(
        "gnv0",
        PortType::Tunnel(TunnelConfig {
            kind: TunnelKind::Geneve,
            local_ip: bp.vtep_ip,
        }),
    );
    assert_eq!(p_tun, bp.ports.tunnel);
    for (i, tap) in bp.taps.iter().enumerate() {
        let p = match tap {
            Some(t) => dp.add_port(&format!("tap{i}"), PortType::Tap { ifindex: *t }),
            None => dp.add_port(
                &format!("vhost{i}"),
                PortType::VhostUser(VhostUserDev::new(bp.guest_of_vif[i])),
            ),
        };
        assert_eq!(p, bp.ports.vifs[i]);
    }
    let mut of = ovs_core::Ofproto::new();
    let stats = ruleset::install(&bp.nsx, &bp.ports, bp.id, bp.remote_id, &mut of);
    dp.ofproto = of;
    dp.sync_rtnl(kernel);
    (dp, stats)
}

/// A built hypervisor.
pub struct Host {
    /// The simulated kernel (devices, guests, time, CPUs).
    pub kernel: Kernel,
    /// Userspace datapath (when running `UserspaceAfxdp`). `None` while
    /// a supervised datapath is down (crashed / backing off).
    pub dp: Option<DpifNetdev>,
    /// Kernel-datapath driver (when running `Kernel`).
    pub netlink: Option<DpifNetlink>,
    /// The datapath supervisor, when enabled; routes every PMD poll
    /// through its unwind boundary.
    pub health: Option<HealthMonitor>,
    /// The PMD scheduler driving the userspace datapath's polls (one
    /// PMD thread on `switch_core`, every port rxq assigned to it).
    /// `None` on a kernel-datapath host.
    pub pmds: Option<PmdSet>,
    /// Uplink NIC ifindex.
    pub uplink_if: u32,
    /// Datapath port numbers (same layout for both modes).
    pub ports: NsxPorts,
    /// Guest index per VIF.
    pub guest_of_vif: Vec<usize>,
    /// Rule-set statistics.
    pub ruleset: RulesetStats,
    /// The switch's core.
    pub switch_core: usize,
    /// The modeled NSX controller session, when connected; rides
    /// `ControllerDisconnect` faults and applies the fail-mode ladder.
    pub controller: Option<ControllerSession>,
    blueprint: Option<DpBlueprint>,
}

impl Host {
    /// Build a host per the configuration.
    pub fn build(cfg: &HostConfig) -> Host {
        let mut kernel = Kernel::new(cfg.cpus);
        kernel.config.rss_cores = vec![0];
        kernel.config.host_stack_core = 0;

        let uplink_mac = MacAddr::new(4, 0, 0, 0, 0, cfg.id);
        let uplink_if = kernel.add_device(NetDevice::new(
            "eth0",
            uplink_mac,
            DeviceKind::Phys {
                link_gbps: cfg.nic_gbps,
            },
            1,
        ));
        kernel.add_addr(uplink_if, cfg.vtep_ip, 24);

        let nvifs = cfg.nsx.vms * 2;
        let attachment = match cfg.datapath {
            DatapathKind::Kernel => VmAttachment::Tap,
            _ => cfg.attachment,
        };

        // Create guests and their attachment devices.
        let mut taps = Vec::new();
        let mut guest_of_vif = Vec::new();
        for i in 0..nvifs {
            let gmac = ruleset::vm_mac(cfg.id, i / 2, i % 2);
            let gip = ruleset::vm_ip(cfg.id, i / 2, i % 2);
            let core = cfg.guest_core_base + (i % (cfg.cpus - cfg.guest_core_base).max(1));
            match attachment {
                VmAttachment::Tap => {
                    let tap = kernel.add_device(NetDevice::new(
                        &format!("tap{i}"),
                        gmac,
                        DeviceKind::Tap,
                        1,
                    ));
                    let g = kernel.add_guest(Guest::new(
                        &format!("vm{}-{}", i / 2, i % 2),
                        gmac,
                        gip,
                        cfg.guest_role,
                        VirtioBackend::VhostNet { tap_ifindex: tap },
                        core,
                    ));
                    taps.push(Some(tap));
                    guest_of_vif.push(g);
                }
                VmAttachment::VhostUser => {
                    let g = kernel.add_guest(Guest::new(
                        &format!("vm{}-{}", i / 2, i % 2),
                        gmac,
                        gip,
                        cfg.guest_role,
                        VirtioBackend::VhostUser,
                        core,
                    ));
                    taps.push(None);
                    guest_of_vif.push(g);
                }
            }
        }

        let ports = NsxPorts {
            vifs: (2..(2 + nvifs as PortNo)).collect(),
            tunnel: 1,
            uplink: 0,
        };

        let (dp, netlink, ruleset_stats, blueprint) = match cfg.datapath {
            DatapathKind::UserspaceAfxdp {
                opt,
                interrupt_mode,
            } => {
                let bp = DpBlueprint {
                    id: cfg.id,
                    remote_id: cfg.remote_id,
                    vtep_ip: cfg.vtep_ip,
                    nsx: cfg.nsx.clone(),
                    opt,
                    interrupt_mode,
                    uplink_if,
                    taps: taps.clone(),
                    guest_of_vif: guest_of_vif.clone(),
                    ports: ports.clone(),
                };
                let (dp, stats) = build_userspace_dp(&mut kernel, &bp);
                (Some(dp), None, stats, Some(bp))
            }
            DatapathKind::Kernel => {
                // Kernel datapath: uplink + geneve vport + taps as vports.
                let p_up = kernel.ovs.add_vport(Vport::Netdev { ifindex: uplink_if });
                assert_eq!(p_up, ports.uplink);
                let p_tun = kernel.ovs.add_vport(Vport::Geneve {
                    local_ip: cfg.vtep_ip,
                });
                assert_eq!(p_tun, ports.tunnel);
                kernel.dev_mut(uplink_if).attachment = Attachment::OvsBridge { port: p_up };
                for (i, tap) in taps.iter().enumerate() {
                    let t = tap.expect("kernel mode uses taps");
                    let p = kernel.ovs.add_vport(Vport::Netdev { ifindex: t });
                    assert_eq!(p, ports.vifs[i]);
                    kernel.dev_mut(t).attachment = Attachment::OvsBridge { port: p };
                }
                let mut nl = DpifNetlink::new(cfg.vtep_ip);
                let stats =
                    ruleset::install(&cfg.nsx, &ports, cfg.id, cfg.remote_id, &mut nl.ofproto);
                (None, Some(nl), stats, None)
            }
        };

        // Userspace hosts poll through the PMD scheduler: one PMD
        // thread on the switch core, every datapath port's queue 0
        // assigned to it (uplink, tunnel, vifs — registration order is
        // poll order).
        let pmds = dp.as_ref().map(|_| {
            let mut set = PmdSet::new(&[cfg.switch_core], AssignmentPolicy::RoundRobin);
            for p in 0..(nvifs + 2) as PortNo {
                set.add_rxq(p, 0);
            }
            set.rebalance();
            set
        });

        Host {
            kernel,
            dp,
            netlink,
            health: None,
            pmds,
            uplink_if,
            ports,
            guest_of_vif,
            ruleset: ruleset_stats,
            switch_core: cfg.switch_core,
            controller: None,
            blueprint,
        }
    }

    /// Attach a modeled controller session with the given fail mode. The
    /// standalone fallback rule set is generated from this host's
    /// blueprint (L2 forwarding by destination MAC only). Requires the
    /// userspace datapath.
    pub fn connect_controller(&mut self, fail_mode: FailMode) {
        let bp = self
            .blueprint
            .as_ref()
            .expect("controller session requires the userspace datapath");
        let fallback = ruleset::standalone_fallback(&bp.nsx, &bp.ports, bp.id, bp.remote_id);
        self.controller = Some(ControllerSession::new(fail_mode, fallback, 0));
    }

    /// Put the userspace datapath under [`HealthMonitor`] supervision:
    /// every PMD poll from [`Host::pump`] then runs behind the
    /// supervisor's unwind boundary, and a crashed datapath is rebuilt
    /// from this host's blueprint after the backoff elapses.
    ///
    /// Panics on a kernel-datapath host (there is nothing to supervise:
    /// a kernel datapath bug takes the whole machine, which is the
    /// paper's point).
    pub fn enable_supervision(&mut self, initial_backoff_ns: u64, restart_budget: u64) {
        let bp = self
            .blueprint
            .clone()
            .expect("supervision requires the userspace datapath");
        self.health = Some(HealthMonitor::with_policy(
            move |k| build_userspace_dp(k, &bp).0,
            initial_backoff_ns,
            restart_budget,
        ));
    }

    /// Teach this host how to reach a peer VTEP (ARP + route), as the
    /// underlay control plane would.
    pub fn peer(&mut self, vtep_ip: [u8; 4], mac: MacAddr) {
        ovs_kernel::tools::ip_neigh_add(&mut self.kernel, vtep_ip, mac, "eth0")
            .expect("uplink exists");
        if let Some(dp) = &mut self.dp {
            dp.sync_rtnl(&self.kernel);
        }
    }

    /// The uplink's MAC (for peering).
    pub fn uplink_mac(&self) -> MacAddr {
        self.kernel.device(self.uplink_if).mac
    }

    /// Run switch + guest work until quiescent (bounded): PMD polls /
    /// upcall handling, vhost-net servicing, guest execution, vhostuser
    /// draining. Returns packets moved.
    pub fn pump(&mut self) -> usize {
        let mut total = 0;
        for _round in 0..64 {
            // Fire and clear any timed faults that have come due.
            self.kernel.fault_tick();
            // Advance the controller session against the fault plane
            // before polling, so a disconnect's fail mode is in force
            // for this round's packets.
            if let (Some(ctl), Some(dp)) = (self.controller.as_mut(), self.dp.as_mut()) {
                ctl.tick(dp, &self.kernel.sim.faults, self.kernel.sim.clock.now_ns());
            }
            let mut moved = 0;
            if let Some(h) = &mut self.health {
                // Supervised: every poll crosses the unwind boundary,
                // and polling while down drives the restart clock.
                let pmds = self.pmds.as_mut().expect("userspace host has a scheduler");
                moved += pmds.run_round_supervised(h, &mut self.dp, &mut self.kernel);
            } else if let Some(dp) = &mut self.dp {
                // Poll every port (uplink, taps, vhostuser) through the
                // scheduler, with per-PMD caches swapped in.
                let pmds = self.pmds.as_mut().expect("userspace host has a scheduler");
                moved += pmds.run_round(dp, &mut self.kernel);
            }
            if let Some(nl) = &mut self.netlink {
                moved += nl.handle_upcalls(&mut self.kernel, self.switch_core);
            }
            // Service guests.
            for g in 0..self.kernel.guests.len() {
                match self.kernel.guests[g].backend {
                    VirtioBackend::VhostNet { .. } => {
                        moved += self.kernel.vhost_net_service(g);
                    }
                    VirtioBackend::VhostUser => {
                        moved += self.kernel.run_guest(g);
                        // Frames awaiting the switch's vhost poll count as
                        // pending work for the next round.
                        moved += self.kernel.guests[g].tx_ring.len();
                    }
                }
            }
            if moved == 0 {
                break;
            }
            total += moved;
        }
        total
    }

    /// Take all frames this host has put on the uplink wire.
    pub fn wire_take(&mut self) -> Vec<Vec<u8>> {
        self.kernel
            .dev_mut(self.uplink_if)
            .tx_wire
            .drain(..)
            .collect()
    }

    /// Deliver one frame arriving on the uplink.
    pub fn wire_inject(&mut self, frame: Vec<u8>) {
        self.kernel.receive(self.uplink_if, 0, frame);
    }

    /// One revalidator sweep over the userspace datapath, including the
    /// PMD-side purge of dead-flagged cache entries. Returns `None` on a
    /// kernel-datapath host or while the datapath is down.
    pub fn revalidate(&mut self) -> Option<ovs_core::SweepSummary> {
        let dp = self.dp.as_mut()?;
        let core = self.switch_core;
        match self.pmds.as_mut() {
            Some(pmds) => Some(pmds.revalidate(dp, &mut self.kernel, core)),
            None => Some(dp.revalidate(&mut self.kernel, core)),
        }
    }

    /// Run an `ovs-appctl` command against this host's userspace
    /// datapath (health supervisor and PMD scheduler attached).
    pub fn appctl(&mut self, cmd: &str, args: &[&str]) -> Result<String, String> {
        let Some(dp) = self.dp.as_mut() else {
            return Err("datapath is down".to_string());
        };
        ovs_core::appctl::dispatch_ctl(
            dp,
            &mut self.kernel,
            self.health.as_ref(),
            self.pmds.as_mut(),
            self.controller.as_mut(),
            cmd,
            args,
        )
    }
}

/// The §5.1 testbed: host 1 and host 2 wired back to back, each VTEP
/// peered with the other's.
pub struct HostPair {
    /// Host 1, built from `cfg(1)`.
    pub h1: Host,
    /// Host 2, built from `cfg(2)`.
    pub h2: Host,
    wired_1to2: u64,
}

impl HostPair {
    /// Build host 1 from `cfg(1)` and host 2 from `cfg(2)`, then peer
    /// their VTEPs.
    pub fn new(cfg: impl Fn(u8) -> HostConfig) -> HostPair {
        let (c1, c2) = (cfg(1), cfg(2));
        let mut h1 = Host::build(&c1);
        let mut h2 = Host::build(&c2);
        h1.peer(c2.vtep_ip, h2.uplink_mac());
        h2.peer(c1.vtep_ip, h1.uplink_mac());
        HostPair {
            h1,
            h2,
            wired_1to2: 0,
        }
    }

    /// Carry every frame on the wire to the other host, host 1's first.
    /// Returns the frames carried.
    fn wire(&mut self) -> usize {
        let mut moved = 0;
        for f in self.h1.wire_take() {
            self.h2.wire_inject(f);
            moved += 1;
        }
        self.wired_1to2 += moved as u64;
        for f in self.h2.wire_take() {
            self.h1.wire_inject(f);
            moved += 1;
        }
        moved
    }

    /// One soak round: pump both hosts, carry the wire, pump both again.
    /// Returns the work the four pumps reported.
    pub fn shuttle(&mut self) -> usize {
        let moved = self.h1.pump() + self.h2.pump();
        self.wire();
        moved + self.h1.pump() + self.h2.pump()
    }

    /// Pump both hosts and carry the wire until neither moves anything
    /// (at most 32 rounds). Each round pumps once, unlike
    /// [`HostPair::shuttle`]; goldens count PMD iterations, so the two
    /// are not interchangeable.
    pub fn settle(&mut self) {
        for _ in 0..32 {
            let moved = self.h1.pump() + self.h2.pump();
            if moved + self.wire() == 0 {
                break;
            }
        }
    }

    /// Frames carried from host 1 to host 2 since the pair was built.
    pub fn wired_1to2(&self) -> u64 {
        self.wired_1to2
    }

    /// Advance both hosts' virtual clocks.
    pub fn advance(&mut self, ns: u64) {
        self.h1.kernel.sim.clock.advance(ns);
        self.h2.kernel.sim.clock.advance(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::builder;

    const AFXDP: DatapathKind = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };

    #[test]
    fn cross_host_vm_traffic_userspace_datapath() {
        let mut pair =
            HostPair::new(|id| HostConfig::nsx_small(id, AFXDP, VmAttachment::VhostUser));

        // VM0 on host 1 sends to VM0 on host 2.
        let g = pair.h1.guest_of_vif[0];
        pair.h1.kernel.guests[g]
            .tx_ring
            .push_back(ruleset::vm_udp_frame(1, 2));
        pair.settle();
        let (h1, h2) = (&pair.h1, &pair.h2);

        let dp1 = h1.dp.as_ref().unwrap();
        assert!(dp1.stats.tunnel_encaps >= 1, "egress was tunnelled");
        let dp2 = h2.dp.as_ref().unwrap();
        assert!(dp2.stats.tunnel_decaps >= 1, "ingress was decapsulated");
        // The destination guest received the frame, and its echo reply
        // came back across the overlay.
        let g2 = h2.guest_of_vif[0];
        assert!(
            h2.kernel.guests[g2].rx_count >= 1,
            "remote VM got the packet"
        );
        assert!(h1.kernel.guests[g].rx_count >= 1, "sender got the reply");
        // Firewall tracked the connection on both hosts.
        assert!(!dp1.ct.is_empty());
        assert!(dp1.stats.recirculations >= 2, "three datapath passes");
    }

    #[test]
    fn receive_only_uplink_stops_allocating_descriptors() {
        // Host 2's uplink only receives: every frame takes a descriptor
        // at the AF_XDP rx and the vhost copy-out into the sink returns
        // it. With one pool per datapath the descriptors come back, so
        // after warm-up nothing is allocated over three times the pool's
        // bound of received frames. (A per-socket pool ran dry after
        // `nframes` frames and allocated for every frame after.)
        let mut pair = HostPair::new(|id| {
            let mut cfg = HostConfig::nsx_small(id, AFXDP, VmAttachment::VhostUser);
            if id == 2 {
                cfg.guest_role = ovs_kernel::guest::GuestRole::Sink;
            }
            cfg
        });
        let sender = pair.h1.guest_of_vif[0];
        let bound = pair.h2.dp.as_ref().unwrap().packet_pool().bound();
        assert_eq!(bound, 4096, "the uplink's umem frames");
        let fresh = |h: &Host| h.dp.as_ref().unwrap().packet_pool().fresh_allocs;
        let mut warm = [0; 2];
        for burst in 0..3 * bound / 32 {
            for i in 0..32 {
                let mut f = ruleset::vm_udp_frame(1, 2);
                // One flow per run of 4 frames, 512 flows: UDP source
                // port, checksum left as is (nothing here verifies it).
                let sport = 5000 + ((burst * 32 + i) / 4 % 512) as u16;
                f[34..36].copy_from_slice(&sport.to_be_bytes());
                pair.h1.kernel.guests[sender].tx_ring.push_back(f);
            }
            pair.shuttle();
            pair.advance(1_000_000);
            if burst == 16 {
                warm = [fresh(&pair.h1), fresh(&pair.h2)];
            }
        }
        let sink = pair.h2.guest_of_vif[0];
        assert_eq!(pair.h2.kernel.guests[sink].rx_count, 3 * bound as u64);
        assert_eq!(fresh(&pair.h2), warm[1], "host 2 allocated after warm-up");
        assert_eq!(fresh(&pair.h1), warm[0], "host 1 allocated after warm-up");
        assert!(pair.h2.dp.as_ref().unwrap().packet_pool().available() <= bound);
    }

    #[test]
    fn cross_host_vm_traffic_kernel_datapath() {
        let mut pair =
            HostPair::new(|id| HostConfig::nsx_small(id, DatapathKind::Kernel, VmAttachment::Tap));

        let g = pair.h1.guest_of_vif[0];
        pair.h1.kernel.guests[g]
            .tx_ring
            .push_back(ruleset::vm_udp_frame(1, 2));
        pair.settle();
        let (h1, h2) = (&pair.h1, &pair.h2);

        assert!(
            h1.kernel.ovs.stats.tunnel_encaps >= 1,
            "kernel dp tunnelled"
        );
        assert!(h2.kernel.ovs.stats.tunnel_decaps >= 1);
        assert!(
            h1.kernel.ovs.flow_count() >= 1,
            "megaflows installed in the kernel"
        );
        let g2 = h2.guest_of_vif[0];
        assert!(
            h2.kernel.guests[g2].rx_count >= 1,
            "remote VM got the packet"
        );
        assert!(h1.kernel.guests[g].rx_count >= 1, "sender got the reply");
    }

    #[test]
    fn intra_host_vm_to_vm() {
        let mut h1 = Host::build(&HostConfig::nsx_small(1, AFXDP, VmAttachment::VhostUser));
        // VM0 iface0 -> VM0 iface1 (both local).
        let f = builder::udp_ipv4_frame(
            ruleset::vm_mac(1, 0, 0),
            ruleset::vm_mac(1, 0, 1),
            ruleset::vm_ip(1, 0, 0),
            ruleset::vm_ip(1, 0, 1),
            1111,
            2222,
            200,
        );
        let g = h1.guest_of_vif[0];
        h1.kernel.guests[g].tx_ring.push_back(f);
        h1.pump();
        let g1 = h1.guest_of_vif[1];
        assert!(h1.kernel.guests[g1].rx_count >= 1, "local delivery");
        assert_eq!(
            h1.dp.as_ref().unwrap().stats.tunnel_encaps,
            0,
            "no tunnel for local"
        );
    }
}
