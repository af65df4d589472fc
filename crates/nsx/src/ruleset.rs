//! The production-shape rule-set generator (Table 3).

use ovs_core::ofproto::{OfAction, OfRule, Ofproto};
use ovs_core::PortNo;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{EtherType, MacAddr};
use ovs_sim::SimRng;

/// Datapath port layout the rule set is generated against.
#[derive(Debug, Clone)]
pub struct NsxPorts {
    /// VM interface ports (two per VM).
    pub vifs: Vec<PortNo>,
    /// The Geneve tunnel port.
    pub tunnel: PortNo,
    /// The physical uplink port.
    pub uplink: PortNo,
}

/// Generator configuration; defaults reproduce Table 3 exactly.
#[derive(Debug, Clone)]
pub struct NsxConfig {
    /// Number of VMs (each with two interfaces).
    pub vms: usize,
    /// Number of Geneve tunnels (remote VTEPs × logical switches).
    pub tunnels: usize,
    /// Total OpenFlow rules to install.
    pub target_rules: usize,
    /// This hypervisor's VTEP address.
    pub local_vtep: [u8; 4],
    /// The peer hypervisor's VTEP (used by the functional forwarding
    /// rules for remote VMs).
    pub remote_vtep: [u8; 4],
    /// Deterministic seed for filler-rule synthesis.
    pub seed: u64,
}

impl Default for NsxConfig {
    fn default() -> Self {
        Self {
            vms: 15,
            tunnels: 291,
            target_rules: 103_302,
            local_vtep: [172, 16, 0, 1],
            remote_vtep: [172, 16, 0, 2],
            seed: 0x4e53_5821,
        }
    }
}

/// Shape statistics of a generated rule set (compare with Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RulesetStats {
    pub geneve_tunnels: usize,
    pub vms: usize,
    pub rules: usize,
    pub tables: usize,
    pub matching_fields: usize,
}

/// Pipeline table ids. 40 populated tables, as in Table 3.
pub mod tables {
    /// Classification (in_port dispatch).
    pub const CLASSIFY: u8 = 0;
    /// Egress (VM→net) DFW conntrack send.
    pub const EGRESS_CT: u8 = 1;
    /// Tunnel ingress: VNI → logical switch.
    pub const TUN_INGRESS: u8 = 2;
    /// Ingress (net→VM) DFW conntrack send.
    pub const INGRESS_CT: u8 = 3;
    /// Service-insertion chain (pass-through by default).
    pub const SERVICE_CHAIN: core::ops::RangeInclusive<u8> = 4..=9;
    /// DFW verdict after egress ct recirculation.
    pub const EGRESS_VERDICT: u8 = 10;
    /// First egress DFW section (allow rules + filler sections 11..=18).
    pub const EGRESS_SECTIONS: core::ops::RangeInclusive<u8> = 11..=18;
    /// DFW verdict after ingress ct recirculation.
    pub const INGRESS_VERDICT: u8 = 19;
    /// L2/L3 forwarding.
    pub const FORWARD: u8 = 20;
    /// Address-set / service tables holding the bulk of the rules.
    pub const SERVICES: core::ops::RangeInclusive<u8> = 21..=38;
    /// Tunnel output helpers.
    pub const TUN_OUTPUT: u8 = 39;
}

/// MAC address of VM `i` interface `j` on hypervisor `host`.
pub fn vm_mac(host: u8, vm: usize, iface: usize) -> MacAddr {
    MacAddr::new(0x52, host, 0, vm as u8, iface as u8, 0x01)
}

/// Overlay IP of VM `i` interface `j` on hypervisor `host`.
pub fn vm_ip(host: u8, vm: usize, iface: usize) -> [u8; 4] {
    [10, 100 + host, (vm * 2 + iface) as u8, 2]
}

/// The 200 B UDP datagram (port 3333 → 4444) from VM 0 interface 0 on
/// hypervisor `src` to VM 0 interface 0 on hypervisor `dst`.
pub fn vm_udp_frame(src: u8, dst: u8) -> Vec<u8> {
    ovs_packet::builder::udp_ipv4_frame(
        vm_mac(src, 0, 0),
        vm_mac(dst, 0, 0),
        vm_ip(src, 0, 0),
        vm_ip(dst, 0, 0),
        3333,
        4444,
        200,
    )
}

/// The VNI used for logical switch `i`.
pub fn vni_of(i: usize) -> u64 {
    5000 + i as u64
}

/// Remote VTEP address for tunnel `i`.
pub fn remote_vtep(i: usize) -> [u8; 4] {
    [172, 16, 1 + (i / 250) as u8, (i % 250) as u8 + 2]
}

/// A mask matching only the given `ct_state` bits (OVS `ct_state=+new`
/// style single-bit matches).
fn ct_state_bit_mask(bits: u8) -> FlowMask {
    let mut w = [0u64; ovs_packet::flow::WORDS];
    w[10] = u64::from(bits) << 56;
    FlowMask::from_words(w)
}

/// Install the NSX-shaped pipeline into `ofproto`. `local_host` tags the
/// MACs/IPs of local VMs; `remote_host` those behind the tunnels.
///
/// Returns shape statistics (which a correct generator makes equal to
/// Table 3 under the default config).
pub fn install(
    cfg: &NsxConfig,
    ports: &NsxPorts,
    local_host: u8,
    remote_host: u8,
    of: &mut Ofproto,
) -> RulesetStats {
    fn add(of: &mut Ofproto, rules: &mut usize, r: OfRule) {
        of.add_rule(r);
        *rules += 1;
    }
    let mut rng = SimRng::new(cfg.seed);
    let mut rules = 0usize;

    // ---------------- Table 0: classification ----------------
    // Tunnel traffic → tunnel ingress processing.
    let mut k = FlowKey::default();
    k.set_in_port(ports.tunnel);
    add(
        of,
        &mut rules,
        OfRule {
            table: tables::CLASSIFY,
            priority: 100,
            key: k,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![OfAction::Goto(tables::TUN_INGRESS)],
            cookie: 0,
        },
    );
    // Per-VIF classification: stamp the logical-switch metadata.
    for (i, &vif) in ports.vifs.iter().enumerate() {
        let mut k = FlowKey::default();
        k.set_in_port(vif);
        add(
            of,
            &mut rules,
            OfRule {
                table: tables::CLASSIFY,
                priority: 90,
                key: k,
                mask: FlowMask::of_fields(&[&fields::IN_PORT]),
                actions: vec![
                    OfAction::SetMetadata(vni_of(i % cfg.vms)),
                    OfAction::Goto(*tables::SERVICE_CHAIN.start()),
                ],
                cookie: 1,
            },
        );
    }

    // ---------------- Tables 4–9: service-insertion chain ----------------
    // Pass-through tables where third-party services (DPI engines, §4)
    // would hook in; the default policy is a match-all continue.
    for t in tables::SERVICE_CHAIN.clone() {
        let next = if t == *tables::SERVICE_CHAIN.end() {
            tables::EGRESS_CT
        } else {
            t + 1
        };
        add(
            of,
            &mut rules,
            OfRule {
                table: t,
                priority: 0,
                key: FlowKey::default(),
                mask: FlowMask::EMPTY,
                actions: vec![OfAction::Goto(next)],
                cookie: 11,
            },
        );
    }

    // ---------------- Table 1: egress DFW conntrack ----------------
    for (i, &vif) in ports.vifs.iter().enumerate() {
        let mut k = FlowKey::default();
        k.set_in_port(vif);
        add(
            of,
            &mut rules,
            OfRule {
                table: tables::EGRESS_CT,
                priority: 50,
                key: k,
                mask: FlowMask::of_fields(&[&fields::IN_PORT]),
                actions: vec![OfAction::Ct {
                    zone: (i + 1) as u16,
                    commit: false,
                    resume_table: tables::EGRESS_VERDICT,
                    nat: None,
                }],
                cookie: 2,
            },
        );
    }

    // ---------------- Table 2: tunnel ingress (per-VNI) ----------------
    for t in 0..cfg.tunnels {
        let mut k = FlowKey::default();
        k.set_in_port(ports.tunnel);
        k.set_tun_id(vni_of(t));
        add(
            of,
            &mut rules,
            OfRule {
                table: tables::TUN_INGRESS,
                priority: 50,
                key: k,
                mask: FlowMask::of_fields(&[&fields::IN_PORT, &fields::TUN_ID]),
                actions: vec![
                    OfAction::SetMetadata(vni_of(t % cfg.vms)),
                    OfAction::Goto(tables::INGRESS_CT),
                ],
                cookie: 3,
            },
        );
    }

    // ---------------- Table 3: ingress DFW conntrack ----------------
    add(
        of,
        &mut rules,
        OfRule {
            table: tables::INGRESS_CT,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Ct {
                zone: 100,
                commit: false,
                resume_table: tables::INGRESS_VERDICT,
                nat: None,
            }],
            cookie: 4,
        },
    );

    // ---------------- DFW verdicts ----------------
    for (verdict_table, section_start) in [
        (tables::EGRESS_VERDICT, *tables::EGRESS_SECTIONS.start()),
        (tables::INGRESS_VERDICT, *tables::EGRESS_SECTIONS.start()),
    ] {
        // Established traffic short-circuits to forwarding
        // (ct_state=+est, a single-bit match).
        let mut k = FlowKey::default();
        k.set_ct_state(ovs_packet::dp_packet::ct_state::ESTABLISHED);
        add(
            of,
            &mut rules,
            OfRule {
                table: verdict_table,
                priority: 200,
                key: k,
                mask: ct_state_bit_mask(ovs_packet::dp_packet::ct_state::ESTABLISHED),
                actions: vec![OfAction::Goto(tables::FORWARD)],
                cookie: 5,
            },
        );
        // New connections walk the firewall sections (ct_state=+new).
        let mut k = FlowKey::default();
        k.set_ct_state(ovs_packet::dp_packet::ct_state::NEW);
        add(
            of,
            &mut rules,
            OfRule {
                table: verdict_table,
                priority: 150,
                key: k,
                mask: ct_state_bit_mask(ovs_packet::dp_packet::ct_state::NEW),
                actions: vec![OfAction::Goto(section_start)],
                cookie: 5,
            },
        );
    }

    // ---------------- DFW allow rules (functional) ----------------
    // IPv4 traffic is allowed: commit and continue to forwarding. The
    // egress zone is per-VIF but commit in a shared zone keeps this
    // simple and still exercises ct.
    let mut k = FlowKey::default();
    k.set_eth_type(EtherType::Ipv4);
    add(
        of,
        &mut rules,
        OfRule {
            table: *tables::EGRESS_SECTIONS.start(),
            priority: 10,
            key: k,
            mask: FlowMask::of_fields(&[&fields::ETH_TYPE]),
            actions: vec![OfAction::Ct {
                zone: 100,
                commit: true,
                resume_table: tables::FORWARD,
                nat: None,
            }],
            cookie: 6,
        },
    );

    // ---------------- Table 20: forwarding ----------------
    // Local VMs by destination MAC.
    for (i, &vif) in ports.vifs.iter().enumerate() {
        let mut k = FlowKey::default();
        k.set_dl_dst(vm_mac(local_host, i / 2, i % 2));
        add(
            of,
            &mut rules,
            OfRule {
                table: tables::FORWARD,
                priority: 60,
                key: k,
                mask: FlowMask::of_fields(&[&fields::DL_DST]),
                actions: vec![OfAction::Output(vif)],
                cookie: 7,
            },
        );
    }
    // Remote VMs: tunnel out. One rule per remote interface.
    for i in 0..cfg.vms * 2 {
        let mut k = FlowKey::default();
        k.set_dl_dst(vm_mac(remote_host, i / 2, i % 2));
        add(
            of,
            &mut rules,
            OfRule {
                table: tables::FORWARD,
                priority: 60,
                key: k,
                mask: FlowMask::of_fields(&[&fields::DL_DST]),
                actions: vec![
                    OfAction::SetTunnel {
                        id: vni_of(i % cfg.vms),
                        dst: cfg.remote_vtep,
                    },
                    OfAction::Goto(tables::TUN_OUTPUT),
                ],
                cookie: 8,
            },
        );
    }

    // ---------------- Table 39: tunnel output ----------------
    add(
        of,
        &mut rules,
        OfRule {
            table: tables::TUN_OUTPUT,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Output(ports.tunnel)],
            cookie: 9,
        },
    );

    // ---------------- Field-coverage rules ----------------
    // A handful of never-matching rules whose masks ensure the rule set
    // exercises the full production field surface (31 distinct fields:
    // everything except nw_frag). They sit at priority 1 behind the
    // functional rules.
    let coverage_masks: Vec<FlowMask> = vec![
        FlowMask::of_fields(&[&fields::DL_SRC, &fields::VLAN_TCI]),
        FlowMask::of_fields(&[
            &fields::NW_SRC_HI,
            &fields::NW_SRC_LO64,
            &fields::NW_DST_HI,
            &fields::NW_DST_LO64,
        ]),
        FlowMask::of_fields(&[&fields::NW_TOS, &fields::NW_TTL, &fields::NW_PROTO]),
        FlowMask::of_fields(&[&fields::TP_SRC, &fields::TP_DST]),
        FlowMask::of_fields(&[&fields::TUN_SRC, &fields::TUN_DST]),
        FlowMask::of_fields(&[&fields::CT_ZONE, &fields::CT_MARK]),
        FlowMask::of_fields(&[&fields::CT_STATE, &fields::RECIRC_ID]),
    ];
    for (i, m) in coverage_masks.iter().enumerate() {
        let mut k = FlowKey::default();
        k.set_nw_src_v6([0xfd; 16]); // never used by test traffic
        k.set_nw_tos(0xfc);
        k.set_tp_dst(61000 + i as u16);
        k.set_tun_src([203, 0, 113, 1]);
        k.set_ct_zone(60000);
        k.set_ct_state(0xff);
        k.set_recirc_id(0xdead_0000 + i as u32);
        add(
            of,
            &mut rules,
            OfRule {
                table: *tables::SERVICES.start(),
                priority: 1,
                key: k,
                mask: *m,
                actions: vec![OfAction::Drop],
                cookie: 10,
            },
        );
    }

    // ---------------- Filler: DFW sections + address sets ----------------
    // The remaining budget is production-grade filler: specific 5-tuple
    // and address-set rules over benchmark address space (198.18.0.0/15,
    // RFC 2544) that test traffic never hits. Spread across the DFW
    // section tables and service tables so all 40 tables are populated.
    let mut filler_tables: Vec<u8> = Vec::new();
    filler_tables.extend(tables::EGRESS_SECTIONS.clone());
    filler_tables.extend(tables::SERVICES.clone());
    // Sanity: together with the backbone tables this makes 40 populated
    // tables (0,1,2,3,10..=19,20,21..=38,39).
    let budget = cfg.target_rules.saturating_sub(rules);
    let mut five_tuple_mask =
        FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_DST]);
    five_tuple_mask.set_nw_src_v4_prefix(32);
    five_tuple_mask.set_nw_dst_v4_prefix(32);
    let mut addrset_mask = FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::METADATA]);
    addrset_mask.set_nw_dst_v4_prefix(24);

    for n in 0..budget {
        let table = filler_tables[n % filler_tables.len()];
        let mut k = FlowKey::default();
        k.set_eth_type(EtherType::Ipv4);
        // 198.18.0.0/15 benchmark space — disjoint from workload traffic.
        // Keys are derived from `n` injectively so no two filler rules
        // collide (a collision would silently replace a rule).
        if n % 3 == 0 {
            k.set_nw_dst_v4([198, 18, (n >> 8) as u8, 0]);
            k.set_metadata(0x1_0000_0000 | n as u64); // unique address-set id
            add(
                of,
                &mut rules,
                OfRule {
                    table,
                    priority: 5 + (n % 50) as i32,
                    key: k,
                    mask: addrset_mask,
                    actions: vec![OfAction::Drop],
                    cookie: 0xf00d,
                },
            );
        } else {
            k.set_nw_src_v4([198, 18, (n >> 8) as u8, n as u8]);
            k.set_nw_dst_v4([198, 19, (n >> 16) as u8, 1]);
            k.set_nw_proto(if n % 2 == 0 { 6 } else { 17 });
            k.set_tp_dst(1024 + (rng.below(50_000) as u16));
            add(
                of,
                &mut rules,
                OfRule {
                    table,
                    priority: 5 + (n % 50) as i32,
                    key: k,
                    mask: five_tuple_mask,
                    actions: vec![if n % 7 == 0 {
                        OfAction::Drop
                    } else {
                        OfAction::Goto(tables::FORWARD)
                    }],
                    cookie: 0xf00d,
                },
            );
        }
    }

    RulesetStats {
        geneve_tunnels: cfg.tunnels,
        vms: cfg.vms,
        rules,
        tables: of.table_count(),
        matching_fields: of.distinct_match_fields(),
    }
}

/// The `fail_mode=standalone` fallback rule set: a self-contained
/// normal-action approximation that keeps the network best-effort alive
/// with no controller — L2 forwarding by destination MAC only.
///
/// Local VMs deliver to their VIF, remote VMs tunnel to the peer VTEP,
/// and unknown destinations flood to the uplink. Every rule masks
/// `DL_DST` alone, so each distinct destination MAC costs one upcall and
/// one megaflow: exactly the tuple-space exposure a TSE flood feeds on
/// during a controller outage (the secure-vs-standalone goodput
/// benchmark measures this).
pub fn standalone_fallback(
    cfg: &NsxConfig,
    ports: &NsxPorts,
    local_host: u8,
    remote_host: u8,
) -> Ofproto {
    let mut of = Ofproto::new();
    // Local VMs by destination MAC.
    for (i, &vif) in ports.vifs.iter().enumerate() {
        let mut k = FlowKey::default();
        k.set_dl_dst(vm_mac(local_host, i / 2, i % 2));
        of.add_rule(OfRule {
            table: 0,
            priority: 60,
            key: k,
            mask: FlowMask::of_fields(&[&fields::DL_DST]),
            actions: vec![OfAction::Output(vif)],
            cookie: 0xfa11,
        });
    }
    // Remote VMs: tunnel out with the logical switch's VNI.
    for i in 0..cfg.vms * 2 {
        let mut k = FlowKey::default();
        k.set_dl_dst(vm_mac(remote_host, i / 2, i % 2));
        of.add_rule(OfRule {
            table: 0,
            priority: 60,
            key: k,
            mask: FlowMask::of_fields(&[&fields::DL_DST]),
            actions: vec![
                OfAction::SetTunnel {
                    id: vni_of(i % cfg.vms),
                    dst: cfg.remote_vtep,
                },
                OfAction::Goto(tables::TUN_OUTPUT),
            ],
            cookie: 0xfa11,
        });
    }
    // Unknown destinations: best-effort flood to the physical uplink
    // (the "normal" action's fallback when nothing has been learned).
    // The miss still probes the DL_DST subtable above, so the resulting
    // megaflow stays MAC-specific — the TSE exposure is structural.
    of.add_rule(OfRule {
        table: 0,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Output(ports.uplink)],
        cookie: 0xfa11,
    });
    of.add_rule(OfRule {
        table: tables::TUN_OUTPUT,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: vec![OfAction::Output(ports.tunnel)],
        cookie: 0xfa11,
    });
    of
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_ports() -> NsxPorts {
        NsxPorts {
            vifs: (2..32).collect(),
            tunnel: 1,
            uplink: 0,
        }
    }

    #[test]
    fn reproduces_table3_shape() {
        let cfg = NsxConfig::default();
        let mut of = Ofproto::new();
        let stats = install(&cfg, &default_ports(), 1, 2, &mut of);
        assert_eq!(stats.rules, 103_302, "Table 3: rule count");
        assert_eq!(of.rule_count(), 103_302);
        assert_eq!(stats.tables, 40, "Table 3: table count");
        assert_eq!(stats.matching_fields, 31, "Table 3: distinct fields");
        assert_eq!(stats.geneve_tunnels, 291);
        assert_eq!(stats.vms, 15);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = NsxConfig::default();
        let mut of1 = Ofproto::new();
        let mut of2 = Ofproto::new();
        let s1 = install(&cfg, &default_ports(), 1, 2, &mut of1);
        let s2 = install(&cfg, &default_ports(), 1, 2, &mut of2);
        assert_eq!(s1, s2);
        // Same traffic translates identically.
        let mut k = FlowKey::default();
        k.set_in_port(2);
        assert_eq!(of1.translate(&k).actions, of2.translate(&k).actions);
    }

    #[test]
    fn small_config_scales_down() {
        let cfg = NsxConfig {
            vms: 2,
            tunnels: 4,
            target_rules: 1_000,
            ..NsxConfig::default()
        };
        let ports = NsxPorts {
            vifs: (2..6).collect(),
            tunnel: 1,
            uplink: 0,
        };
        let mut of = Ofproto::new();
        let stats = install(&cfg, &ports, 1, 2, &mut of);
        assert_eq!(stats.rules, 1_000);
        assert_eq!(stats.tables, 40, "all tables populated even when small");
    }

    #[test]
    fn egress_path_traverses_three_passes() {
        // VM traffic: classify -> ct (freeze), resume -> verdict -> allow
        // ct(commit) (freeze), resume -> forward -> tunnel output.
        let cfg = NsxConfig {
            vms: 2,
            tunnels: 4,
            target_rules: 500,
            ..NsxConfig::default()
        };
        let ports = NsxPorts {
            vifs: (2..6).collect(),
            tunnel: 1,
            uplink: 0,
        };
        let mut of = Ofproto::new();
        install(&cfg, &ports, 1, 2, &mut of);

        // Pass 1: from the VIF.
        let mut k = FlowKey::default();
        k.set_in_port(2);
        k.set_eth_type(EtherType::Ipv4);
        k.set_dl_dst(vm_mac(2, 0, 0)); // remote VM
        let t1 = of.translate(&k);
        let Some(ovs_core::DpAction::Recirc(r1)) = t1.actions.last() else {
            panic!("pass 1 must end in recirc: {:?}", t1.actions);
        };
        // Pass 2: new connection through the DFW.
        let mut k2 = k;
        k2.set_recirc_id(*r1);
        k2.set_ct_state(
            ovs_packet::dp_packet::ct_state::TRACKED | ovs_packet::dp_packet::ct_state::NEW,
        );
        let t2 = of.translate(&k2);
        let Some(ovs_core::DpAction::Recirc(r2)) = t2.actions.last() else {
            panic!("pass 2 must end in recirc: {:?}", t2.actions);
        };
        // Pass 3: established/committed -> tunnel output.
        let mut k3 = k;
        k3.set_recirc_id(*r2);
        k3.set_ct_state(
            ovs_packet::dp_packet::ct_state::TRACKED | ovs_packet::dp_packet::ct_state::ESTABLISHED,
        );
        let t3 = of.translate(&k3);
        assert!(
            t3.actions
                .iter()
                .any(|a| matches!(a, ovs_core::DpAction::SetTunnel { .. })),
            "pass 3 sets tunnel metadata: {:?}",
            t3.actions
        );
        assert!(
            t3.actions
                .contains(&ovs_core::DpAction::Output(ports.tunnel)),
            "pass 3 outputs to the tunnel port"
        );
    }

    #[test]
    fn established_traffic_short_circuits() {
        let cfg = NsxConfig {
            vms: 2,
            tunnels: 4,
            target_rules: 500,
            ..NsxConfig::default()
        };
        let ports = NsxPorts {
            vifs: (2..6).collect(),
            tunnel: 1,
            uplink: 0,
        };
        let mut of = Ofproto::new();
        install(&cfg, &ports, 1, 2, &mut of);

        let mut k = FlowKey::default();
        k.set_in_port(2);
        k.set_eth_type(EtherType::Ipv4);
        k.set_dl_dst(vm_mac(1, 0, 1)); // local VM iface 1 on port 3
        let t1 = of.translate(&k);
        let Some(ovs_core::DpAction::Recirc(r1)) = t1.actions.last() else {
            panic!();
        };
        let mut k2 = k;
        k2.set_recirc_id(*r1);
        k2.set_ct_state(
            ovs_packet::dp_packet::ct_state::TRACKED | ovs_packet::dp_packet::ct_state::ESTABLISHED,
        );
        let t2 = of.translate(&k2);
        // Established: verdict table jumps straight to forwarding — two
        // passes total, local delivery.
        assert_eq!(t2.actions, vec![ovs_core::DpAction::Output(3)]);
    }
}
