//! The OVS kernel datapath module — the baseline architecture the paper
//! moves away from.
//!
//! Faithful to the upstream module's structure: a set of **vports**
//! (netdev ports, Geneve tunnel vports, the internal port), a **megaflow
//! table** (a list of masks, each with a hash table of masked keys —
//! lookup probes every mask until one hits), **upcalls** to userspace on
//! miss, and the datapath action set ([`DpAction`]) the userspace
//! datapath runs too: output, VLAN push/pop, tunnel set/encap/decap,
//! connection tracking, meters and recirculation.

use crate::action::DpAction;
use crate::meter::MeterSet;
use crate::neigh::NeighTable;
use crate::route::RouteTable;
use ovs_ct::{apply_rewrite, ConnKey, CtAction, CtTable};
use ovs_obs::coverage;
use ovs_packet::dp_packet::TunnelMetadata;
use ovs_packet::flow::extract_flow_key;
use ovs_packet::{builder, geneve, ipv4, udp, DpPacket, EthernetFrame, FlowKey, FlowMask, MacAddr};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// Maximum pipeline passes before a datapath drops a packet (loop guard,
/// as in the real datapath). Both datapaths enforce it.
pub const MAX_RECIRC: usize = 8;

/// A datapath port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vport {
    /// A kernel net device attached to the bridge.
    Netdev { ifindex: u32 },
    /// A Geneve tunnel vport listening on a local endpoint address.
    Geneve { local_ip: [u8; 4] },
    /// The bridge-internal port (to the host stack).
    Internal,
}

/// What the datapath asks the kernel to do with a processed packet.
#[derive(Debug, Clone, PartialEq)]
pub enum DpVerdict {
    /// Transmit this frame on a device.
    Emit { ifindex: u32, frame: Vec<u8> },
    /// Deliver to the host stack via the internal port.
    ToHost { frame: Vec<u8> },
    /// Queue an upcall to userspace (a flow miss).
    Upcall(Upcall),
    /// Dropped (by action or by error); the reason is recorded in stats.
    Drop,
}

/// A miss upcall to userspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Upcall {
    /// Datapath port the packet arrived on.
    pub in_port: u32,
    /// The extracted flow key at miss time.
    pub key: FlowKey,
    /// The full frame.
    pub frame: Vec<u8>,
    /// Tunnel metadata if the packet was decapsulated.
    pub tunnel: Option<TunnelMetadata>,
    /// The pipeline pass that missed, counting from 0: the execute after
    /// the upcall resumes the count, so an upcall does not reset the
    /// [`MAX_RECIRC`] guard (the userspace datapath keeps a packet's
    /// passes across its upcalls too).
    pub pass: usize,
}

/// Tables the datapath consults that live elsewhere in the kernel.
pub struct DpEnv<'a> {
    pub routes: &'a RouteTable,
    pub neighbors: &'a NeighTable,
    pub conntrack: &'a mut CtTable,
    /// `(ifindex, mac)` pairs for source-MAC selection on tunnel output.
    pub dev_macs: &'a [(u32, MacAddr)],
    pub now_ns: u64,
}

/// Datapath statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModStats {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub masks_probed: u64,
    pub recirculations: u64,
    pub tunnel_encaps: u64,
    pub tunnel_decaps: u64,
    /// Packets an empty action list dropped (coverage `kmod_drop`).
    pub action_drops: u64,
    /// Tunnel outputs with no tunnel metadata (`kmod_tunnel_no_md`).
    pub tunnel_no_md: u64,
    /// Tunnel outputs with no route, neighbour or source MAC
    /// (`kmod_tunnel_encap_fail`).
    pub tunnel_encap_fails: u64,
    /// Outputs to a port the datapath does not have (`kmod_tx_no_port`).
    pub tx_no_port: u64,
    /// Packets conntrack refused — zone limit, table full or invalid
    /// (`kmod_ct_drop`).
    pub ct_drops: u64,
    /// Packets a meter found over its rate (`kmod_meter_drop`).
    pub meter_drops: u64,
    /// Packets whose actions reach what the kernel cannot: an `NfChain`,
    /// whose NF manager lives in userspace (`kmod_unsupported_action`).
    pub unsupported_action_drops: u64,
    /// Packets still recirculating after [`MAX_RECIRC`] passes
    /// (`kmod_recirc_limit`).
    pub recirc_limit_drops: u64,
}

/// One megaflow. A hit hands out its actions by pointer, so a lookup
/// copies nothing.
#[derive(Debug, Clone)]
struct Megaflow {
    actions: Rc<[DpAction]>,
    /// Packet hit counter (visible via `ovs-dpctl dump-flows` analogues).
    hits: u64,
    /// Bytes forwarded.
    bytes: u64,
    /// Sim-time of the last hit (`used`).
    used_ns: u64,
    /// Sim-time of installation.
    created_ns: u64,
}

/// The kernel datapath.
#[derive(Debug, Default)]
pub struct OvsModule {
    vports: Vec<Vport>,
    /// Mask list; each lookup probes masks in insertion order.
    masks: Vec<FlowMask>,
    /// Flows referencing each mask; a mask with zero references is dead
    /// (skipped by lookup, reusable by install).
    mask_refs: Vec<usize>,
    /// Flows keyed by `(mask index, masked key)`.
    flows: HashMap<(usize, FlowKey), Megaflow>,
    /// The descriptor of the last frame, kept for the next one: a frame
    /// runs to completion before the next arrives, so one spare serves.
    spare: Option<DpPacket>,
    /// The meter table `Meter` actions offer packets to. An unknown
    /// meter passes, as in userspace.
    pub meters: MeterSet,
    /// Statistics.
    pub stats: ModStats,
}

impl OvsModule {
    /// An empty datapath.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vport, returning its datapath port number.
    pub fn add_vport(&mut self, vport: Vport) -> u32 {
        self.vports.push(vport);
        (self.vports.len() - 1) as u32
    }

    /// The port number of a netdev vport by ifindex.
    pub fn port_of_ifindex(&self, ifindex: u32) -> Option<u32> {
        self.vports
            .iter()
            .position(|v| matches!(v, Vport::Netdev { ifindex: i } if *i == ifindex))
            .map(|p| p as u32)
    }

    /// The Geneve vport (port number and local IP), if configured.
    pub fn geneve_vport(&self) -> Option<(u32, [u8; 4])> {
        self.vports.iter().enumerate().find_map(|(p, v)| match v {
            Vport::Geneve { local_ip } => Some((p as u32, *local_ip)),
            _ => None,
        })
    }

    /// Install a megaflow with creation time 0 (pre-warmed static flows;
    /// the upcall path uses [`install_flow_at`](Self::install_flow_at)).
    pub fn install_flow(&mut self, key: &FlowKey, mask: &FlowMask, actions: Vec<DpAction>) {
        self.install_flow_at(key, mask, actions, 0);
    }

    /// Install a megaflow at sim-time `now_ns`. The mask is added to the
    /// mask list if new (dead masks' slots are reused first).
    pub fn install_flow_at(
        &mut self,
        key: &FlowKey,
        mask: &FlowMask,
        actions: Vec<DpAction>,
        now_ns: u64,
    ) {
        let mask_idx = match self.masks.iter().position(|m| m == mask) {
            Some(i) => i,
            None => match self.mask_refs.iter().position(|r| *r == 0) {
                Some(i) => {
                    self.masks[i] = *mask;
                    i
                }
                None => {
                    self.masks.push(*mask);
                    self.mask_refs.push(0);
                    self.masks.len() - 1
                }
            },
        };
        let old = self.flows.insert(
            (mask_idx, key.masked(mask)),
            Megaflow {
                actions: actions.into(),
                hits: 0,
                bytes: 0,
                used_ns: now_ns,
                created_ns: now_ns,
            },
        );
        if old.is_none() {
            self.mask_refs[mask_idx] += 1;
        }
    }

    /// Remove one megaflow; releases its mask reference. Returns whether
    /// the flow existed.
    pub fn remove_flow(&mut self, key: &FlowKey, mask: &FlowMask) -> bool {
        let Some(mask_idx) = self.masks.iter().position(|m| m == mask) else {
            return false;
        };
        if self.flows.remove(&(mask_idx, key.masked(mask))).is_some() {
            self.mask_refs[mask_idx] = self.mask_refs[mask_idx].saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// A flow's `(packets, bytes, used_ns, created_ns)`, if installed.
    pub fn flow_stats(&self, key: &FlowKey, mask: &FlowMask) -> Option<(u64, u64, u64, u64)> {
        let mask_idx = self.masks.iter().position(|m| m == mask)?;
        self.flows
            .get(&(mask_idx, key.masked(mask)))
            .map(|f| (f.hits, f.bytes, f.used_ns, f.created_ns))
    }

    /// Number of installed megaflows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of live (referenced) masks.
    pub fn mask_count(&self) -> usize {
        self.mask_refs.iter().filter(|r| **r > 0).count()
    }

    /// `ovs-dpctl dump-flows` equivalent for the kernel datapath, with
    /// per-flow counters and `used:` ages against sim-time `now_ns`,
    /// sorted so the output is deterministic.
    pub fn dump_flows(&self, now_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut lines: Vec<String> = self
            .flows
            .iter()
            .map(|((mask_idx, key), flow)| {
                let used = if flow.hits == 0 {
                    "never".to_string()
                } else {
                    format!("{:.3}s", now_ns.saturating_sub(flow.used_ns) as f64 / 1e9)
                };
                format!(
                    "in_port({}),recirc({}) mask#{} packets:{} bytes:{} used:{} actions:{:?}",
                    key.in_port(),
                    key.recirc_id(),
                    mask_idx,
                    flow.hits,
                    flow.bytes,
                    used,
                    flow.actions
                )
            })
            .collect();
        lines.sort_unstable();
        let mut out = String::new();
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// Megaflow lookup: probe each live mask's table. Returns the
    /// actions; `len`/`now_ns` feed the hit flow's counters.
    fn lookup(&mut self, key: &FlowKey, len: usize, now_ns: u64) -> Option<Rc<[DpAction]>> {
        self.stats.lookups += 1;
        coverage!("kmod_flow_lookup");
        for (i, mask) in self.masks.iter().enumerate() {
            if self.mask_refs[i] == 0 {
                continue;
            }
            self.stats.masks_probed += 1;
            coverage!("kmod_mask_probe");
            if let Some(flow) = self.flows.get_mut(&(i, key.masked(mask))) {
                flow.hits += 1;
                flow.bytes += len as u64;
                flow.used_ns = now_ns;
                self.stats.hits += 1;
                coverage!("kmod_megaflow_hit");
                return Some(Rc::clone(&flow.actions));
            }
        }
        self.stats.misses += 1;
        coverage!("kmod_megaflow_miss");
        None
    }

    /// Process one frame received on a bridge-attached device.
    ///
    /// Handles Geneve decapsulation, the lookup/recirculation loop, and
    /// action execution. Returns the set of externally visible effects.
    pub fn receive(
        &mut self,
        frame: Vec<u8>,
        in_ifindex: u32,
        env: &mut DpEnv<'_>,
    ) -> Vec<DpVerdict> {
        let Some(mut in_port) = self.port_of_ifindex(in_ifindex) else {
            // Not a bridge port; not ours.
            return vec![DpVerdict::ToHost { frame }];
        };

        let mut pkt = self.spare.take().unwrap_or_default();
        pkt.reset();
        pkt.set_data(&frame);

        // Tunnel decapsulation, in place: a UDP/6081 packet addressed to
        // the Geneve vport's local IP loses its outer headers and enters
        // the pipeline as if received on the tunnel port, carrying tunnel
        // metadata.
        if let Some((gport, local_ip)) = self.geneve_vport() {
            if let Some((inner, meta)) = geneve_inner(pkt.data(), local_ip) {
                self.stats.tunnel_decaps += 1;
                coverage!("kmod_tunnel_decap");
                pkt.truncate(inner.end);
                pkt.pull_front(inner.start);
                pkt.tunnel = Some(meta);
                in_port = gport;
            }
        }
        pkt.in_port = in_port;

        let mut out = Vec::new();
        self.lookup_loop(&mut pkt, 0, env, &mut out);
        self.spare = Some(pkt);
        out
    }

    /// Execute a specific action list on a packet (used by userspace
    /// `OVS_PACKET_CMD_EXECUTE` after an upcall) as its pipeline pass
    /// `pass`, the upcall's.
    pub fn execute(
        &mut self,
        mut pkt: DpPacket,
        actions: &[DpAction],
        pass: usize,
        env: &mut DpEnv<'_>,
    ) -> Vec<DpVerdict> {
        let mut out = Vec::new();
        if let Some(rid) = self.apply_actions(&mut pkt, actions, env, &mut out) {
            pkt.recirc_id = rid;
            self.lookup_loop(&mut pkt, pass + 1, env, &mut out);
        }
        self.spare = Some(pkt);
        out
    }

    /// Look the packet up as pass `first`, apply the actions, and again
    /// for each recirculation, until [`MAX_RECIRC`] passes.
    fn lookup_loop(
        &mut self,
        pkt: &mut DpPacket,
        first: usize,
        env: &mut DpEnv<'_>,
        out: &mut Vec<DpVerdict>,
    ) {
        for pass in first.. {
            if pass >= MAX_RECIRC {
                self.stats.recirc_limit_drops += 1;
                coverage!("kmod_recirc_limit");
                out.push(DpVerdict::Drop);
                return;
            }
            let key = extract_flow_key(pkt);
            let Some(actions) = self.lookup(&key, pkt.len(), env.now_ns) else {
                out.push(DpVerdict::Upcall(Upcall {
                    in_port: pkt.in_port,
                    key,
                    frame: pkt.data().to_vec(),
                    tunnel: pkt.tunnel,
                    pass,
                }));
                return;
            };
            match self.apply_actions(pkt, &actions, env, out) {
                Some(recirc_id) => {
                    self.stats.recirculations += 1;
                    coverage!("kmod_recirc");
                    pkt.recirc_id = recirc_id;
                    // Loop: re-extract and re-lookup.
                }
                None => return,
            }
        }
    }

    /// Apply an action list. Returns `Some(recirc_id)` if a `Recirc`
    /// action requests another pipeline pass. An empty list, a meter over
    /// its rate, a conntrack refusal and an `NfChain` end the list with a
    /// counted drop.
    fn apply_actions(
        &mut self,
        pkt: &mut DpPacket,
        actions: &[DpAction],
        env: &mut DpEnv<'_>,
        out: &mut Vec<DpVerdict>,
    ) -> Option<u32> {
        if actions.is_empty() {
            self.stats.action_drops += 1;
            coverage!("kmod_drop");
            out.push(DpVerdict::Drop);
            return None;
        }
        for act in actions {
            match act {
                DpAction::SetTunnel { id, dst } => {
                    // The source is the tunnel vport's, filled at output.
                    pkt.tunnel = Some(TunnelMetadata {
                        tun_id: *id,
                        src: [0, 0, 0, 0],
                        dst: *dst,
                        tos: 0,
                        ttl: 64,
                    });
                }
                DpAction::PushVlan(tci) => pkt.push_vlan(*tci),
                DpAction::PopVlan => pkt.pop_vlan(),
                DpAction::Ct { zone, commit, nat } => {
                    let parse = *pkt.parse();
                    let v = env.conntrack.process_full(
                        ConnKey::from_parse(*zone, &parse),
                        CtAction {
                            zone: *zone,
                            commit: *commit,
                            mark: None,
                            nat: *nat,
                        },
                        parse.tcp_flags(pkt.data()),
                        None,
                        env.now_ns,
                    );
                    if v.drop.is_some() {
                        self.stats.ct_drops += 1;
                        coverage!("kmod_ct_drop");
                        out.push(DpVerdict::Drop);
                        return None;
                    }
                    pkt.ct_state = v.state;
                    pkt.ct_zone = *zone;
                    pkt.ct_mark = v.mark;
                    if let Some(rw) = v.nat {
                        apply_rewrite(pkt.data_mut(), &rw);
                    }
                }
                DpAction::Recirc(id) => return Some(*id),
                DpAction::Meter(id) => {
                    if !self.meters.offer(*id, env.now_ns, pkt.len()) {
                        self.stats.meter_drops += 1;
                        coverage!("kmod_meter_drop");
                        out.push(DpVerdict::Drop);
                        return None;
                    }
                }
                DpAction::NfChain(_) => {
                    // The NF manager's rings live in userspace: no kernel
                    // path reaches them.
                    self.stats.unsupported_action_drops += 1;
                    coverage!("kmod_unsupported_action");
                    out.push(DpVerdict::Drop);
                    return None;
                }
                DpAction::SetEthSrc(mac) => {
                    if pkt.len() >= 14 {
                        let mut f = EthernetFrame::new_unchecked(pkt.data_mut());
                        f.set_src(*mac);
                    }
                }
                DpAction::SetEthDst(mac) => {
                    if pkt.len() >= 14 {
                        let mut f = EthernetFrame::new_unchecked(pkt.data_mut());
                        f.set_dst(*mac);
                    }
                }
                DpAction::Output(port) => match self.vports.get(*port as usize).cloned() {
                    Some(Vport::Netdev { ifindex }) => out.push(DpVerdict::Emit {
                        ifindex,
                        frame: pkt.data().to_vec(),
                    }),
                    Some(Vport::Internal) => out.push(DpVerdict::ToHost {
                        frame: pkt.data().to_vec(),
                    }),
                    Some(Vport::Geneve { local_ip }) => {
                        let Some(mut meta) = pkt.tunnel else {
                            self.stats.tunnel_no_md += 1;
                            coverage!("kmod_tunnel_no_md");
                            out.push(DpVerdict::Drop);
                            continue;
                        };
                        meta.src = local_ip;
                        match Self::geneve_encap_out(pkt, &meta, env) {
                            Some(v) => {
                                self.stats.tunnel_encaps += 1;
                                coverage!("kmod_tunnel_encap");
                                out.push(v);
                            }
                            None => {
                                self.stats.tunnel_encap_fails += 1;
                                coverage!("kmod_tunnel_encap_fail");
                                out.push(DpVerdict::Drop);
                            }
                        }
                    }
                    None => {
                        self.stats.tx_no_port += 1;
                        coverage!("kmod_tx_no_port");
                        out.push(DpVerdict::Drop);
                    }
                },
            }
        }
        None
    }

    /// Encapsulate and route a tunnel output.
    fn geneve_encap_out(
        pkt: &mut DpPacket,
        meta: &TunnelMetadata,
        env: &DpEnv<'_>,
    ) -> Option<DpVerdict> {
        let route = env.routes.lookup(meta.dst)?;
        let nexthop = route.gateway.unwrap_or(meta.dst);
        let dst_mac = env.neighbors.lookup(nexthop)?.mac;
        let src_mac = env
            .dev_macs
            .iter()
            .find(|(i, _)| *i == route.ifindex)
            .map(|(_, m)| *m)?;
        // Source port derived from the inner flow for ECMP entropy, as
        // real implementations do.
        let sport = 0xc000 | (pkt.parse().rss_hash() as u16 & 0x3fff);
        let outer = builder::geneve_encap(
            src_mac,
            dst_mac,
            meta.src,
            meta.dst,
            sport,
            (meta.tun_id & 0x00ff_ffff) as u32,
            pkt.data(),
        );
        Some(DpVerdict::Emit {
            ifindex: route.ifindex,
            frame: outer,
        })
    }
}

/// If `frame` is a Geneve packet addressed to `local_ip`, return where
/// the inner frame sits within it and the tunnel metadata.
fn geneve_inner(frame: &[u8], local_ip: [u8; 4]) -> Option<(Range<usize>, TunnelMetadata)> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != ovs_packet::EtherType::Ipv4 {
        return None;
    }
    let ip = ipv4::Ipv4Packet::new_checked(eth.payload()).ok()?;
    if ip.dst() != local_ip || ip.protocol() != ipv4::protocol::UDP {
        return None;
    }
    let u = udp::UdpDatagram::new_checked(ip.payload()).ok()?;
    if u.dst_port() != geneve::UDP_PORT {
        return None;
    }
    let g = geneve::GenevePacket::new_checked(u.payload()).ok()?;
    let start = g.payload().as_ptr() as usize - frame.as_ptr() as usize;
    Some((
        start..start + g.payload().len(),
        TunnelMetadata {
            tun_id: u64::from(g.vni()),
            src: ip.src(),
            dst: ip.dst(),
            tos: ip.tos(),
            ttl: ip.ttl(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neigh::{NeighState, Neighbor};
    use crate::route::Route;
    use ovs_packet::flow::fields;

    fn test_env<'a>(
        routes: &'a RouteTable,
        neighbors: &'a NeighTable,
        ct: &'a mut CtTable,
        dev_macs: &'a [(u32, MacAddr)],
    ) -> DpEnv<'a> {
        DpEnv {
            routes,
            neighbors,
            conntrack: ct,
            dev_macs,
            now_ns: 0,
        }
    }

    fn frame(dst_ip: [u8; 4]) -> Vec<u8> {
        builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            dst_ip,
            5000,
            6000,
            64,
        )
    }

    #[test]
    fn miss_produces_upcall() {
        let mut m = OvsModule::new();
        m.add_vport(Vport::Netdev { ifindex: 1 });
        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let v = m.receive(frame([10, 0, 0, 2]), 1, &mut env);
        assert_eq!(v.len(), 1);
        match &v[0] {
            DpVerdict::Upcall(u) => {
                assert_eq!(u.in_port, 0);
                assert_eq!(u.key.nw_dst_v4(), [10, 0, 0, 2]);
            }
            other => panic!("expected upcall, got {other:?}"),
        }
        assert_eq!(m.stats.misses, 1);
    }

    #[test]
    fn installed_flow_forwards() {
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        let _p1 = m.add_vport(Vport::Netdev { ifindex: 2 });
        // Wildcard everything except in_port: a simple port-forward flow.
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        m.install_flow(&key, &mask, vec![DpAction::Output(1)]);

        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let f = frame([10, 0, 0, 2]);
        let v = m.receive(f.clone(), 1, &mut env);
        assert_eq!(
            v,
            vec![DpVerdict::Emit {
                ifindex: 2,
                frame: f
            }]
        );
        assert_eq!(m.stats.hits, 1);
    }

    #[test]
    fn ct_and_recirc_pipeline() {
        // Pass 1 (recirc 0): run conntrack + recirc(1).
        // Pass 2 (recirc 1): match on recirc_id and output.
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        m.add_vport(Vport::Netdev { ifindex: 2 });

        let mut k0 = FlowKey::default();
        k0.set_in_port(p0);
        k0.set_recirc_id(0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::RECIRC_ID]);
        m.install_flow(
            &k0,
            &mask,
            vec![
                DpAction::Ct {
                    zone: 5,
                    commit: true,
                    nat: None,
                },
                DpAction::Recirc(1),
            ],
        );
        let mut k1 = k0;
        k1.set_recirc_id(1);
        m.install_flow(&k1, &mask, vec![DpAction::Output(1)]);

        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let v = m.receive(frame([10, 0, 0, 2]), 1, &mut env);
        assert!(matches!(&v[..], [DpVerdict::Emit { ifindex: 2, .. }]));
        assert_eq!(ct.len(), 1, "connection committed");
        assert_eq!(m.stats.lookups, 2, "two pipeline passes");
        assert_eq!(m.stats.recirculations, 1);
    }

    #[test]
    fn geneve_encap_and_decap_roundtrip() {
        // Host A: overlay frame in on port 0 -> set_tunnel + output geneve.
        let mut m = OvsModule::new();
        let p_vm = m.add_vport(Vport::Netdev { ifindex: 1 });
        let _p_gnv = m.add_vport(Vport::Geneve {
            local_ip: [172, 16, 0, 1],
        });

        let mut key = FlowKey::default();
        key.set_in_port(p_vm);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        m.install_flow(
            &key,
            &mask,
            vec![
                DpAction::SetTunnel {
                    id: 5001,
                    dst: [172, 16, 0, 2],
                },
                DpAction::Output(1),
            ],
        );

        let mut routes = RouteTable::new();
        routes.add(Route {
            dst: [172, 16, 0, 0],
            prefix_len: 24,
            gateway: None,
            ifindex: 10,
        });
        let mut neigh = NeighTable::new();
        neigh.add(Neighbor {
            ip: [172, 16, 0, 2],
            mac: MacAddr::new(4, 0, 0, 0, 0, 2),
            ifindex: 10,
            state: NeighState::Reachable,
        });
        let mut ct = CtTable::new();
        let macs = [(10u32, MacAddr::new(4, 0, 0, 0, 0, 1))];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);

        let inner = frame([10, 0, 0, 2]);
        let v = m.receive(inner.clone(), 1, &mut env);
        let DpVerdict::Emit {
            ifindex,
            frame: outer,
        } = &v[0]
        else {
            panic!("expected emit, got {v:?}");
        };
        assert_eq!(*ifindex, 10);
        assert!(outer.len() > inner.len());
        assert_eq!(m.stats.tunnel_encaps, 1);

        // Host B: decap on receive. Same module config, reversed IP role.
        let mut m2 = OvsModule::new();
        let p_uplink = m2.add_vport(Vport::Netdev { ifindex: 20 });
        let _ = p_uplink;
        let gport = m2.add_vport(Vport::Geneve {
            local_ip: [172, 16, 0, 2],
        });
        m2.add_vport(Vport::Netdev { ifindex: 21 });
        let mut gkey = FlowKey::default();
        gkey.set_in_port(gport);
        gkey.set_tun_id(5001);
        let gmask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::TUN_ID]);
        m2.install_flow(&gkey, &gmask, vec![DpAction::Output(2)]);

        let routes2 = RouteTable::new();
        let neigh2 = NeighTable::new();
        let mut ct2 = CtTable::new();
        let macs2 = [];
        let mut env2 = test_env(&routes2, &neigh2, &mut ct2, &macs2);
        let v2 = m2.receive(outer.clone(), 20, &mut env2);
        match &v2[..] {
            [DpVerdict::Emit {
                ifindex: 21,
                frame: delivered,
            }] => {
                assert_eq!(
                    delivered, &inner,
                    "inner frame preserved through the tunnel"
                );
            }
            other => panic!("expected decap+emit, got {other:?}"),
        }
        assert_eq!(m2.stats.tunnel_decaps, 1);
    }

    #[test]
    fn vlan_push_pop() {
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        m.add_vport(Vport::Netdev { ifindex: 2 });
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        m.install_flow(
            &key,
            &mask,
            vec![DpAction::PushVlan(100), DpAction::Output(1)],
        );
        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let f = frame([9, 9, 9, 9]);
        let v = m.receive(f.clone(), 1, &mut env);
        let DpVerdict::Emit { frame: tagged, .. } = &v[0] else {
            panic!()
        };
        assert_eq!(tagged.len(), f.len() + 4);
        assert_eq!(&tagged[12..14], &[0x81, 0x00]);
    }

    #[test]
    fn a_runt_through_a_push_vlan_flow_is_forwarded_unchanged() {
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        m.add_vport(Vport::Netdev { ifindex: 2 });
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        m.install_flow(
            &key,
            &mask,
            vec![DpAction::PushVlan(100), DpAction::Output(1)],
        );
        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let runt = vec![0xab; 10];
        let v = m.receive(runt.clone(), 1, &mut env);
        assert_eq!(
            v,
            vec![DpVerdict::Emit {
                ifindex: 2,
                frame: runt
            }]
        );
    }

    /// Receive one frame on port 0 (ifindex 1) of a module with a Geneve
    /// vport as port 1 whose only flow runs `actions`, with no routes,
    /// neighbours or device MACs, and return its verdicts and stats.
    fn drop_case(actions: Vec<DpAction>) -> (Vec<DpVerdict>, ModStats) {
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        m.add_vport(Vport::Geneve {
            local_ip: [172, 16, 0, 1],
        });
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        m.install_flow(&key, &mask, actions);
        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let v = m.receive(frame([1, 1, 1, 1]), 1, &mut env);
        (v, m.stats)
    }

    #[test]
    fn unknown_output_port_drops() {
        let (v, stats) = drop_case(vec![DpAction::Output(42)]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!(stats.tx_no_port, 1);
        assert_eq!(ovs_obs::coverage::total("kmod_tx_no_port"), 1);
    }

    #[test]
    fn drop_action_is_counted() {
        let (v, stats) = drop_case(vec![]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!(stats.action_drops, 1);
        assert_eq!(ovs_obs::coverage::total("kmod_drop"), 1);
    }

    #[test]
    fn tunnel_output_without_metadata_drops() {
        let (v, stats) = drop_case(vec![DpAction::Output(1)]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!((stats.tunnel_no_md, stats.tunnel_encaps), (1, 0));
        assert_eq!(ovs_obs::coverage::total("kmod_tunnel_no_md"), 1);
    }

    #[test]
    fn tunnel_output_without_a_route_drops() {
        let set_tunnel = DpAction::SetTunnel {
            id: 5001,
            dst: [172, 16, 0, 2],
        };
        let (v, stats) = drop_case(vec![set_tunnel, DpAction::Output(1)]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!((stats.tunnel_encap_fails, stats.tunnel_encaps), (1, 0));
        assert_eq!(ovs_obs::coverage::total("kmod_tunnel_encap_fail"), 1);
    }

    #[test]
    fn recirc_loop_guard() {
        // A flow that matches any recirc id and always recirculates to 7:
        // infinite loop, cut off after MAX_RECIRC passes and counted as
        // a limit drop, not as one more recirculation.
        let (v, stats) = drop_case(vec![DpAction::Recirc(7)]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!(stats.lookups, MAX_RECIRC as u64);
        assert_eq!(stats.recirculations, MAX_RECIRC as u64);
        assert_eq!(stats.recirc_limit_drops, 1);
        assert_eq!(ovs_obs::coverage::total("kmod_recirc_limit"), 1);
    }

    #[test]
    fn an_nf_chain_drops_by_name_after_one_lookup() {
        let (v, stats) = drop_case(vec![DpAction::NfChain(1), DpAction::Output(0)]);
        assert_eq!(v, vec![DpVerdict::Drop]);
        assert_eq!(stats.unsupported_action_drops, 1);
        assert_eq!((stats.lookups, stats.recirculations), (1, 0));
        assert_eq!(ovs_obs::coverage::total("kmod_unsupported_action"), 1);
    }

    #[test]
    fn meters_police_and_an_unknown_meter_passes() {
        // Meter 1's bucket holds one frame and never refills (the clock
        // stands still); meter 2 is not configured.
        let mut m = OvsModule::new();
        let p0 = m.add_vport(Vport::Netdev { ifindex: 1 });
        m.add_vport(Vport::Netdev { ifindex: 2 });
        let f = frame([10, 0, 0, 2]);
        m.meters
            .set(1, crate::meter::Meter::new(1_000, f.len() as u64 * 8));
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        let actions = vec![DpAction::Meter(2), DpAction::Meter(1), DpAction::Output(1)];
        m.install_flow(&key, &mask, actions);
        let routes = RouteTable::new();
        let neigh = NeighTable::new();
        let mut ct = CtTable::new();
        let macs = [];
        let mut env = test_env(&routes, &neigh, &mut ct, &macs);
        let first = m.receive(f.clone(), 1, &mut env);
        assert_eq!(
            first,
            vec![DpVerdict::Emit {
                ifindex: 2,
                frame: f.clone()
            }]
        );
        assert_eq!(m.receive(f, 1, &mut env), vec![DpVerdict::Drop]);
        assert_eq!(m.stats.meter_drops, 1);
        assert_eq!(ovs_obs::coverage::total("kmod_meter_drop"), 1);
    }

    #[test]
    fn mask_sharing() {
        let mut m = OvsModule::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        for i in 0..10u8 {
            let mut k = FlowKey::default();
            k.set_nw_dst_v4([10, 0, 0, i]);
            m.install_flow(&k, &mask, vec![]);
        }
        assert_eq!(m.flow_count(), 10);
        assert_eq!(m.mask_count(), 1, "identical masks are shared");
    }
}
