//! NF-chain parity proptests (tier-1): the nfv subsystem must be
//! observationally equivalent to simple single-threaded reference
//! models, and its accounting must stay exact under crash schedules.
//!
//! Three contracts:
//! * a chain of pass-throughs is byte-for-byte equal to no chain at all
//!   (same wire output, nothing dropped);
//! * the built-in firewall and load balancer agree packet-by-packet with
//!   independent re-implementations of their specs (first-match-wins
//!   rules; FNV-1a 5-tuple hash mod backends);
//! * under a random NfPanic schedule, every offered frame is delivered
//!   or claimed by exactly one drop counter.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::PortType;
use ovs_core::health::quiet_simulated_panics;
use ovs_core::{AssignmentPolicy, DpifNetdev, PmdSet};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_nfv::{ChainPolicy, FwRule, Ingress, NfManager, NfSpec};
use ovs_packet::{builder, MacAddr};
use ovs_ring::DpPacketPool;
use ovs_tgen::scenarios::counted_drops;

use proptest::prelude::*;

fn udp_frame(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    builder::udp_ipv4(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        sport,
        dport,
        payload,
    )
}

// ----------------------------------------------------------------------
// (a) Pass-through chains are observationally invisible
// ----------------------------------------------------------------------

/// Forward `frames` through a two-port datapath, either directly
/// (`chain_len == 0`) or through a chain of that many pass-through NFs,
/// and return the wire output plus the datapath drop counter.
fn forward_rig(chain_len: usize, frames: &[Vec<u8>]) -> (Vec<Vec<u8>>, u64) {
    let mut k = Kernel::new(8);
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr::new(2, 0, 0, 0, 0, 1),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        MacAddr::new(2, 0, 0, 0, 0, 2),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
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
    if chain_len > 0 {
        let specs = (0..chain_len)
            .map(|i| (format!("pt{i}"), NfSpec::PassThrough))
            .collect();
        let cid = dp.nfv.add_chain(0, specs, 64, p1, ChainPolicy::Bypass);
        dp.add_flows(&format!(
            "table=0, priority=10, udp, actions=nf_chain:{cid}"
        ))
        .unwrap();
    } else {
        dp.add_flows(&format!("table=0, priority=10, udp, actions=output:{p1}"))
            .unwrap();
    }
    let mut pmds = PmdSet::new(&[4, 5], AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(p0, 1);
    if chain_len > 0 {
        pmds.add_nf_units(chain_len);
    }
    pmds.rebalance();

    for f in frames {
        k.receive(nic0, 0, f.clone());
    }
    for _ in 0..256 {
        let moved = pmds.run_round(&mut dp, &mut k);
        k.sim.clock.advance(100_000);
        let parked: usize = dp
            .nfv
            .chains()
            .iter()
            .map(|c| dp.nfv.chain_occupancy(c))
            .sum();
        if moved == 0 && parked == 0 {
            break;
        }
    }
    let wire: Vec<Vec<u8>> = k.device(nic1).tx_wire.iter().cloned().collect();
    (wire, dp.stats.dropped)
}

proptest! {
    /// A chain of 1..=5 pass-through NFs forwards exactly the frames a
    /// plain `output` action forwards, in the same order, dropping none.
    #[test]
    fn passthrough_chain_equals_no_chain(
        chain_len in 1usize..=5,
        specs in prop::collection::vec((1u16..60_000, 1u16..60_000, 0usize..64), 1..32),
    ) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(sp, dp_, n)| udp_frame(sp, dp_, &vec![0x5au8; n]))
            .collect();
        let (direct, direct_dropped) = forward_rig(0, &frames);
        let (chained, chained_dropped) = forward_rig(chain_len, &frames);
        prop_assert_eq!(direct_dropped, 0);
        prop_assert_eq!(chained_dropped, 0);
        prop_assert_eq!(&direct, &frames, "direct path must forward everything");
        prop_assert_eq!(&chained, &direct, "pass-through chain must be invisible");
    }
}

// ----------------------------------------------------------------------
// (b) Firewall ≡ first-match-wins reference
// ----------------------------------------------------------------------

/// Independent re-implementation of the firewall spec: parse the frame,
/// find the first rule matching (proto, dport), fall back to the
/// default.
fn ref_firewall_allows(rules: &[FwRule], default_allow: bool, frame: &[u8]) -> bool {
    let Some((proto, dport)) = ref_parse(frame) else {
        return default_allow;
    };
    rules
        .iter()
        .find(|r| r.proto.is_none_or(|p| p == proto) && dport >= r.dport_lo && dport <= r.dport_hi)
        .map_or(default_allow, |r| r.allow)
}

/// Minimal independent header parse: (proto, dport) for IPv4 frames.
fn ref_parse(f: &[u8]) -> Option<(u8, u16)> {
    if f.len() < 34 || f[12] != 0x08 || f[13] != 0x00 {
        return None;
    }
    let ihl = (f[14] & 0x0f) as usize * 4;
    let proto = f[23];
    let l4 = 14 + ihl;
    let dport = if (proto == 6 || proto == 17) && f.len() >= l4 + 4 {
        u16::from_be_bytes([f[l4 + 2], f[l4 + 3]])
    } else {
        0
    };
    Some((proto, dport))
}

/// Independent FNV-1a over the canonical 13-byte 5-tuple encoding.
fn ref_lb_backend(backends: &[u32], frame: &[u8]) -> Option<u32> {
    if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 || backends.is_empty() {
        return None;
    }
    let ihl = (frame[14] & 0x0f) as usize * 4;
    let proto = frame[23];
    let l4 = 14 + ihl;
    let (sport, dport) = if (proto == 6 || proto == 17) && frame.len() >= l4 + 4 {
        (
            u16::from_be_bytes([frame[l4], frame[l4 + 1]]),
            u16::from_be_bytes([frame[l4 + 2], frame[l4 + 3]]),
        )
    } else {
        (0, 0)
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in frame[26..34].iter().chain(&[
        (sport >> 8) as u8,
        sport as u8,
        (dport >> 8) as u8,
        dport as u8,
        proto,
    ]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Some(backends[(h % backends.len() as u64) as usize])
}

/// Push `frames` through a single-NF chain at the manager level and
/// return (exited frame bytes with exit port, verdict drops).
fn single_nf_run(spec: NfSpec, frames: &[Vec<u8>]) -> (Vec<(Vec<u8>, u32)>, u64) {
    let mut mgr = NfManager::new();
    let cid = mgr.add_chain(
        0,
        vec![("nf".to_string(), spec)],
        128,
        7,
        ChainPolicy::Bypass,
    );
    let nf0 = mgr.chain_of_tenant(0).unwrap().nfs[0];
    let mut pool = DpPacketPool::new(128, 2048);
    let mut exits = Vec::new();
    // Record each exit and hand its descriptor back.
    fn take_exits(mgr: &mut NfManager, pool: &mut DpPacketPool, exits: &mut Vec<(Vec<u8>, u32)>) {
        while let Some((p, port)) = mgr.pop_exit() {
            exits.push((p.data().to_vec(), port));
            pool.put(p);
        }
    }
    for f in frames {
        let mut pkt = pool.take();
        pkt.set_data(f);
        match mgr.ingress(cid, pkt, &mut pool) {
            Ingress::Queued { .. } => {}
            Ingress::Exit { pkt, port } => exits.push((pkt.data().to_vec(), port)),
            Ingress::RingFull { .. } => panic!("128-slot ring must not fill under eager drain"),
            Ingress::FailClosed { .. } | Ingress::NoChain => {
                panic!("healthy single-NF chain refused a packet")
            }
        }
        // Drain eagerly so the 128-slot ring never backpressures.
        mgr.poll_nf(nf0, 0, false, &mut pool);
        take_exits(&mut mgr, &mut pool, &mut exits);
    }
    loop {
        let out = mgr.poll_nf(nf0, 0, false, &mut pool);
        if out.processed == 0 {
            break;
        }
        take_exits(&mut mgr, &mut pool, &mut exits);
    }
    (exits, mgr.totals().verdict_drops)
}

fn arb_fw_rule() -> impl Strategy<Value = FwRule> {
    (
        prop_oneof![
            Just(None),
            Just(Some(6u8)),
            Just(Some(17u8)),
            (0u8..=255).prop_map(Some),
        ],
        0u16..2000,
        0u16..2000,
        any::<bool>(),
    )
        .prop_map(|(proto, a, b, allow)| FwRule {
            proto,
            dport_lo: a.min(b),
            dport_hi: a.max(b),
            allow,
        })
}

proptest! {
    /// The built-in firewall's forward/drop decisions match the
    /// reference model packet-by-packet, in order.
    #[test]
    fn firewall_matches_reference(
        rules in prop::collection::vec(arb_fw_rule(), 0..6),
        default_allow in any::<bool>(),
        specs in prop::collection::vec((1u16..60_000, 0u16..2500, 0usize..32), 1..48),
    ) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(sp, dp_, n)| udp_frame(sp, dp_, &vec![0u8; n]))
            .collect();
        let spec = NfSpec::Firewall { rules: rules.clone(), default_allow };
        let (exits, drops) = single_nf_run(spec, &frames);
        let expected: Vec<&Vec<u8>> = frames
            .iter()
            .filter(|f| ref_firewall_allows(&rules, default_allow, f))
            .collect();
        prop_assert_eq!(drops, (frames.len() - expected.len()) as u64);
        prop_assert_eq!(exits.len(), expected.len());
        for ((got, port), want) in exits.iter().zip(expected) {
            prop_assert_eq!(got, want, "forwarded frames must come out unmodified, in order");
            prop_assert_eq!(*port, 7, "firewall exits on the chain default output");
        }
    }

    /// The built-in L4 load balancer steers every packet to the backend
    /// the independent FNV-1a reference predicts.
    #[test]
    fn load_balancer_matches_fnv_reference(
        backends in prop::collection::vec(1u32..6, 1..4),
        specs in prop::collection::vec((1u16..60_000, 1u16..60_000, 0usize..32), 1..48),
    ) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(sp, dp_, n)| udp_frame(sp, dp_, &vec![0u8; n]))
            .collect();
        let spec = NfSpec::LoadBalancer { backends: backends.clone() };
        let (exits, drops) = single_nf_run(spec, &frames);
        prop_assert_eq!(drops, 0);
        prop_assert_eq!(exits.len(), frames.len());
        for (f, (got, port)) in frames.iter().zip(&exits) {
            let want = ref_lb_backend(&backends, f).expect("IPv4 frames always hash");
            prop_assert_eq!(got, f);
            prop_assert_eq!(*port, want, "steer target must match the FNV-1a reference");
        }
    }
}

// ----------------------------------------------------------------------
// (c) Exact accounting under random NfPanic schedules
// ----------------------------------------------------------------------

proptest! {
    /// Four tenants with chains of length 1..=4 (alternating bypass /
    /// fail-closed dead-NF policy) under a random panic schedule: every
    /// offered frame is delivered to a wire or claimed by a named drop
    /// counter — crashes lose batches, never accounting.
    #[test]
    fn ledger_is_exact_under_random_nf_panics(
        seed in 0u64..1_000_000,
        panics in prop::collection::vec((0usize..40, 0u32..4, 0usize..4), 0..10),
    ) {
        quiet_simulated_panics();
        ovs_obs::coverage::reset();

        let mut k = Kernel::new(8);
        let nic0 = k.add_device(NetDevice::new(
            "eth0", MacAddr::new(2, 0, 0, 0, 0, 1), DeviceKind::Phys { link_gbps: 10.0 }, 1,
        ));
        let nic1 = k.add_device(NetDevice::new(
            "eth1", MacAddr::new(2, 0, 0, 0, 0, 2), DeviceKind::Phys { link_gbps: 10.0 }, 1,
        ));
        let nic2 = k.add_device(NetDevice::new(
            "eth2", MacAddr::new(2, 0, 0, 0, 0, 3), DeviceKind::Phys { link_gbps: 10.0 }, 1,
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
        let p2 = dp.add_port(
            "eth2",
            PortType::Afxdp(AfxdpPort::open(&mut k, nic2, 1024, OptLevel::O5).unwrap()),
        );
        dp.set_emc_insert_inv_prob(1);
        let mut total_nfs = 0;
        for t in 0..4u32 {
            let len = 1 + t as usize;
            let templates = [
                ("fw", NfSpec::Firewall { rules: vec![], default_allow: true }),
                ("mon", NfSpec::Monitor),
                ("dpi", NfSpec::Dpi { patterns: vec![b"EVIL".to_vec()] }),
                ("lb", NfSpec::LoadBalancer { backends: vec![p1, p2] }),
            ];
            let specs = templates
                .into_iter()
                .take(len)
                .map(|(n, s)| (format!("t{t}-{n}"), s))
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

        let mut rng = ovs_sim::SimRng::new(seed);
        let mut offered = 0u64;
        for round in 0..40usize {
            for (pr, tenant, pos) in &panics {
                if *pr == round {
                    let chain = dp.nfv.chain_of_tenant(*tenant).unwrap();
                    let nf = chain.nfs[*pos % chain.nfs.len()];
                    k.inject_fault(ovs_sim::FaultKind::NfPanic, nf, 0, 5_000_000);
                }
            }
            for _ in 0..4 {
                let t = rng.below(4) as u16;
                let f = udp_frame(1024 + rng.below(50_000) as u16, 4000 + t, &[0x5a; 32]);
                k.receive(nic0, 0, f);
                offered += 1;
            }
            pmds.run_round(&mut dp, &mut k);
            k.sim.clock.advance(100_000);
        }
        for _ in 0..1024 {
            let moved = pmds.run_round(&mut dp, &mut k);
            k.sim.clock.advance(100_000);
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
        let delivered = (k.device(nic1).tx_wire.len() + k.device(nic2).tx_wire.len()) as u64;
        let (_, counted) = counted_drops();
        prop_assert_eq!(
            offered,
            delivered + counted,
            "offered {} != delivered {} + counted {}",
            offered,
            delivered,
            counted
        );
        assert!(dp.stats.coherent(), "dpif stats incoherent after NF crashes");
    }
}
