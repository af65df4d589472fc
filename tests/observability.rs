//! Golden observability test: a deterministic two-host NSX scenario
//! exercises the full datapath, then asserts the rendered `coverage/show`
//! and `dpif-netdev/pmd-perf-show` text, the exact per-stage cycle
//! attribution, and the `ofproto/trace` of a Geneve-tunnelled VM frame
//! through the NSX pipeline.
//!
//! Coverage counters are thread-local and the sim clock is virtual, so
//! every number below is exactly reproducible; if a datapath change
//! legitimately shifts one, update the golden alongside it.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_afxdp_repro::kernel::tools;
use ovs_afxdp_repro::nsx::ruleset;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, HostConfig, HostPair, VmAttachment};
use ovs_afxdp_repro::obs::coverage;
use ovs_afxdp_repro::ovs::appctl;
use ovs_afxdp_repro::packet::builder;
use ovs_core::dpif::PortType;
use ovs_core::DpifNetdev;
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_obs::latency::LatencySummary;
use ovs_packet::MacAddr;
use ovs_sim::FaultKind;

use proptest::prelude::*;

/// The deterministic 2-VM NSX host pair on the userspace AF_XDP datapath,
/// after VM0 on host 1 sent one UDP datagram to VM0 on host 2 and the
/// echo guests bounced it across the overlay until the pair settled.
fn settled_pair() -> HostPair {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut pair = HostPair::new(|id| HostConfig::nsx_small(id, dpk, VmAttachment::VhostUser));
    let g = pair.h1.guest_of_vif[0];
    pair.h1.kernel.guests[g]
        .tx_ring
        .push_back(ruleset::vm_udp_frame(1, 2));
    pair.settle();
    pair
}

const GOLDEN_COVERAGE: &str = "\
counter                             total        epoch    avg/epoch
batch_flush                           159          159        159.0
bpf_helper_call                        32           32         32.0
bpf_insn_executed                     192          192        192.0
bpf_prog_run                           32           32         32.0
ct_established                          2            2          2.0
ct_hit                                 61           61         61.0
ct_new                                  2            2          2.0
dpif_ct_lookup                         96           96         96.0
dpif_megaflow_hit                     147          147        147.0
dpif_packet                            63           63         63.0
dpif_recirc                            96           96         96.0
dpif_rx                                63           63         63.0
dpif_tunnel_decap                      31           31         31.0
dpif_tunnel_encap                      32           32         32.0
dpif_tx                                63           63         63.0
dpif_upcall                            12           12         12.0
miniflow_expand                        12           12         12.0
xsk_rx_batch                           31           31         31.0
xsk_rx_packet                          31           31         31.0
xsk_tx_kick                            32           32         32.0
xsk_tx_packet                          32           32         32.0
";

const GOLDEN_PERF: &str = "\
pmd thread core 1:
  iterations: 378  packets: 31  busy: 60860 ns (146064 cycles)
  avg cycles/pkt: 4711.7
  rx                           2447 ns           5872 cycles    4.0%
  parse                        4416 ns          10598 cycles    7.3%
  emc lookup                   1716 ns           4118 cycles    2.8%
  smc lookup                      0 ns              0 cycles    0.0%
  megaflow lookup             18532 ns          44476 cycles   30.5%
  upcall/translate            13600 ns          32640 cycles   22.3%
  batch setup/flush            8112 ns          19468 cycles   13.3%
  actions                         0 ns              0 cycles    0.0%
  ct lookup                    5640 ns          13536 cycles    9.3%
  nf exec                         0 ns              0 cycles    0.0%
  recirc                       1645 ns           3948 cycles    2.7%
  tx                           4752 ns          11404 cycles    7.8%
  revalidate                      0 ns              0 cycles    0.0%
  per-packet ns: p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
all pmd threads:
  iterations: 378  packets: 31  busy: 60860 ns (146064 cycles)
  avg cycles/pkt: 4711.7
  rx                           2447 ns           5872 cycles    4.0%
  parse                        4416 ns          10598 cycles    7.3%
  emc lookup                   1716 ns           4118 cycles    2.8%
  smc lookup                      0 ns              0 cycles    0.0%
  megaflow lookup             18532 ns          44476 cycles   30.5%
  upcall/translate            13600 ns          32640 cycles   22.3%
  batch setup/flush            8112 ns          19468 cycles   13.3%
  actions                         0 ns              0 cycles    0.0%
  ct lookup                    5640 ns          13536 cycles    9.3%
  nf exec                         0 ns              0 cycles    0.0%
  recirc                       1645 ns           3948 cycles    2.7%
  tx                           4752 ns          11404 cycles    7.8%
  revalidate                      0 ns              0 cycles    0.0%
  per-packet ns: p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
";

const GOLDEN_RXQ: &str = "\
pmd thread core 1:
  isolated : false
  port: eth0             queue-id:  0  pmd usage:  45 %
  port: gnv0             queue-id:  0  pmd usage:   0 %
  port: vhost0           queue-id:  0  pmd usage:  54 %
  port: vhost1           queue-id:  0  pmd usage:   0 %
  port: vhost2           queue-id:  0  pmd usage:   0 %
  port: vhost3           queue-id:  0  pmd usage:   0 %
";

const GOLDEN_AUTO_LB: &str = "\
pmd-auto-lb: disabled
  assignment policy     : roundrobin
  improvement threshold : 25 %
  checks (dry runs)     : 0
  rebalances applied    : 0
  last improvement      : n/a
";

const GOLDEN_TRACE: &str = "\
Trace: 200 byte frame on in_port=2
pass 1: flow in_port=2,eth_type=0x0800,nw_src=10.101.0.2,nw_dst=10.102.0.2,nw_proto=17,tp_src=3333,tp_dst=4444
    cache: megaflow hit (mask 128 bits)
    Datapath actions: [Ct { zone: 1, commit: false, nat: None }, Recirc(1)]
    ct(zone=1,commit=false): verdict ct_state=0x03
    recirc(0x1)
pass 2: flow in_port=2,eth_type=0x0800,nw_src=10.101.0.2,nw_dst=10.102.0.2,nw_proto=17,tp_src=3333,tp_dst=4444,recirc_id=0x1,ct_state=0x03
    cache: megaflow hit (mask 234 bits)
    Datapath actions: [Ct { zone: 100, commit: true, nat: None }, Recirc(2)]
    ct(zone=100,commit=true): verdict ct_state=0x05
    recirc(0x2)
pass 3: flow in_port=2,eth_type=0x0800,nw_src=10.101.0.2,nw_dst=10.102.0.2,nw_proto=17,tp_src=3333,tp_dst=4444,recirc_id=0x2,ct_state=0x05
    cache: megaflow hit (mask 112 bits)
    Datapath actions: [SetTunnel { id: 5000, dst: [172, 16, 0, 2] }, Output(1)]
    tunnel encap (Geneve): tun_id=5000, dst=172.16.0.2, outer 250 bytes
    output: port 0 (eth0, afxdp(if1))
";

#[test]
fn golden_observability_two_host_nsx() {
    coverage::reset();
    let mut h1 = settled_pair().h1;

    // --- pmd-perf-show: exact stage attribution --------------------
    let dp1 = h1.dp.as_ref().unwrap();
    let perf = dp1.perf.get(&h1.switch_core).expect("switch core polled");
    assert!(perf.poll_ns_total() > 0, "sim time advanced");
    assert_eq!(
        perf.stage_ns_total(),
        perf.poll_ns_total(),
        "per-stage cycles sum exactly to total pmd_poll cycles"
    );

    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-perf-show", &[]).unwrap();
    assert_eq!(show, GOLDEN_PERF, "pmd-perf-show golden drifted:\n{show}");

    // --- coverage/show --------------------------------------------
    let dp1 = h1.dp.as_mut().unwrap();
    let cov = appctl::dispatch(dp1, &mut h1.kernel, "coverage/show", &[]).unwrap();
    assert_eq!(cov, GOLDEN_COVERAGE, "coverage/show golden drifted:\n{cov}");

    // --- ofproto/trace of the Geneve path -------------------------
    // The flow is warm, so each pass hits the megaflow cache; the trace
    // shows the two firewall ct/recirc passes and the Geneve encap —
    // the NSX two-bridge pipeline end to end.
    h1.kernel.capture_start(h1.uplink_if);
    let dp1 = h1.dp.as_mut().unwrap();
    let vif0 = h1.ports.vifs[0];
    let trace = dp1.ofproto_trace(
        &mut h1.kernel,
        &ruleset::vm_udp_frame(1, 2),
        vif0,
        h1.switch_core,
    );
    assert_eq!(
        trace, GOLDEN_TRACE,
        "ofproto/trace golden drifted:\n{trace}"
    );

    // Attribution stays exact with the traced packet folded in.
    let dp1 = h1.dp.as_ref().unwrap();
    let perf = dp1.perf.get(&h1.switch_core).unwrap();
    assert_eq!(perf.stage_ns_total(), perf.poll_ns_total());

    // --- tcpdump correlates the traced frame ----------------------
    // The encapsulated outer frame left on the uplink while the trace
    // was attached, so the capture tags it.
    let lines = tools::tcpdump(&mut h1.kernel, "eth0", 64).unwrap();
    let tagged: Vec<_> = lines.iter().filter(|l| l.contains("[traced]")).collect();
    assert_eq!(
        tagged.len(),
        1,
        "exactly the traced egress is tagged: {lines:?}"
    );
    assert!(
        tagged[0].contains("172.16.0.1 > 172.16.0.2"),
        "outer Geneve header: {}",
        tagged[0]
    );

    // --- nstat carries the coverage counters ----------------------
    let ns = tools::nstat(&h1.kernel);
    assert!(ns.contains("dpif_tunnel_encap"), "{ns}");
    assert!(ns.contains("xsk_tx_packet"), "{ns}");

    // --- ethtool -S shows driver-boundary coverage ----------------
    let es = tools::ethtool_stats(&h1.kernel, "eth0").unwrap();
    assert!(es.contains("xsk_rx_batch"), "{es}");

    // --- pmd-rxq-show / pmd-auto-lb-show --------------------------
    let rxq = h1.appctl("dpif-netdev/pmd-rxq-show", &[]).unwrap();
    assert_eq!(rxq, GOLDEN_RXQ, "pmd-rxq-show golden drifted:\n{rxq}");
    let lb = h1.appctl("dpif-netdev/pmd-auto-lb-show", &[]).unwrap();
    assert_eq!(lb, GOLDEN_AUTO_LB, "pmd-auto-lb-show golden drifted:\n{lb}");

    // --- pmd-stats-clear resets both stats and perf ---------------
    let dp1 = h1.dp.as_mut().unwrap();
    let out = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-stats-clear", &[]).unwrap();
    assert!(out.contains("cleared"));
    assert!(dp1.perf.is_empty());
    assert_eq!(dp1.stats.rx_packets, 0);
}

// ----------------------------------------------------------------------
// Latency goldens: rx→tx histograms and the per-stage decomposition on
// the same deterministic two-host scenario
// ----------------------------------------------------------------------

const GOLDEN_LATENCY: &str = "\
rx-to-tx latency (ns):
  all ports: samples 31  min 1494 p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
  port 0 (eth0): samples 16  min 1494 p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
  port 2 (vhost0): samples 15  min 1584 p50 2047 p90 2047 p99 5420 p99.9 5420 max 5420
  pmd core 1: samples 31  min 1494 p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
per-stage latency (delivered-weighted):
  rx                           2447 ns (  4.0%)
  parse                        4416 ns (  7.3%)
  emc lookup                   1716 ns (  2.8%)
  megaflow lookup             18532 ns ( 30.5%)
  upcall/translate            13600 ns ( 22.3%)
  batch setup/flush            8112 ns ( 13.3%)
  ct lookup                    5640 ns (  9.3%)
  recirc                       1645 ns (  2.7%)
  tx                           4752 ns (  7.8%)
  stage-weighted total: 60860 ns (== delivered-weighted poll 60860 ns)
  end-to-end total    : 60860 ns (amortization gap 0.0%)
";

const GOLDEN_LATENCY_HIST: &str = "\
rx-to-tx latency histogram (ns):
  all ports: samples 31  min 1494 p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
  [        1024,         2047]         29 ########################################
  [        4096,         8191]          1 #
  [        8192,        16383]          1 #
  pmd core 1: samples 31  min 1494 p50 2047 p90 2047 p99 10848 p99.9 10848 max 10848
  [        1024,         2047]         29 ########################################
  [        4096,         8191]          1 #
  [        8192,        16383]          1 #
";

#[test]
fn golden_latency_two_host_nsx() {
    let mut h1 = settled_pair().h1;

    // The decomposition invariant: the per-stage latency attribution is
    // exact (sums to the delivered-weighted poll total), and the
    // end-to-end total can only be smaller — the difference is batch
    // amortization, never unattributed time.
    let dp1 = h1.dp.as_ref().unwrap();
    assert!(dp1.latency.samples() > 0, "delivered packets were sampled");
    assert_eq!(
        dp1.latency.stage_latency_total(),
        dp1.latency.weighted_poll_ns(),
        "stage latency attribution must be exact"
    );
    assert!(
        dp1.latency.end_to_end_ns() <= dp1.latency.weighted_poll_ns(),
        "end-to-end latency cannot exceed the delivered-weighted poll time"
    );

    // --- latency-show / latency-hist goldens ----------------------
    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/latency-show", &[]).unwrap();
    assert_eq!(show, GOLDEN_LATENCY, "latency-show golden drifted:\n{show}");
    let hist = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/latency-hist", &[]).unwrap();
    assert_eq!(
        hist, GOLDEN_LATENCY_HIST,
        "latency-hist golden drifted:\n{hist}"
    );

    // --- the per-stage section is opt-in --------------------------
    // Default pmd-perf-show is pinned byte-for-byte above; the latency
    // decomposition only appears under `-hist`.
    let dp1 = h1.dp.as_mut().unwrap();
    let plain = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-perf-show", &[]).unwrap();
    assert!(!plain.contains("per-stage latency"));
    let detail =
        appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-perf-show", &["-hist"]).unwrap();
    assert!(detail.starts_with(&plain), "-hist only appends");
    assert!(detail.contains("per-stage latency (delivered-weighted):"));

    // --- pmd-stats carries the headline summary -------------------
    let dp1 = h1.dp.as_mut().unwrap();
    let stats = appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-stats-show", &[]).unwrap();
    assert!(stats.contains("rx-to-tx latency:"), "{stats}");

    // --- pmd-stats-clear also resets the tracker ------------------
    let dp1 = h1.dp.as_mut().unwrap();
    appctl::dispatch(dp1, &mut h1.kernel, "dpif-netdev/pmd-stats-clear", &[]).unwrap();
    assert_eq!(dp1.latency.samples(), 0);
    assert_eq!(dp1.latency.weighted_poll_ns(), 0);
}

// ----------------------------------------------------------------------
// Timestamp conservation: every packet entering the pipeline either
// leaves exactly one rx→tx latency sample (delivered) or is claimed by
// a drop counter — never both, never neither
// ----------------------------------------------------------------------

proptest! {
    /// Seeded AF_XDP forward rig with a deliberately small egress ring:
    /// a random mix of forwarded and unmatched (dropped) flows, and for
    /// one seed in three a mid-run egress ring stall that forces
    /// tx-full drops. The ledger must balance exactly:
    ///
    /// * `samples == tx_packets − tx_full_drops` — only frames the
    ///   backend actually accepted are sampled;
    /// * `packets_processed == samples + dropped` — everything else is
    ///   claimed by the drop counter.
    #[test]
    fn timestamp_conservation(seed in 0u64..1_000_000) {
        let mut k = Kernel::new(16);
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
            PortType::Afxdp(AfxdpPort::open(&mut k, nic0, 512, OptLevel::O5).unwrap()),
        );
        let p1 = dp.add_port(
            "eth1",
            PortType::Afxdp(AfxdpPort::open(&mut k, nic1, 64, OptLevel::O5).unwrap()),
        );
        dp.add_flows(&format!(
            "table=0, priority=10, in_port={p0}, udp, tp_dst=6000, actions=output:{p1}"
        ))
        .unwrap();
        dp.set_emc_insert_inv_prob(1);

        let mut lcg = seed;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let inject = |k: &mut Kernel, next: &mut dyn FnMut() -> u64, matched: bool| {
            let f = builder::udp_ipv4_frame(
                MacAddr::new(2, 0, 0, 0, 9, 9),
                MacAddr::new(2, 0, 0, 0, 0, 1),
                [10, 0, 0, (next() % 8) as u8 + 1],
                [10, 0, 0, 200],
                1000 + (next() % 16) as u16,
                if matched { 6000 } else { 7000 },
                96,
            );
            k.receive(nic0, 0, f);
        };

        // One guaranteed frame of each fate, then the random schedule.
        let mut offered = 2u64;
        inject(&mut k, &mut next, true);
        inject(&mut k, &mut next, false);
        dp.pmd_poll(&mut k, p0, 0, 8);

        let rounds = 24 + (next() % 24) as usize;
        let stall_at = (seed % 3 == 0).then_some(rounds / 2);
        for round in 0..rounds {
            if stall_at == Some(round) {
                // The egress NIC loses its tx kick: the kernel stops
                // draining the tx ring, so sustained tx exhausts the
                // 64-frame pool and flush_tx starts counting drops.
                k.inject_fault(FaultKind::RxRingStall, nic1, 0, 0);
            }
            let burst = 1 + (next() % 8) as usize;
            for _ in 0..burst {
                let matched = next() % 4 != 0;
                inject(&mut k, &mut next, matched);
                offered += 1;
            }
            dp.pmd_poll(&mut k, p0, 0, 8);
        }
        if stall_at.is_some() {
            // Enough matched traffic to guarantee the stalled pool runs
            // dry regardless of what the schedule already sent.
            for _ in 0..12 {
                for _ in 0..8 {
                    inject(&mut k, &mut next, true);
                    offered += 1;
                }
                dp.pmd_poll(&mut k, p0, 0, 8);
            }
        }
        // Drain anything still parked in the ingress ring.
        for _ in 0..16 {
            if dp.pmd_poll(&mut k, p0, 0, 8) == 0 {
                break;
            }
        }

        let s = &dp.stats;
        prop_assert!(s.coherent(), "stats incoherent: {s:?}");
        prop_assert_eq!(
            s.packets_processed, offered,
            "every offered frame entered the pipeline"
        );
        let samples = dp.latency.samples();
        prop_assert_eq!(
            samples,
            s.tx_packets - s.tx_full_drops,
            "exactly the delivered frames are sampled (tx {} full {})",
            s.tx_packets,
            s.tx_full_drops
        );
        prop_assert_eq!(
            s.packets_processed,
            samples + s.dropped,
            "sampled + counted drops must cover the pipeline exactly"
        );
        prop_assert!(samples > 0, "the matched flow delivered");
        prop_assert!(s.dropped > 0, "the unmatched flow was counted");
        if stall_at.is_some() {
            prop_assert!(
                s.tx_full_drops > 0,
                "the stalled egress ring forced tx-full drops"
            );
        }
        let sum = LatencySummary::of(&dp.latency.all);
        prop_assert!(sum.min_ns > 0, "rx precedes tx on every sample: {sum:?}");
        prop_assert!(sum.max_ns >= sum.min_ns);
    }
}

// ----------------------------------------------------------------------
// Conntrack introspection goldens: ct-dump / ct-stats / ct/flush on the
// same deterministic two-host scenario
// ----------------------------------------------------------------------

const GOLDEN_CT_DUMP: &str = "\
udp,orig=(src=10.101.0.2,dst=10.102.0.2,sport=3333,dport=4444),zone=100,state=ESTABLISHED,age=0s,packets=31
ct: 1 connection(s)
";

const GOLDEN_CT_STATS: &str = "\
conns: 1 / 4194304 max (64 shards, occupancy min 0 max 1)
policy: early-drop on (pressure 90%), tcp loose
zone 100: 1
ops:47 hits:30 misses:17 commits:1 established:1
drops: zone-limit:0 table-full:0 invalid:0
evictions:0 (early-drop:0) expired:0 flushed:0
sweeps:0 shards-swept:0 pmd-affinity hits:44 migrations:0
";

#[test]
fn golden_conntrack_introspection_two_host_nsx() {
    let mut h1 = settled_pair().h1;

    // The NSX firewall tracks the VM flow in both its zones; the dump
    // is sorted and fully deterministic under the virtual clock.
    let dump = h1.appctl("dpctl/ct-dump", &[]).unwrap();
    assert_eq!(dump, GOLDEN_CT_DUMP, "ct-dump golden drifted:\n{dump}");

    // Zone filtering: the firewall's first ct pass (zone 1) only
    // tracks, so all committed state lives in zone 100.
    let z1 = h1.appctl("dpctl/ct-dump", &["zone=1"]).unwrap();
    assert!(z1.trim_end().ends_with("ct: 0 connection(s)"), "{z1}");
    let z100 = h1.appctl("dpctl/ct-dump", &["zone=100"]).unwrap();
    assert_eq!(z100, GOLDEN_CT_DUMP, "zone filter must match the dump");

    let stats = h1.appctl("dpctl/ct-stats", &[]).unwrap();
    assert_eq!(stats, GOLDEN_CT_STATS, "ct-stats golden drifted:\n{stats}");

    // Flush one zone, then everything; the occupancy ledger follows.
    let f1 = h1.appctl("ct/flush", &["zone=100"]).unwrap();
    assert_eq!(f1, "1 connection(s) flushed from zone 100\n");
    let f2 = h1.appctl("ct/flush", &[]).unwrap();
    assert_eq!(f2, "0 connection(s) flushed\n");
    let empty = h1.appctl("dpctl/ct-dump", &[]).unwrap();
    assert!(empty.trim_end().ends_with("ct: 0 connection(s)"), "{empty}");

    // list-commands advertises the new surface.
    let cmds = h1.appctl("list-commands", &[]).unwrap();
    for c in ["dpctl/ct-dump", "dpctl/ct-stats", "ct/flush"] {
        assert!(cmds.contains(c), "{c} missing from list-commands:\n{cmds}");
    }
}

// ----------------------------------------------------------------------
// NFV goldens: nfv/show, nfv/chain-show, nfv/stats on a deterministic
// two-tenant chain rig
// ----------------------------------------------------------------------

const GOLDEN_NFV_SHOW: &str = "\
nfv manager: 3 NFs, 2 chains, backoff 1000 us, restart budget 8
nf   0 edge-fw      (firewall   ) running  chain   0 rx        4 tx        3 drops      1 ring   0/8   restarts 0
nf   1 flowmon      (monitor    ) running  chain   0 rx        3 tx        3 drops      0 ring   0/8   restarts 0
nf   2 audit        (monitor    ) running  chain   1 rx        2 tx        2 drops      0 ring   0/8   restarts 0
";

const GOLDEN_NFV_CHAIN_SHOW: &str = "\
tenant 0 chain 0 (policy bypass, default output 1):
  [0] nf 0 edge-fw (firewall) state running pmd core 1 ring 0/8
  [1] nf 1 flowmon (monitor) state running pmd core 1 ring 0/8
  in-flight: 0
";

const GOLDEN_NFV_STATS: &str = "\
nfv totals: rx 9 tx 8 steered 0 verdict-drops 1 ring-full 0 crash-drops 0 fail-closed 0
nfv health: crashes 0 restarts 0
";

/// Two tenants — a bypass firewall+monitor chain and a fail-closed
/// monitor chain — fed a fixed frame mix (one frame firewall-dropped),
/// then the three `nfv/*` surfaces asserted byte-exactly, including the
/// PMD core placement the scheduler reports for each NF.
#[test]
fn golden_nfv_surfaces() {
    use ovs_core::nfv::{ChainPolicy, FwRule, NfSpec};
    use ovs_core::{AssignmentPolicy, PmdSet};

    coverage::reset();
    let mut k = Kernel::new(4);
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
        PortType::Afxdp(AfxdpPort::open(&mut k, nic0, 256, OptLevel::O5).unwrap()),
    );
    let p1 = dp.add_port(
        "eth1",
        PortType::Afxdp(AfxdpPort::open(&mut k, nic1, 256, OptLevel::O5).unwrap()),
    );

    let c0 = dp.nfv.add_chain(
        0,
        vec![
            (
                "edge-fw".to_string(),
                NfSpec::Firewall {
                    rules: vec![FwRule {
                        proto: Some(17),
                        dport_lo: 4001,
                        dport_hi: 4001,
                        allow: false,
                    }],
                    default_allow: true,
                },
            ),
            ("flowmon".to_string(), NfSpec::Monitor),
        ],
        8,
        p1,
        ChainPolicy::Bypass,
    );
    let c1 = dp.nfv.add_chain(
        1,
        vec![("audit".to_string(), NfSpec::Monitor)],
        8,
        p1,
        ChainPolicy::FailClosed,
    );
    dp.add_flows(&format!(
        "table=0, priority=10, udp, tp_dst=4000, actions=nf_chain:{c0}\n\
         table=0, priority=11, udp, tp_dst=4001, actions=nf_chain:{c0}\n\
         table=0, priority=12, udp, tp_dst=4100, actions=nf_chain:{c1}\n"
    ))
    .unwrap();

    let mut pmds = PmdSet::new(&[1], AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(p0, 1);
    pmds.add_nf_units(3);
    pmds.rebalance();

    // Tenant 0: three allowed frames plus one the firewall rule drops;
    // tenant 1: two audited frames.
    for (sport, dport) in [
        (7000, 4000),
        (7001, 4000),
        (7002, 4000),
        (7003, 4001),
        (7004, 4100),
        (7005, 4100),
    ] {
        let f = builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            sport,
            dport,
            &[0x5a; 40],
        );
        k.receive(nic0, 0, f);
    }
    for _ in 0..64 {
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
    assert_eq!(
        k.device(nic1).tx_wire.len(),
        5,
        "5 of 6 frames must forward"
    );

    let show =
        appctl::dispatch_full(&mut dp, &mut k, None, Some(&mut pmds), "nfv/show", &[]).unwrap();
    assert_eq!(show, GOLDEN_NFV_SHOW);
    let chain = appctl::dispatch_full(
        &mut dp,
        &mut k,
        None,
        Some(&mut pmds),
        "nfv/chain-show",
        &["0"],
    )
    .unwrap();
    assert_eq!(chain, GOLDEN_NFV_CHAIN_SHOW);
    let stats =
        appctl::dispatch_full(&mut dp, &mut k, None, Some(&mut pmds), "nfv/stats", &[]).unwrap();
    assert_eq!(stats, GOLDEN_NFV_STATS);
}
