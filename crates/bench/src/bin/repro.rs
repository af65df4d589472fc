//! Regenerate every table and figure of "Revisiting the Open vSwitch
//! Dataplane Ten Years Later" (SIGCOMM 2021) from the simulation.
//!
//! Usage:
//!   repro              # everything
//!   repro --table2     # one experiment (any of the flags below)
//!
//! Flags: --fig1 --table1 --fig2 --table2 --table3 --fig8a --fig8b
//!        --fig8c --fig9 --table4 --fig10 --fig11 --table5 --fig12
//!        --scaling --ablation --churn --fastpath --faults --latency
//!        --conntrack --restart --chains
//!
//! `--fig12` and `--scaling` select the same section: the Fig 12 grid
//! and the scheduler policy ablation, written to `BENCH_scaling.json`.

use ovs_afxdp::OptLevel;
use ovs_bench::fig1;
use ovs_bench::json::Json;
use ovs_core::health::quiet_simulated_panics;
use ovs_kernel::dev::{DeviceKind, NetDevice, XdpMode};
use ovs_kernel::{tools, Kernel};
use ovs_nsx::ruleset::{self, NsxConfig, NsxPorts};
use ovs_nsx::topology::{DatapathKind, VmAttachment};
use ovs_packet::MacAddr;
use ovs_sim::Percentiles;
use ovs_tgen::iperf::{self, CcMode, Offloads};
use ovs_tgen::measure::RateMeasurement;
use ovs_tgen::netperf::{self, RrConfig};
use ovs_tgen::scenarios::{self, DpKind, PathKind, ScenarioConfig, VmAttach, XdpTask};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    if want("--fig1") {
        section("Figure 1 — out-of-tree kernel module churn (embedded dataset)");
        print!("{}", fig1::render());
    }
    if want("--table1") {
        table1();
    }
    if want("--fig2") {
        fig2();
    }
    if want("--table2") {
        table2();
    }
    if want("--table3") {
        table3();
    }
    if want("--fig8a") {
        fig8a();
    }
    if want("--fig8b") {
        fig8b();
    }
    if want("--fig8c") {
        fig8c();
    }
    if want("--fig9") || want("--table4") {
        fig9_table4();
    }
    if want("--fig10") {
        fig10();
    }
    if want("--fig11") {
        fig11();
    }
    if want("--table5") {
        table5();
    }
    if want("--fig12") || want("--scaling") {
        scaling();
    }
    if want("--ablation") {
        ablation();
    }
    if want("--churn") {
        churn();
    }
    if want("--fastpath") {
        fastpath();
    }
    if want("--faults") {
        faults();
    }
    if want("--latency") {
        latency();
    }
    if want("--conntrack") {
        conntrack();
    }
    if want("--restart") {
        restart();
    }
    if want("--chains") {
        chains();
    }
}

fn chains() {
    section("Extension — ovs-nfv: per-tenant NF service chains on the PMD scheduler");
    // NF worker panics are caught at the manager's unwind boundary; keep
    // their backtraces out of the report (anything else still prints).
    quiet_simulated_panics();
    const SEED: u64 = 0x5EED;

    // Tenant-scaling sweep: the same soak at 64/256/1024 tenants. The
    // accounting contract must hold at every scale; the largest run is
    // the headline report.
    let scales = [64usize, 256, 1024];
    let reports: Vec<scenarios::ChainsReport> = scales
        .iter()
        .map(|&t| scenarios::run_chains(t, SEED))
        .collect();
    let r = reports.last().expect("at least one scale");

    println!("  schedule seed                {:>#10x}", r.seed);
    println!("  tenant scaling:");
    println!("    tenants   nf-units    offered  delivered    drops  unacct  pool-reuse");
    for rep in &reports {
        println!(
            "    {:>7}   {:>8}   {:>8}  {:>9}  {:>7}  {:>6}  {:>10}",
            rep.tenants,
            rep.nf_instances,
            rep.frames_offered,
            rep.delivered,
            rep.counted_drops,
            rep.unaccounted,
            rep.pool_reuses,
        );
    }
    println!(
        "  NF crashes / restarts        {:>10}   (crash batch loss {} frames)",
        format!("{}/{}", r.nf_crashes, r.nf_restarts),
        r.crash_drops
    );
    println!(
        "  verdict / ring-full / f-closed {:>8}   ({} / {} / {})",
        "", r.verdict_drops, r.ring_full_drops, r.fail_closed_drops
    );
    println!("  LB steered off default path  {:>10}", r.steered);
    println!("  per-frame cost by chain length:");
    for (len, ns) in &r.chain_ns_per_pkt {
        println!(
            "    {len} NF{}  {ns:>10.1} ns/pkt",
            if *len == 1 { " " } else { "s" }
        );
    }
    println!(
        "  auto-lb variance improvement {:>9}%   ({} rebalance applied)",
        r.lb_improvement_pct, r.lb_rebalances
    );
    println!(
        "  busiest PMD ns/pkt           {:>10}   (skewed {:.0} -> rebalanced {:.0})",
        "", r.bottleneck_before_ns_per_pkt, r.bottleneck_after_ns_per_pkt
    );
    println!(
        "  forwarding resumed           {:>10}   (probe {}/{})",
        if r.forwarding_resumed { "yes" } else { "NO" },
        r.probe_delivered,
        r.probe_sent
    );
    println!("  drops by counter:");
    for (name, n) in &r.drops_by_counter {
        if *n > 0 {
            println!("    {name:<26} {n:>8}");
        }
    }

    // Deterministic for a given seed, so CI diffs it byte for byte.
    let scale_row = |rep: &scenarios::ChainsReport| {
        Json::row([
            ("tenants", rep.tenants.into()),
            ("nf_instances", rep.nf_instances.into()),
            ("offered", rep.frames_offered.into()),
            ("delivered", rep.delivered.into()),
            ("counted_drops", rep.counted_drops.into()),
            ("unaccounted", rep.unaccounted.into()),
        ])
    };
    let chain_cost = r
        .chain_ns_per_pkt
        .iter()
        .map(|(len, ns)| (len.to_string(), Json::float(*ns, 1)));
    write_bench(
        "chains",
        Json::obj([
            ("bench", "chains".into()),
            ("seed", r.seed.into()),
            ("tenants", r.tenants.into()),
            ("nf_instances", r.nf_instances.into()),
            ("frames_offered", r.frames_offered.into()),
            ("delivered", r.delivered.into()),
            ("counted_drops", r.counted_drops.into()),
            ("unaccounted", r.unaccounted.into()),
            ("nf_crashes", r.nf_crashes.into()),
            ("nf_restarts", r.nf_restarts.into()),
            ("crash_drops", r.crash_drops.into()),
            ("verdict_drops", r.verdict_drops.into()),
            ("ring_full_drops", r.ring_full_drops.into()),
            ("fail_closed_drops", r.fail_closed_drops.into()),
            ("steered", r.steered.into()),
            ("pool_reuses", r.pool_reuses.into()),
            ("lb_improvement_pct", r.lb_improvement_pct.into()),
            ("lb_rebalances", r.lb_rebalances.into()),
            ("probe_sent", r.probe_sent.into()),
            ("probe_delivered", r.probe_delivered.into()),
            ("forwarding_resumed", r.forwarding_resumed.into()),
            ("chain_ns_per_pkt", Json::obj(chain_cost)),
            ("tenant_scaling", Json::lines(reports.iter().map(scale_row))),
            ("drops_by_counter", counts(&r.drops_by_counter)),
        ]),
    );

    for rep in &reports {
        assert_eq!(
            rep.unaccounted, 0,
            "chains soak at {} tenants lost packets without counting them",
            rep.tenants
        );
    }
    assert!(
        r.tenants >= 1000,
        "headline run must sustain >= 1000 tenants"
    );
    assert!(
        r.nf_crashes >= 2 && r.nf_restarts >= 2,
        "scheduled NF panics must crash and recover within budget"
    );
    for w in r.chain_ns_per_pkt.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "per-frame cost must rise monotonically with chain length: {:?}",
            r.chain_ns_per_pkt
        );
    }
    assert!(
        r.lb_improvement_pct >= 25 && r.lb_rebalances >= 1,
        "auto-lb must clear its improvement threshold on the skewed load"
    );
    assert!(
        r.forwarding_resumed,
        "forwarding must fully resume after the NF fault schedule clears"
    );
}

fn restart() {
    use ovs_core::FailMode;
    section("Extension — hitless restart & controller-outage survivability");

    // --- Planned daemon restart under flow-restore-wait. ---------------
    const SEED: u64 = 0xBEEF;
    let r = scenarios::run_restart(SEED);
    println!("  schedule seed                {:>#10x}", r.seed);
    println!("  frames offered               {:>10}", r.frames_offered);
    println!("  delivered to sink VM         {:>10}", r.delivered);
    println!("  counted drops                {:>10}", r.counted_drops);
    println!("  unaccounted (must be 0)      {:>10}", r.unaccounted);
    println!(
        "  planned restarts             {:>10}   (crash-path restarts: {})",
        r.graceful_restarts, r.crash_restarts
    );
    println!(
        "  snapshot restored            {:>10}   ({} flows, {} conns)",
        "", r.restored_flows, r.restored_conns
    );
    println!(
        "  forwarded while gated        {:>10}   ({} upcalls gated)",
        r.gated_forwarded, r.gated_upcalls
    );
    println!(
        "  reconciliation               {:>10}   ({} adopted, {} orphaned)",
        "", r.adopted, r.orphaned
    );
    println!(
        "  reconvergence                {:>7.2} ms",
        r.reconvergence_ms
    );
    println!(
        "  forwarding resumed           {:>10}   (probe {}/{})",
        if r.forwarding_resumed { "yes" } else { "NO" },
        r.probe_delivered,
        r.probe_sent
    );

    // --- Fail-mode ladder under TSE flood during the outage. -----------
    let sec = scenarios::run_outage(FailMode::Secure);
    let sta = scenarios::run_outage(FailMode::Standalone);
    for o in [&sec, &sta] {
        println!(
            "  fail-mode {:<10}: goodput {:>9.0} legit/core-s  \
             (delivered {}/{}, flood {}, megaflows after {}, secure drops {})",
            o.fail_mode,
            o.goodput_per_core_sec,
            o.legit_delivered,
            o.legit_offered,
            o.flood_offered,
            o.megaflows_after,
            o.fail_secure_drops
        );
    }
    let ratio = if sta.goodput_per_core_sec > 0.0 {
        sec.goodput_per_core_sec / sta.goodput_per_core_sec
    } else {
        f64::INFINITY
    };
    println!("  secure / standalone goodput  {ratio:>9.2}x");

    let outage_row = |o: &scenarios::OutageReport| {
        Json::row([
            ("fail_mode", o.fail_mode.into()),
            ("legit_offered", o.legit_offered.into()),
            ("legit_delivered", o.legit_delivered.into()),
            ("flood_offered", o.flood_offered.into()),
            ("outage_core_ns", Json::float(o.outage_core_ns, 0)),
            (
                "goodput_per_core_sec",
                Json::float(o.goodput_per_core_sec, 1),
            ),
            ("fail_secure_drops", o.fail_secure_drops.into()),
            ("megaflows_after", o.megaflows_after.into()),
            ("reconnects", o.reconnects.into()),
            ("forwarding_resumed", o.forwarding_resumed.into()),
        ])
    };
    write_bench(
        "restart",
        Json::obj([
            ("bench", "restart".into()),
            ("seed", r.seed.into()),
            ("frames_offered", r.frames_offered.into()),
            ("delivered", r.delivered.into()),
            ("counted_drops", r.counted_drops.into()),
            ("unaccounted", r.unaccounted.into()),
            ("graceful_restarts", r.graceful_restarts.into()),
            ("crash_restarts", r.crash_restarts.into()),
            ("restored_flows", r.restored_flows.into()),
            ("restored_conns", r.restored_conns.into()),
            ("gated_upcalls", r.gated_upcalls.into()),
            ("gated_forwarded", r.gated_forwarded.into()),
            ("adopted", r.adopted.into()),
            ("orphaned", r.orphaned.into()),
            ("reconvergence_ms", Json::float(r.reconvergence_ms, 3)),
            ("forwarding_resumed", r.forwarding_resumed.into()),
            ("outage", Json::lines([outage_row(&sec), outage_row(&sta)])),
            ("secure_vs_standalone_goodput", Json::float(ratio, 3)),
        ]),
    );

    // CI gates: the robustness acceptance bar.
    assert_eq!(
        r.unaccounted, 0,
        "restart soak lost packets without counting them"
    );
    assert!(
        r.gated_forwarded > 0,
        "no packets forwarded from restored megaflows during the gate"
    );
    assert_eq!(r.crash_restarts, 0, "planned restart took the crash path");
    assert_eq!(
        r.adopted + r.orphaned,
        r.restored_flows,
        "reconciliation left restored flows unaccounted"
    );
    assert!(r.forwarding_resumed, "forwarding did not resume");
    assert!(
        ratio >= 2.0,
        "fail-secure must beat fail-open goodput >= 2x under TSE flood (got {ratio:.2}x)"
    );
}

fn conntrack() {
    use ovs_tgen::conntrack as ctb;
    section("Extension — sharded conntrack: million-connection churn and CT-exhaustion TSE");

    let churn = ctb::run_conn_churn();
    println!(
        "  churn: peak {} conns, sustained {} conns ({} elephants + {}/round mice x {} rounds)",
        churn.peak_conns,
        churn.sustained_conns,
        churn.elephants,
        churn.mice_per_round,
        churn.rounds
    );
    println!(
        "  commits {} (nat {}), established {}, refused: zone {} / full {} / invalid {}",
        churn.commits,
        churn.nat_commits,
        churn.established,
        churn.refused_zone,
        churn.refused_full,
        churn.refused_invalid
    );
    println!(
        "  reclaimed: expired {} evicted {}; setup rate {:.2} Mcps over {} table ops; unaccounted {}",
        churn.expired,
        churn.evicted,
        churn.setup_rate_cps / 1e6,
        churn.ct_ops,
        churn.unaccounted
    );

    let undef = ctb::run_ct_tse(false);
    let def = ctb::run_ct_tse(true);
    for r in [&undef, &def] {
        println!(
            "  tse {}: legit {}/{} delivered ({:.3} Mpps), attack {}/{} reached server",
            if r.defended {
                "defended  "
            } else {
                "undefended"
            },
            r.legit_delivered,
            r.legit_offered,
            r.legit_mpps,
            r.attack_delivered,
            r.attack_offered
        );
        println!(
            "      ct drops: limit {} full {} invalid {}; other drops {}; surviving established {}; ct occupancy {}; unaccounted {}",
            r.ct_limit_drops,
            r.ct_full_drops,
            r.ct_invalid_drops,
            r.other_drops,
            r.established_surviving,
            r.ct_occupancy,
            r.unaccounted
        );
    }

    let tse_row = |r: &ctb::CtTseReport| {
        Json::row([
            ("defended", r.defended.into()),
            ("legit_offered", r.legit_offered.into()),
            ("legit_delivered", r.legit_delivered.into()),
            ("legit_mpps", Json::float(r.legit_mpps, 4)),
            ("attack_offered", r.attack_offered.into()),
            ("attack_delivered", r.attack_delivered.into()),
            ("ct_limit_drops", r.ct_limit_drops.into()),
            ("ct_full_drops", r.ct_full_drops.into()),
            ("ct_invalid_drops", r.ct_invalid_drops.into()),
            ("other_drops", r.other_drops.into()),
            ("established_surviving", r.established_surviving.into()),
            ("ct_occupancy", r.ct_occupancy.into()),
            ("unaccounted", r.unaccounted.into()),
        ])
    };
    let churn_row = Json::row([
        ("peak_conns", churn.peak_conns.into()),
        ("sustained_conns", churn.sustained_conns.into()),
        ("offered_commits", churn.offered_commits.into()),
        ("commits", churn.commits.into()),
        ("nat_commits", churn.nat_commits.into()),
        ("established", churn.established.into()),
        ("refused_zone", churn.refused_zone.into()),
        ("refused_full", churn.refused_full.into()),
        ("refused_invalid", churn.refused_invalid.into()),
        ("expired", churn.expired.into()),
        ("evicted", churn.evicted.into()),
        ("setup_rate_cps", Json::float(churn.setup_rate_cps, 0)),
        ("ct_ops", churn.ct_ops.into()),
        ("unaccounted", churn.unaccounted.into()),
        ("accounting_ok", churn.accounting_ok.into()),
    ]);
    write_bench(
        "conntrack",
        Json::obj([
            ("churn", churn_row),
            ("tse_undefended", tse_row(&undef)),
            ("tse_defended", tse_row(&def)),
        ]),
    );

    // CI gates.
    assert!(
        churn.sustained_conns >= 1_000_000,
        "churn gate: sustained {} conns < 1M",
        churn.sustained_conns
    );
    assert!(
        churn.accounting_ok,
        "churn gate: shard/zone accounting broke"
    );
    assert_eq!(
        churn.unaccounted, 0,
        "churn gate: {} commit attempts unaccounted",
        churn.unaccounted
    );
    assert!(
        churn.refused_zone > 0 && churn.refused_invalid > 0,
        "churn gate: named refusals not exercised"
    );
    assert_eq!(
        undef.unaccounted, 0,
        "tse gate: undefended run lost {} packets unaccounted",
        undef.unaccounted
    );
    assert_eq!(
        def.unaccounted, 0,
        "tse gate: defended run lost {} packets unaccounted",
        def.unaccounted
    );
    assert!(
        def.legit_delivered >= 3 * undef.legit_delivered,
        "tse gate: defended goodput {} < 3x undefended {}",
        def.legit_delivered,
        undef.legit_delivered
    );
    assert!(
        def.established_surviving > undef.established_surviving,
        "tse gate: defense must preserve more established connections ({} vs {})",
        def.established_surviving,
        undef.established_surviving
    );
    println!(
        "  gates OK: sustained >= 1M, zero unaccounted, defended {}x undefended goodput",
        if undef.legit_delivered > 0 {
            def.legit_delivered / undef.legit_delivered.max(1)
        } else {
            u64::MAX
        }
    );
}

fn latency() {
    use ovs_tgen::latency as lat;
    section("Extension — tail latency: rx->tx sweeps, empirical delay model, jitter transients");
    // The crash transient's injected panic is caught by the supervisor;
    // keep its backtrace out of the report.
    quiet_simulated_panics();

    const N_PKTS: usize = 2048;
    let points = lat::run_latency_sweep(N_PKTS);
    println!(
        "  sweep: burst x flows x rules over the 2-host NSX fast path ({N_PKTS} pkts/point, ns)"
    );
    println!(
        "  {:>5} {:>6} {:>6}  {:>9} {:>9} {:>9} {:>9} {:>9}",
        "burst", "flows", "rules", "p50", "p90", "p99", "p99.9", "max"
    );
    for p in &points {
        println!(
            "  {:>5} {:>6} {:>6}  {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            p.burst,
            p.n_flows,
            p.rules,
            p.lat_ns.p50,
            p.lat_ns.p90,
            p.lat_ns.p99,
            p.lat_ns.p999,
            p.lat_ns.max
        );
    }

    let models = lat::fit_delay_models(&points);
    println!("  empirical delay model: d = c0 + c1*burst + c2*log2(flows) + c3*log2(rules)  [ns]");
    println!(
        "    p50 fit: c = [{:.0}, {:.1}, {:.1}, {:.1}]  max rel err {:.1}%",
        models.p50.coef[0],
        models.p50.coef[1],
        models.p50.coef[2],
        models.p50.coef[3],
        100.0 * models.p50_max_rel_err
    );
    println!(
        "    p99 fit: c = [{:.0}, {:.1}, {:.1}, {:.1}]  max rel err {:.1}%",
        models.p99.coef[0],
        models.p99.coef[1],
        models.p99.coef[2],
        models.p99.coef[3],
        100.0 * models.p99_max_rel_err
    );

    let loads = [0.0f64, 0.5, 0.9];
    println!("  TCP_RR under background flood (AF_XDP path):");
    let mut flood_rows = Vec::new();
    for &load in &loads {
        let r = netperf::vm_rr_under_flood(RrConfig::Afxdp, load);
        println!("    load {load:.1}: {}", r.summary());
        flood_rows.push((load, r));
    }

    let (busy, irq) = lat::run_latency_interrupt_ablation(N_PKTS);
    println!("  interrupt vs busy-poll rx (forward rig, ns):");
    println!(
        "    busy-poll: p50 {:>7.0}  p99 {:>7.0}  p99.9 {:>7.0}",
        busy.p50, busy.p99, busy.p999
    );
    println!(
        "    interrupt: p50 {:>7.0}  p99 {:>7.0}  p99.9 {:>7.0}",
        irq.p50, irq.p99, irq.p999
    );

    let autolb = lat::run_latency_autolb();
    println!("  p99.9 transient across a pmd-auto-lb rebalance (ns):");
    for w in &autolb {
        println!(
            "    {:<14} rebalances {}  p50 {:>7.0}  p99 {:>8.0}  p99.9 {:>8.0}",
            w.label, w.events, w.lat_ns.p50, w.lat_ns.p99, w.lat_ns.p999
        );
    }
    let crash = lat::run_latency_crash();
    println!("  p99.9 transient across a HealthMonitor crash-restart (ns):");
    for w in &crash {
        println!(
            "    {:<14} restarts {}  p50 {:>7.0}  p99 {:>8.0}  p99.9 {:>8.0}",
            w.label, w.events, w.lat_ns.p50, w.lat_ns.p99, w.lat_ns.p999
        );
    }

    let ns = |v: f64| Json::float(v, 1);
    let sweep_row = |p: &lat::LatencyPoint| {
        Json::row([
            ("burst", p.burst.into()),
            ("flows", p.n_flows.into()),
            ("rules", p.rules.into()),
            ("samples", p.samples.into()),
            ("p50_ns", ns(p.lat_ns.p50)),
            ("p90_ns", ns(p.lat_ns.p90)),
            ("p99_ns", ns(p.lat_ns.p99)),
            ("p999_ns", ns(p.lat_ns.p999)),
            ("min_ns", ns(p.lat_ns.min)),
            ("max_ns", ns(p.lat_ns.max)),
            ("mean_ns", ns(p.lat_ns.mean)),
            (
                "pred_p50_ns",
                ns(models.p50.predict(p.burst, p.n_flows, p.rules)),
            ),
            (
                "pred_p99_ns",
                ns(models.p99.predict(p.burst, p.n_flows, p.rules)),
            ),
        ])
    };
    let coef = |c: &[f64; 4]| Json::arr(c.iter().map(|&v| Json::float(v, 3)));
    let model = Json::obj([
        (
            "features",
            Json::arr(["1", "burst", "log2_flows", "log2_rules"].map(Json::from)),
        ),
        ("p50_coef", coef(&models.p50.coef)),
        ("p99_coef", coef(&models.p99.coef)),
        ("p50_max_rel_err", Json::float(models.p50_max_rel_err, 4)),
        ("p99_max_rel_err", Json::float(models.p99_max_rel_err, 4)),
    ]);
    let flood_row = |(load, r): &(f64, netperf::RrResult)| {
        Json::row([
            ("load", Json::float(*load, 2)),
            ("p50_us", Json::float(r.latency_us.p50, 1)),
            ("p99_us", Json::float(r.latency_us.p99, 1)),
            ("p999_us", Json::float(r.latency_us.p999, 1)),
            ("tps", Json::float(r.tps, 0)),
        ])
    };
    let tail = |l: &Percentiles| {
        [
            ("p50_ns", ns(l.p50)),
            ("p99_ns", ns(l.p99)),
            ("p999_ns", ns(l.p999)),
        ]
    };
    let window_row = |w: &lat::LatencyWindow| {
        let head = [
            ("window", w.label.as_str().into()),
            ("events", w.events.into()),
            ("samples", w.samples.into()),
        ];
        Json::row(head.into_iter().chain(tail(&w.lat_ns)))
    };
    write_bench(
        "latency",
        Json::obj([
            ("bench", "latency".into()),
            ("sweep", Json::lines(points.iter().map(sweep_row))),
            ("model", model),
            (
                "rr_under_flood_afxdp",
                Json::lines(flood_rows.iter().map(flood_row)),
            ),
            (
                "interrupt_ablation",
                Json::obj([
                    ("busy_poll", Json::row(tail(&busy))),
                    ("interrupt", Json::row(tail(&irq))),
                ]),
            ),
            (
                "autolb_transient",
                Json::lines(autolb.iter().map(window_row)),
            ),
            ("crash_transient", Json::lines(crash.iter().map(window_row))),
        ]),
    );

    // CI gates. Uncontended baseline: the smallest burst / fewest flows
    // / fewest rules point must not have a pathological tail.
    let base = points
        .iter()
        .find(|p| {
            p.burst == lat::SWEEP_BURSTS[0]
                && p.n_flows == lat::SWEEP_FLOWS[0]
                && p.rules == lat::SWEEP_RULES[0]
        })
        .expect("baseline point in sweep");
    assert!(
        base.lat_ns.p999 <= 10.0 * base.lat_ns.p50,
        "uncontended baseline tail blew up: p99.9 {} > 10x p50 {}",
        base.lat_ns.p999,
        base.lat_ns.p50
    );
    const MODEL_ERR_BOUND: f64 = 0.35;
    assert!(
        models.p50_max_rel_err <= MODEL_ERR_BOUND && models.p99_max_rel_err <= MODEL_ERR_BOUND,
        "delay model mispredicts: p50 max err {:.3}, p99 max err {:.3} (bound {MODEL_ERR_BOUND})",
        models.p50_max_rel_err,
        models.p99_max_rel_err
    );
}

fn faults() {
    section("Extension — seeded fault-injection soak (six fault classes over the 2-host NSX deployment)");
    // The injected datapath panic is caught by the supervisor; keep its
    // backtrace out of the report (anything else still prints).
    quiet_simulated_panics();
    const SEED: u64 = 0xC0FFEE;
    let r = scenarios::run_faults(SEED);
    println!("  schedule seed                {:>#10x}", r.seed);
    println!("  frames offered               {:>10}", r.frames_offered);
    println!("  delivered to sink VM         {:>10}", r.delivered);
    println!("  counted drops                {:>10}", r.counted_drops);
    println!("  unaccounted (must be 0)      {:>10}", r.unaccounted);
    println!(
        "  datapath crashes / restarts  {:>10}   (mean recovery {:.2} ms)",
        format!("{}/{}", r.crashes, r.restarts),
        r.mean_recovery_ms
    );
    println!("  vhost reconnects             {:>10}", r.vhost_reconnects);
    println!(
        "  uplink after restart         {:>10}   ({:.0} ns/pkt vs {:.0} native)",
        if r.degraded_mode {
            "copy mode"
        } else {
            "zero-copy"
        },
        r.degraded_ns_per_pkt,
        r.native_ns_per_pkt
    );
    println!(
        "  forwarding resumed           {:>10}   (probe {}/{})",
        if r.forwarding_resumed { "yes" } else { "NO" },
        r.probe_delivered,
        r.probe_sent
    );
    println!("  drops by counter:");
    for (name, n) in &r.drops_by_counter {
        if *n > 0 {
            println!("    {name:<26} {n:>8}");
        }
    }

    // Deterministic for a given seed, so CI diffs it byte for byte.
    write_bench(
        "robustness",
        Json::obj([
            ("bench", "robustness".into()),
            ("seed", r.seed.into()),
            ("frames_offered", r.frames_offered.into()),
            ("delivered", r.delivered.into()),
            ("counted_drops", r.counted_drops.into()),
            ("unaccounted", r.unaccounted.into()),
            ("crashes", r.crashes.into()),
            ("restarts", r.restarts.into()),
            ("mean_recovery_ms", Json::float(r.mean_recovery_ms, 3)),
            ("vhost_reconnects", r.vhost_reconnects.into()),
            ("degraded_mode", r.degraded_mode.into()),
            ("native_ns_per_pkt", Json::float(r.native_ns_per_pkt, 2)),
            ("degraded_ns_per_pkt", Json::float(r.degraded_ns_per_pkt, 2)),
            ("probe_sent", r.probe_sent.into()),
            ("probe_delivered", r.probe_delivered.into()),
            ("forwarding_resumed", r.forwarding_resumed.into()),
            ("injected_by_class", counts(&r.per_class)),
            ("drops_by_counter", counts(&r.drops_by_counter)),
        ]),
    );
    assert_eq!(
        r.unaccounted, 0,
        "fault soak lost packets without counting them"
    );
    assert!(
        r.forwarding_resumed,
        "forwarding did not resume after the last fault cleared"
    );
}

fn fastpath() {
    use ovs_tgen::scenarios::FastpathMode;
    section("Extension — batched fast path ablation (dfc batching vs batching+SMC, bursts of 1 / 8 / 32)");
    const N_FLOWS: usize = 512;
    const N_PKTS: usize = 4096;
    let mut rows = Vec::new();
    for burst in [1usize, 8, 32] {
        for mode in [FastpathMode::Batched, FastpathMode::BatchedSmc] {
            let r = scenarios::run_fastpath(mode, burst, N_FLOWS, N_PKTS);
            println!(
                "  {:<12} burst {:>2}: {:>7.1} ns/pkt  {:>5.2} Mpps  \
                 (emc {} smc {} dpcls {} lane steps {} occ {:.0}%)",
                r.mode,
                r.burst,
                r.ns_per_pkt,
                r.mpps,
                r.emc_hits,
                r.smc_hits,
                r.megaflow_hits,
                r.lane_steps,
                100.0 * r.lane_occupancy(),
            );
            // The measured window is fully warm: a hit-path that
            // expands a full FlowKey is a regression, not a tuning
            // matter.
            assert_eq!(
                r.miniflow_expands, 0,
                "{} burst {}: full-key expansion on the pure-hit path",
                r.mode, r.burst
            );
            rows.push(r);
        }
    }
    let find = |mode: &str, burst: usize| {
        rows.iter()
            .find(|r| r.mode == mode && r.burst == burst)
            .expect("every mode ran at every burst")
    };
    let (single, smc32) = (find("batched", 1), find("batched_smc", 32));
    let speedup = single.ns_per_pkt / smc32.ns_per_pkt;
    println!("  batched+SMC at burst 32 over batched at burst 1: {speedup:.2}x");

    let row = |r: &scenarios::FastpathReport| {
        Json::row([
            ("mode", r.mode.into()),
            ("burst", r.burst.into()),
            ("n_flows", r.n_flows.into()),
            ("n_pkts", r.n_pkts.into()),
            ("ns_per_pkt", Json::float(r.ns_per_pkt, 2)),
            ("mpps", Json::float(r.mpps, 4)),
            ("emc_hits", r.emc_hits.into()),
            ("smc_hits", r.smc_hits.into()),
            ("megaflow_hits", r.megaflow_hits.into()),
            ("upcalls", r.upcalls.into()),
            ("lane_steps", r.lane_steps.into()),
            ("lane_keys", r.lane_keys.into()),
            ("lane_width", r.lane_width.into()),
            ("lane_occupancy", Json::float(r.lane_occupancy(), 3)),
            ("miniflow_expands", r.miniflow_expands.into()),
        ])
    };
    write_bench(
        "fastpath",
        Json::obj([
            ("bench", "fastpath".into()),
            ("results", Json::lines(rows.iter().map(row))),
            ("speedup_smc_burst32_vs_burst1", Json::float(speedup, 3)),
        ]),
    );
    assert!(
        speedup >= 1.5,
        "batched+SMC at burst 32 must beat bursts of one by >= 1.5x (got {speedup:.2}x)"
    );
    // Absolute floor on the headline configuration: the sparse-key +
    // wide-lane rework landed batched+SMC at ~758 ns/pkt (from 820);
    // fail CI if a later change gives more than 5% of that back.
    const SMC_BURST32_FLOOR_NS: f64 = 758.0;
    assert!(
        smc32.ns_per_pkt <= SMC_BURST32_FLOOR_NS * 1.05,
        "batched+SMC at burst 32 regressed past the floor: {:.1} ns/pkt > {:.1} x 1.05",
        smc32.ns_per_pkt,
        SMC_BURST32_FLOOR_NS
    );
}

fn churn() {
    section("Extension — revalidator flow-churn soak (100k distinct flows vs a 4,096-flow limit)");
    let r = scenarios::run_churn(100_000, 4_096);
    println!("  flows offered                {:>10}", r.flows_offered);
    println!(
        "  peak megaflows               {:>10}   (limit {})",
        r.peak_flows, r.flow_limit
    );
    println!("  installs refused at limit    {:>10}", r.limit_hits);
    println!("  deleted idle                 {:>10}", r.deleted_idle);
    println!("  evicted (LRU / overload)     {:>10}", r.evicted);
    println!("  revalidator sweeps           {:>10}", r.sweeps);
    println!("  flows left after drain       {:>10}", r.final_flows);
    println!("  legitimate frames delivered  {:>10}", r.legit_forwarded);
    assert!(
        r.peak_flows <= r.flow_limit,
        "megaflow table exceeded the flow limit under churn"
    );
    assert_eq!(r.final_flows, 0, "idle expiry failed to drain the table");
    assert!(
        r.legit_forwarded > 0,
        "legitimate traffic starved during churn"
    );
}

fn ablation() {
    section("Extension — preferred busy polling [64] (the future work Outcome #2 anticipates)");
    let (base, busy) = scenarios::run_busy_poll_ablation(1000);
    println!(
        "  baseline AF_XDP P2P:   {:>5.2} Mpps, {:.2} HT total ({:.2} softirq)",
        base.mpps,
        base.usage.total(),
        base.usage.softirq
    );
    println!(
        "  with busy polling:     {:>5.2} Mpps, {:.2} HT total ({:.2} softirq)",
        busy.mpps,
        busy.usage.total(),
        busy.usage.softirq
    );
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Write `BENCH_<name>.json` to the working directory.
fn write_bench(name: &str, json: Json) {
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, json.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

/// Named counters as one object, in the given order.
fn counts(by_name: &[(&str, u64)]) -> Json {
    Json::obj(by_name.iter().map(|&(name, n)| (name, n.into())))
}

fn rate_row(label: &str, m: &RateMeasurement) {
    println!(
        "  {label:<28} {:>6.2} Mpps{}",
        m.mpps,
        if m.line_limited { "  (line rate)" } else { "" }
    );
}

// ----------------------------------------------------------------------

fn table1() {
    section("Table 1 — tool compatibility: kernel/AF_XDP-managed vs DPDK-owned NIC");
    let mut k = Kernel::new(4);
    let eth0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr::new(2, 0, 0, 0, 0, 1),
        DeviceKind::Phys { link_gbps: 10.0 },
        2,
    ));
    k.add_addr(eth0, [10, 0, 0, 1], 24);
    tools::ip_neigh_add(
        &mut k,
        [10, 0, 0, 2],
        MacAddr::new(2, 0, 0, 0, 0, 2),
        "eth0",
    )
    .unwrap();
    // Attach the OVS AF_XDP hook: the compatibility claim is that this
    // changes nothing for the tools.
    let fd = k
        .maps
        .add(ovs_ebpf::maps::Map::Xsk(ovs_ebpf::maps::XskMap::new(2)));
    k.attach_xdp(
        eth0,
        ovs_ebpf::programs::ovs_xsk_redirect(fd),
        XdpMode::Native,
        None,
    )
    .unwrap();

    let run_all = |k: &mut Kernel| -> Vec<(&'static str, bool)> {
        vec![
            ("ip link", tools::ip_link(k, Some("eth0")).is_ok()),
            ("ip address", tools::ip_addr(k, Some("eth0")).is_ok()),
            (
                "ip route",
                tools::ip_route_add(k, [10, 1, 0, 0], 16, Some([10, 0, 0, 2]), "eth0").is_ok(),
            ),
            (
                "ip neigh",
                tools::ip_neigh_add(k, [10, 0, 0, 9], MacAddr::new(2, 0, 0, 0, 0, 9), "eth0")
                    .is_ok(),
            ),
            ("ping", tools::ping(k, [10, 0, 0, 2]).is_ok()),
            ("arping", tools::arping(k, "eth0", [10, 0, 0, 2]).is_ok()),
            ("nstat", !tools::nstat(k).is_empty()),
            ("tcpdump", {
                k.capture_start(1);
                tools::tcpdump(k, "eth0", 1).is_ok()
            }),
            ("ethtool -S", tools::ethtool_stats(k, "eth0").is_ok()),
        ]
    };

    let with_xdp = run_all(&mut k);
    k.take_device(eth0, "dpdk");
    let with_dpdk = run_all(&mut k);

    println!(
        "  {:<12} {:>16} {:>16}",
        "command", "kernel+AF_XDP", "DPDK-owned"
    );
    for ((cmd, a), (_, b)) in with_xdp.iter().zip(with_dpdk.iter()) {
        println!(
            "  {:<12} {:>16} {:>16}",
            cmd,
            if *a { "works" } else { "FAILS" },
            if *b { "works" } else { "FAILS" }
        );
    }
}

fn fig2() {
    section("Figure 2 — single-core 64B forwarding rate (paper: eBPF 10-20% below kernel; DPDK far ahead)");
    rate_row("kernel module", &scenarios::run_fig2_kernel());
    rate_row("eBPF (tc) datapath", &scenarios::run_fig2_ebpf());
    rate_row("DPDK", &scenarios::run_fig2_dpdk());
}

fn table2() {
    section("Table 2 — AF_XDP optimization ladder (paper: 0.8 / 4.8 / 6.0 / 6.3 / 6.6 / 7.1 Mpps)");
    let paper = [0.8, 4.8, 6.0, 6.3, 6.6, 7.1];
    for (opt, p) in OptLevel::LADDER.into_iter().zip(paper) {
        let m = scenarios::run_ladder(opt);
        println!("  {:<16} {:>6.2} Mpps   (paper {p})", opt.label(), m.mpps);
    }
}

fn table3() {
    section("Table 3 — NSX rule-set shape (paper: 291 / 15 / 103,302 / 40 / 31)");
    let cfg = NsxConfig::default();
    let ports = NsxPorts {
        vifs: (2..32).collect(),
        tunnel: 1,
        uplink: 0,
    };
    let mut of = ovs_core::Ofproto::new();
    let stats = ruleset::install(&cfg, &ports, 1, 2, &mut of);
    println!(
        "  Geneve tunnels                  {:>8}",
        stats.geneve_tunnels
    );
    println!("  VMs (two interfaces per VM)     {:>8}", stats.vms);
    println!("  OpenFlow rules                  {:>8}", stats.rules);
    println!("  OpenFlow tables                 {:>8}", stats.tables);
    println!(
        "  matching fields among all rules {:>8}",
        stats.matching_fields
    );
}

fn fig8a() {
    section("Figure 8(a) — VM-to-VM cross-host TCP (paper: 2.2 / 1.9 / 3.0 / 4.4 / 6.5 Gbps)");
    let rows = [
        (
            "kernel + tap",
            iperf::fig8a_cross_host(DatapathKind::Kernel, VmAttachment::Tap),
        ),
        (
            "AF_XDP interrupt + tap",
            iperf::fig8a_cross_host(AFXDP_INTR, VmAttachment::Tap),
        ),
        (
            "AF_XDP polling + tap",
            iperf::fig8a_cross_host(AFXDP_NO_CSUM, VmAttachment::Tap),
        ),
        (
            "AF_XDP + vhostuser",
            iperf::fig8a_cross_host(AFXDP_NO_CSUM, VmAttachment::VhostUser),
        ),
        (
            "AF_XDP + vhostuser + csum",
            iperf::fig8a_cross_host(AFXDP_POLL, VmAttachment::VhostUser),
        ),
    ];
    for (l, t) in rows {
        println!("  {l:<28} {:>6.2} Gbps", t.gbps);
    }
}

fn fig8b() {
    section("Figure 8(b) — VM-to-VM within host TCP (paper: 12 / 3.8 / 8.4 / 29 Gbps)");
    let rows = [
        (
            "kernel + tap (TSO+csum)",
            iperf::fig8b_intra_host(DatapathKind::Kernel, VmAttachment::Tap, Offloads::FULL),
        ),
        (
            "AF_XDP + vhostuser",
            iperf::fig8b_intra_host(AFXDP_NO_CSUM, VmAttachment::VhostUser, Offloads::NONE),
        ),
        (
            "AF_XDP + vhostuser + csum",
            iperf::fig8b_intra_host(AFXDP_POLL, VmAttachment::VhostUser, Offloads::CSUM),
        ),
        (
            "AF_XDP + vhostuser + csum+TSO",
            iperf::fig8b_intra_host(AFXDP_POLL, VmAttachment::VhostUser, Offloads::FULL),
        ),
    ];
    for (l, t) in rows {
        println!("  {l:<30} {:>6.2} Gbps", t.gbps);
    }
}

fn fig8c() {
    section(
        "Figure 8(c) — container-to-container TCP (paper: 5.9 / 49 / 5.7 / 4.1 / 5.0 / 8.0 Gbps)",
    );
    let rows = [
        (
            "kernel veth (no offload)",
            iperf::fig8c_containers(CcMode::Kernel, Offloads::NONE),
        ),
        (
            "kernel veth (csum+TSO)",
            iperf::fig8c_containers(CcMode::Kernel, Offloads::FULL),
        ),
        (
            "XDP redirect",
            iperf::fig8c_containers(CcMode::XdpRedirect, Offloads::NONE),
        ),
        (
            "AF_XDP userspace",
            iperf::fig8c_containers(CcMode::AfxdpUserspace(OptLevel::O4), Offloads::NONE),
        ),
        (
            "AF_XDP userspace + csum",
            iperf::fig8c_containers(CcMode::AfxdpUserspace(OptLevel::O5), Offloads::CSUM),
        ),
    ];
    for (l, t) in rows {
        println!("  {l:<28} {:>6.2} Gbps", t.gbps);
    }
}

fn fig9_table4() {
    section(
        "Figure 9 + Table 4 — P2P/PVP/PCP forwarding rate and CPU (1,000-flow CPU in HT units)",
    );
    println!(
        "  {:<34} {:>7} {:>7}   {:>6} {:>8} {:>6} {:>6} {:>6}",
        "configuration", "1 flow", "1k flow", "system", "softirq", "guest", "user", "total"
    );
    let row = |label: &str, dp: DpKind, path: PathKind| {
        let m1 = scenarios::run(&ScenarioConfig::micro(dp, path, 1));
        let mk = scenarios::run(&ScenarioConfig::micro(dp, path, 1000));
        println!(
            "  {label:<34} {:>7.2} {:>7.2}   {:>6.1} {:>8.1} {:>6.1} {:>6.1} {:>6.1}",
            m1.mpps,
            mk.mpps,
            mk.usage.system,
            mk.usage.softirq,
            mk.usage.guest,
            mk.usage.user,
            mk.usage.total()
        );
    };
    println!("  -- P2P --");
    row("kernel", DpKind::Kernel, PathKind::P2p);
    row("AF_XDP", DpKind::Afxdp(OptLevel::O5), PathKind::P2p);
    row("DPDK", DpKind::Dpdk, PathKind::P2p);
    println!("  -- PVP --");
    row("kernel + tap", DpKind::Kernel, PathKind::Pvp(VmAttach::Tap));
    row(
        "AF_XDP + tap",
        DpKind::Afxdp(OptLevel::O5),
        PathKind::Pvp(VmAttach::Tap),
    );
    row(
        "AF_XDP + vhostuser",
        DpKind::Afxdp(OptLevel::O5),
        PathKind::Pvp(VmAttach::VhostUser),
    );
    row(
        "DPDK + vhostuser",
        DpKind::Dpdk,
        PathKind::Pvp(VmAttach::VhostUser),
    );
    println!("  -- PCP --");
    row("kernel + veth", DpKind::Kernel, PathKind::Pcp);
    row(
        "AF_XDP (XDP redirect)",
        DpKind::Afxdp(OptLevel::O5),
        PathKind::Pcp,
    );
    row("DPDK (af_packet)", DpKind::Dpdk, PathKind::Pcp);
}

fn fig10() {
    section("Figure 10 — inter-host VM latency & transactions (paper: K 58/68/94, D 36/38/45, A 39/41/53 us)");
    for (label, cfg) in [
        ("kernel", RrConfig::Kernel),
        ("AF_XDP", RrConfig::Afxdp),
        ("DPDK", RrConfig::Dpdk),
    ] {
        let r = netperf::vm_rr(cfg);
        println!(
            "  {label:<8} P50/P90/P99/P99.9 = {:>3.0}/{:>3.0}/{:>3.0}/{:>3.0} us   {:>6.0} transactions/s",
            r.latency_us.p50, r.latency_us.p90, r.latency_us.p99, r.latency_us.p999, r.tps
        );
    }
}

fn fig11() {
    section("Figure 11 — intra-host container latency & transactions (paper: K 15/16/20, A ~same, D 81/136/241 us)");
    for (label, cfg) in [
        ("kernel", RrConfig::Kernel),
        ("AF_XDP", RrConfig::Afxdp),
        ("DPDK", RrConfig::Dpdk),
    ] {
        let r = netperf::container_rr(cfg);
        println!(
            "  {label:<8} P50/P90/P99/P99.9 = {:>3.0}/{:>3.0}/{:>3.0}/{:>3.0} us   {:>6.0} transactions/s",
            r.latency_us.p50, r.latency_us.p90, r.latency_us.p99, r.latency_us.p999, r.tps
        );
    }
}

fn table5() {
    section("Table 5 — single-core XDP task rates (paper: 14 / 8.1 / 7.1 / 4.7 Mpps)");
    let rows = [
        ("A: drop only", XdpTask::Drop),
        ("B: parse eth/IPv4, drop", XdpTask::ParseDrop),
        ("C: parse, L2 lookup, drop", XdpTask::ParseLookupDrop),
        ("D: parse, swap MAC, fwd", XdpTask::SwapFwd),
    ];
    for (l, t) in rows {
        rate_row(l, &scenarios::run_xdp_task(t));
    }
}

fn scaling() {
    use ovs_core::AssignmentPolicy;
    section("Figure 12 — multi-queue P2P scaling on 25 GbE through the PMD scheduler (BENCH_scaling.json)");

    // Multi-queue grid, all driven through the PMD scheduler.
    struct Cell {
        dp: &'static str,
        queues: usize,
        frame_len: usize,
        m: RateMeasurement,
    }
    let mut grid = Vec::new();
    println!(
        "  {:<9} {:>14} {:>14} {:>14} {:>14}",
        "queues", "AF_XDP 64B", "DPDK 64B", "AF_XDP 1518B", "DPDK 1518B"
    );
    for q in [1usize, 2, 4, 6] {
        let mut cells = Vec::new();
        for frame_len in [64usize, 1518] {
            for (label, dp) in [
                ("afxdp", DpKind::Afxdp(OptLevel::O5)),
                ("dpdk", DpKind::Dpdk),
            ] {
                let m = scenarios::run(&ScenarioConfig {
                    queues: q,
                    frame_len,
                    ..ScenarioConfig::micro(dp, PathKind::P2p, 1000)
                });
                cells.push(Cell {
                    dp: label,
                    queues: q,
                    frame_len,
                    m,
                });
            }
        }
        println!(
            "  {q:<9} {:>9.2} Gbps {:>9.2} Gbps {:>9.2} Gbps {:>9.2} Gbps",
            cells[0].m.gbps, cells[1].m.gbps, cells[2].m.gbps, cells[3].m.gbps
        );
        grid.extend(cells);
    }

    // Assignment-policy ablation on the skewed 4-queue workload.
    let policies = [
        AssignmentPolicy::RoundRobin,
        AssignmentPolicy::Cycles,
        AssignmentPolicy::Group,
    ];
    let ablation: Vec<_> = policies
        .iter()
        .map(|&p| scenarios::run_policy_ablation(p))
        .collect();
    println!("  skewed-rxq policy ablation (4 queues 4:1:4:1 over 2 PMDs):");
    for r in &ablation {
        println!(
            "    {:<12} {:>5.2} Mpps   per-PMD busy ns {:?}",
            r.policy.label(),
            r.est_mpps,
            r.pmd_busy_ns
        );
    }

    let cell_row = |c: &Cell| {
        Json::row([
            ("dp", c.dp.into()),
            ("queues", c.queues.into()),
            ("frame_len", c.frame_len.into()),
            ("mpps", Json::float(c.m.mpps, 4)),
            ("gbps", Json::float(c.m.gbps, 4)),
            ("line_limited", c.m.line_limited.into()),
        ])
    };
    let policy_row = |r: &scenarios::PolicyReport| {
        Json::row([
            ("policy", r.policy.label().into()),
            ("est_mpps", Json::float(r.est_mpps, 4)),
            (
                "pmd_busy_ns",
                Json::arr(r.pmd_busy_ns.iter().map(|&n| n.into())),
            ),
            ("n_pkts", r.n_pkts.into()),
        ])
    };
    write_bench(
        "scaling",
        Json::obj([
            ("bench", "scaling".into()),
            ("grid", Json::lines(grid.iter().map(cell_row))),
            (
                "policy_ablation",
                Json::lines(ablation.iter().map(policy_row)),
            ),
        ]),
    );

    // CI gates: the Fig 12 headline and the load-aware-policy win.
    let afxdp_6q_1518 = grid
        .iter()
        .find(|c| c.dp == "afxdp" && c.queues == 6 && c.frame_len == 1518)
        .unwrap();
    assert!(
        afxdp_6q_1518.m.line_limited,
        "AF_XDP must reach line rate at 1518 B with 6 queues (got {:.2} Gbps)",
        afxdp_6q_1518.m.gbps
    );
    let (rr, cy, gr) = (&ablation[0], &ablation[1], &ablation[2]);
    assert!(
        cy.est_mpps > rr.est_mpps && gr.est_mpps > rr.est_mpps,
        "load-aware policies must beat roundrobin on the skewed workload \
         (rr {:.2}, cycles {:.2}, group {:.2})",
        rr.est_mpps,
        cy.est_mpps,
        gr.est_mpps
    );
}
