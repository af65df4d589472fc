//! Latency-centric scenarios and the empirical delay model.
//!
//! Everything here rides on the datapath's per-packet rx→tx
//! timestamping (`DpifNetdev::latency`): sweeps measure *real* pipeline
//! latency percentiles from raw samples, not modelled compositions.
//!
//! * [`run_latency_sweep`] — delay vs offered burst size (the rate
//!   proxy: queue occupancy at poll), flow count, and NSX rule count,
//!   over the full two-host NSX fast path.
//! * [`fit_delay_models`] — a Sattar–Matrawy-style empirical delay
//!   model: least-squares fit of p50/p99 delay against
//!   `[1, burst, log2(flows), log2(rules)]`, with per-point
//!   predicted-vs-measured errors.
//! * [`run_latency_autolb`] — p99.9 jitter transient across a
//!   `pmd-auto-lb` rebalance: moved rxqs land on a PMD whose private
//!   EMC is cold, spike, then settle.
//! * [`run_latency_crash`] — the same signal across a HealthMonitor
//!   crash-restart: the rebuilt datapath re-warms every cache through
//!   the upcall path.
//! * [`run_latency_interrupt_ablation`] — interrupt vs busy-poll rx on
//!   an otherwise identical AF_XDP forward rig.

use crate::flood::{make_flows, rss_queue};
use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::health::HealthMonitor;
use ovs_core::pmd::{AssignmentPolicy, PmdSet};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::{builder, DpPacket, MacAddr};
use ovs_sim::Percentiles;

// ----------------------------------------------------------------------
// The sweep: delay vs burst (rate proxy) x flow count x rule count
// ----------------------------------------------------------------------

/// One measured point of the latency sweep.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Offered burst size — the rate proxy: how many packets are
    /// waiting in the queue when the PMD polls.
    pub burst: usize,
    /// Distinct 5-tuples in the offered traffic.
    pub n_flows: usize,
    /// NSX `target_rules` the pipeline was compiled from.
    pub rules: usize,
    /// Packets offered in the measured window.
    pub offered: usize,
    /// Raw rx→tx samples captured (delivered packets).
    pub samples: usize,
    /// Exact percentiles over the raw samples, nanoseconds.
    pub lat_ns: Percentiles,
}

/// The sweep grid `run_latency_sweep` walks (kept public so reports can
/// annotate coverage).
pub const SWEEP_BURSTS: [usize; 4] = [4, 8, 16, 32];
pub const SWEEP_FLOWS: [usize; 3] = [8, 64, 256];
pub const SWEEP_RULES: [usize; 2] = [200, 800];

/// Measure one sweep point: `n_pkts` VM frames cross the full NSX
/// pipeline (DFW conntrack recirculations, then Geneve encap to the
/// AF_XDP uplink) in bursts of `burst` with `n_flows` distinct
/// 5-tuples, against a ruleset compiled for `rules` target rules.
/// Latency percentiles are exact, from raw rx→tx samples.
pub fn run_latency_point(
    burst: usize,
    n_flows: usize,
    rules: usize,
    n_pkts: usize,
) -> LatencyPoint {
    use ovs_nsx::ruleset as nsx_ruleset;
    use ovs_nsx::topology::{DatapathKind, Host, HostConfig, VmAttachment};

    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut cfg = HostConfig::nsx_small(1, dpk, VmAttachment::VhostUser);
    cfg.nsx.target_rules = rules;
    let mut h = Host::build(&cfg);
    h.peer([172, 16, 0, 2], MacAddr::new(2, 0, 0, 0, 0, 0xEE));
    let core = h.switch_core;
    let vif = h.ports.vifs[0];

    let frame = |flow: usize| {
        builder::udp_ipv4_frame(
            nsx_ruleset::vm_mac(1, 0, 0),
            nsx_ruleset::vm_mac(2, 0, 0),
            nsx_ruleset::vm_ip(1, 0, 0),
            nsx_ruleset::vm_ip(2, 0, 0),
            (5000 + (flow % 50_000)) as u16,
            4444,
            64,
        )
    };
    // Flow locality: packets arrive in runs of 4 per flow, the shape
    // per-megaflow batching exploits (same as the fastpath ablation).
    const RUN_LEN: usize = 4;
    let flow_of = |seq: usize| (seq / RUN_LEN) % n_flows;

    // Warm-up: every flow upcalls once, installing its megaflows.
    for f in 0..n_flows {
        let mut p = DpPacket::from_data(&frame(f));
        p.in_port = vif;
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.process_packet(&mut h.kernel, p, core);
    }
    let _ = h.wire_take();

    // Measured window, with raw-sample capture on.
    {
        let dp = h.dp.as_mut().expect("userspace datapath");
        dp.latency.clear();
        dp.latency.enable_raw();
    }
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
        let _ = h.wire_take();
    }
    let dp = h.dp.as_mut().expect("userspace datapath");
    let raw = dp.latency.drain_raw();
    let samples: Vec<f64> = raw.iter().map(|&ns| ns as f64).collect();
    LatencyPoint {
        burst,
        n_flows,
        rules,
        offered: n_pkts,
        samples: raw.len(),
        lat_ns: Percentiles::from_samples(&samples).expect("delivered packets produce samples"),
    }
}

/// Walk the full `{burst} x {flows} x {rules}` grid.
pub fn run_latency_sweep(n_pkts: usize) -> Vec<LatencyPoint> {
    let mut out = Vec::new();
    for &rules in &SWEEP_RULES {
        for &flows in &SWEEP_FLOWS {
            for &burst in &SWEEP_BURSTS {
                out.push(run_latency_point(burst, flows, rules, n_pkts));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// The empirical delay model
// ----------------------------------------------------------------------

/// A linear empirical delay model over engineered features, in the
/// style of Sattar & Matrawy's measurement-driven OVS delay models:
/// `delay = c0 + c1*burst + c2*log2(flows) + c3*log2(rules)`.
///
/// The burst size stands in for offered rate (it *is* the queue
/// occupancy the PMD finds at poll time); flow count drives the cache
/// hierarchy's hit mix; rule count drives pipeline depth and the dpcls
/// subtable population.
#[derive(Debug, Clone, Copy)]
pub struct DelayModel {
    /// `[intercept, burst, log2(flows), log2(rules)]` coefficients, ns.
    pub coef: [f64; 4],
}

impl DelayModel {
    /// The feature vector for one operating point.
    pub fn features(burst: usize, n_flows: usize, rules: usize) -> [f64; 4] {
        [
            1.0,
            burst as f64,
            (n_flows.max(1) as f64).log2(),
            (rules.max(1) as f64).log2(),
        ]
    }

    /// Ordinary least squares via the 4x4 normal equations (Gaussian
    /// elimination with partial pivoting — no external solver).
    /// `None` when the system is singular (degenerate design matrix).
    pub fn fit(rows: &[([f64; 4], f64)]) -> Option<Self> {
        const D: usize = 4;
        let mut ata = [[0.0f64; D]; D];
        let mut aty = [0.0f64; D];
        for (x, y) in rows {
            for i in 0..D {
                for j in 0..D {
                    ata[i][j] += x[i] * x[j];
                }
                aty[i] += x[i] * y;
            }
        }
        // Augment and eliminate.
        let mut m = [[0.0f64; D + 1]; D];
        for i in 0..D {
            m[i][..D].copy_from_slice(&ata[i]);
            m[i][D] = aty[i];
        }
        for col in 0..D {
            let pivot = (col..D).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
            if m[pivot][col].abs() < 1e-12 {
                return None;
            }
            m.swap(col, pivot);
            let pivot_row = m[col];
            for (row, r) in m.iter_mut().enumerate() {
                if row == col {
                    continue;
                }
                let f = r[col] / pivot_row[col];
                for (k, cell) in r.iter_mut().enumerate().skip(col) {
                    *cell -= f * pivot_row[k];
                }
            }
        }
        let mut coef = [0.0f64; D];
        for i in 0..D {
            coef[i] = m[i][D] / m[i][i];
        }
        Some(DelayModel { coef })
    }

    /// Predicted delay at an operating point, ns.
    pub fn predict(&self, burst: usize, n_flows: usize, rules: usize) -> f64 {
        Self::features(burst, n_flows, rules)
            .iter()
            .zip(&self.coef)
            .map(|(x, c)| x * c)
            .sum()
    }
}

/// One predicted-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct ModelError {
    pub burst: usize,
    pub n_flows: usize,
    pub rules: usize,
    pub measured_ns: f64,
    pub predicted_ns: f64,
    /// `|predicted - measured| / measured`.
    pub rel_err: f64,
}

/// The fitted p50 and p99 models plus their per-point validation.
#[derive(Debug, Clone)]
pub struct FittedModels {
    pub p50: DelayModel,
    pub p99: DelayModel,
    pub p50_errors: Vec<ModelError>,
    pub p99_errors: Vec<ModelError>,
    pub p50_max_rel_err: f64,
    pub p99_max_rel_err: f64,
}

fn validate(
    model: &DelayModel,
    points: &[LatencyPoint],
    pick: fn(&Percentiles) -> f64,
) -> Vec<ModelError> {
    points
        .iter()
        .map(|p| {
            let measured = pick(&p.lat_ns);
            let predicted = model.predict(p.burst, p.n_flows, p.rules);
            ModelError {
                burst: p.burst,
                n_flows: p.n_flows,
                rules: p.rules,
                measured_ns: measured,
                predicted_ns: predicted,
                rel_err: (predicted - measured).abs() / measured.max(1.0),
            }
        })
        .collect()
}

/// Fit separate p50 and p99 models against measured sweep points and
/// report predicted-vs-measured error per point.
pub fn fit_delay_models(points: &[LatencyPoint]) -> FittedModels {
    let rows = |pick: fn(&Percentiles) -> f64| -> Vec<([f64; 4], f64)> {
        points
            .iter()
            .map(|p| {
                (
                    DelayModel::features(p.burst, p.n_flows, p.rules),
                    pick(&p.lat_ns),
                )
            })
            .collect()
    };
    let p50 = DelayModel::fit(&rows(|l| l.p50)).expect("sweep grid is non-degenerate");
    let p99 = DelayModel::fit(&rows(|l| l.p99)).expect("sweep grid is non-degenerate");
    let p50_errors = validate(&p50, points, |l| l.p50);
    let p99_errors = validate(&p99, points, |l| l.p99);
    let max_err = |errs: &[ModelError]| errs.iter().map(|e| e.rel_err).fold(0.0f64, f64::max);
    FittedModels {
        p50_max_rel_err: max_err(&p50_errors),
        p99_max_rel_err: max_err(&p99_errors),
        p50,
        p99,
        p50_errors,
        p99_errors,
    }
}

// ----------------------------------------------------------------------
// Jitter transients: auto-lb rebalance and crash-restart
// ----------------------------------------------------------------------

/// Latency percentiles over one observation window of a transient run.
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    pub label: String,
    /// Cumulative disruptive events at window end (auto-lb rebalances
    /// applied, or supervisor restarts).
    pub events: u64,
    pub samples: usize,
    pub lat_ns: Percentiles,
}

fn window_percentiles(raw: Vec<u64>) -> Percentiles {
    let samples: Vec<f64> = raw.iter().map(|&ns| ns as f64).collect();
    Percentiles::from_samples(&samples).expect("window delivered packets")
}

/// p99.9 jitter across a `pmd-auto-lb` rebalance.
///
/// Two PMDs share four rxqs under the `cycles` policy. The workload
/// starts with queue 0 carrying 8x the load of the others; after the
/// placement settles, the skew flips to queues 1 and 2. The auto load
/// balancer (checking every 16 rounds) measures the new imbalance and
/// applies a rebalance — and the moved rxqs land on a PMD whose
/// *private* EMC has never seen their flows: a one-window latency spike
/// from cold-cache misses, visible at p99/p99.9 and gone once the EMC
/// re-warms. Returns one pre-flip window plus six post-flip windows.
pub fn run_latency_autolb() -> Vec<LatencyWindow> {
    const QUEUES: usize = 4;
    const ROUNDS_PER_WINDOW: usize = 16;
    let mut k = Kernel::new(16);
    k.config.rss_cores = (0..8).collect();
    let nic0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr::new(2, 0, 0, 0, 0, 1),
        DeviceKind::Phys { link_gbps: 25.0 },
        QUEUES,
    ));
    let nic1 = k.add_device(NetDevice::new(
        "eth1",
        MacAddr::new(2, 0, 0, 0, 0, 2),
        DeviceKind::Phys { link_gbps: 25.0 },
        QUEUES,
    ));
    let mut dp = DpifNetdev::new();
    let a0 = AfxdpPort::open(&mut k, nic0, 4096, OptLevel::O5).expect("afxdp nic0");
    let a1 = AfxdpPort::open(&mut k, nic1, 4096, OptLevel::O5).expect("afxdp nic1");
    let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
    let p1 = dp.add_port("eth1", PortType::Afxdp(a1));
    dp.add_flows(&format!(
        "table=0, priority=10, in_port={p0}, actions=output:{p1}"
    ))
    .unwrap();
    // Deterministic cache behaviour: every EMC miss inserts.
    dp.set_emc_insert_inv_prob(1);
    dp.latency.enable_raw();

    let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::Cycles);
    pmds.add_port_rxqs(p0, QUEUES);
    pmds.auto_lb.enabled = true;
    pmds.auto_lb.interval_rounds = ROUNDS_PER_WINDOW as u64;
    pmds.rebalance();

    // Eight representative flows per queue, found by walking RSS.
    let candidates = make_flows(512, 64, 7);
    let mut per_queue: Vec<Vec<&Vec<u8>>> = vec![Vec::new(); QUEUES];
    for f in &candidates {
        let q = rss_queue(f, QUEUES);
        if per_queue[q].len() < 8 {
            per_queue[q].push(f);
        }
    }
    assert!(per_queue.iter().all(|v| v.len() == 8), "rss covers queues");

    let inject_round = |k: &mut Kernel, weights: &[usize; QUEUES], seq: usize| {
        for (q, flows) in per_queue.iter().enumerate() {
            for i in 0..4 * weights[q] {
                k.receive(nic0, q, flows[(seq + i) % flows.len()].clone());
            }
        }
    };
    let run_window = |label: &str,
                      weights: &[usize; QUEUES],
                      pmds: &mut PmdSet,
                      dp: &mut DpifNetdev,
                      k: &mut Kernel|
     -> LatencyWindow {
        let _ = dp.latency.drain_raw();
        for seq in 0..ROUNDS_PER_WINDOW {
            inject_round(k, weights, seq);
            pmds.run_round(dp, k);
            k.dev_mut(nic1).tx_wire.clear();
        }
        let raw = dp.latency.drain_raw();
        LatencyWindow {
            label: label.to_string(),
            events: pmds.auto_lb.rebalances,
            samples: raw.len(),
            lat_ns: window_percentiles(raw),
        }
    };

    let skew_a: [usize; QUEUES] = [8, 1, 1, 1];
    let skew_b: [usize; QUEUES] = [1, 8, 8, 1];
    // Settle on the initial skew and let the policy place for it.
    for seq in 0..32 {
        inject_round(&mut k, &skew_a, seq);
        pmds.run_round(&mut dp, &mut k);
        k.dev_mut(nic1).tx_wire.clear();
    }
    pmds.rebalance();
    let mut windows = vec![run_window("balanced", &skew_a, &mut pmds, &mut dp, &mut k)];
    // Flip the skew; stale measurements would keep steering, so forget
    // them and let auto-lb re-measure and react.
    pmds.clear_cycles();
    for w in 0..6 {
        windows.push(run_window(
            &format!("post-flip w{w}"),
            &skew_b,
            &mut pmds,
            &mut dp,
            &mut k,
        ));
    }
    windows
}

/// p99.9 jitter across a HealthMonitor crash-restart.
///
/// A supervised AF_XDP forward rig runs steady traffic; a latent
/// datapath bug fires mid-run (`FaultKind::DatapathPanic`), the
/// supervisor tears the datapath down, and past the backoff rebuilds it
/// from the blueprint — megaflow table, EMC, and SMC all cold, so the
/// first post-restart window pays the full upcall path and spikes at
/// every percentile before settling. Returns two steady windows, the
/// crash window, and three recovery windows.
pub fn run_latency_crash() -> Vec<LatencyWindow> {
    const ROUNDS_PER_WINDOW: usize = 8;
    let mut k = Kernel::new(16);
    k.config.rss_cores = (0..8).collect();
    let mut nics = Vec::new();
    for i in 0..2u8 {
        nics.push(k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            2,
        )));
    }
    let (nic0, nic1) = (nics[0], nics[1]);
    let mut health = HealthMonitor::with_policy(
        move |k: &mut Kernel| {
            let mut dp = DpifNetdev::new();
            let p0 = dp.add_port(
                "eth0",
                PortType::Afxdp(AfxdpPort::open(k, nic0, 1024, OptLevel::O5).unwrap()),
            );
            let p1 = dp.add_port(
                "eth1",
                PortType::Afxdp(AfxdpPort::open(k, nic1, 1024, OptLevel::O5).unwrap()),
            );
            dp.add_flows(&format!(
                "table=0, priority=10, in_port={p0}, actions=output:{p1}"
            ))
            .unwrap();
            dp.set_emc_insert_inv_prob(1);
            // Raw latency capture is part of the blueprint: it survives
            // the restart exactly like the rest of the configuration.
            dp.latency.enable_raw();
            dp
        },
        2_000_000,
        4,
    );
    let mut dp = Some(health.start(&mut k));
    let mut pmds = PmdSet::new(&[8, 9], AssignmentPolicy::RoundRobin);
    pmds.add_port_rxqs(0, 2);
    pmds.rebalance();

    let inject = |k: &mut Kernel, q: usize, flow: u16| {
        let f = builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000 + flow,
            6000,
            96,
        );
        k.receive(nic0, q, f);
    };

    // Warm both PMDs' private caches before the first window.
    for round in 0..16u16 {
        for q in 0..2 {
            for i in 0..4u16 {
                inject(&mut k, q, (round * 4 + i) % 8);
            }
        }
        pmds.run_round_supervised(&mut health, &mut dp, &mut k);
    }

    let mut windows = Vec::new();
    let mut seq = 0u16;
    for w in 0..6 {
        if let Some(d) = dp.as_mut() {
            let _ = d.latency.drain_raw();
        }
        if w == 2 {
            // The latent bug fires on the next supervised poll; past
            // the 2 ms backoff the supervisor rebuilds the datapath.
            k.inject_fault(ovs_sim::FaultKind::DatapathPanic, 0, 0, 0);
            pmds.run_round_supervised(&mut health, &mut dp, &mut k);
            k.sim.clock.advance(3_000_000);
        }
        for _ in 0..ROUNDS_PER_WINDOW {
            for q in 0..2 {
                for i in 0..4u16 {
                    inject(&mut k, q, (seq * 4 + i) % 8);
                }
            }
            seq += 1;
            pmds.run_round_supervised(&mut health, &mut dp, &mut k);
            k.dev_mut(nic1).tx_wire.clear();
        }
        let raw = dp
            .as_mut()
            .map(|d| d.latency.drain_raw())
            .unwrap_or_default();
        let label = match w {
            0 | 1 => format!("steady w{w}"),
            2 => "crash+restart".to_string(),
            _ => format!("recovery w{}", w - 3),
        };
        windows.push(LatencyWindow {
            label,
            events: health.restarts,
            samples: raw.len(),
            lat_ns: window_percentiles(raw),
        });
    }
    windows
}

// ----------------------------------------------------------------------
// Interrupt vs busy-poll ablation
// ----------------------------------------------------------------------

/// Measure rx→tx latency on an AF_XDP forward rig in busy-poll and
/// interrupt-mode rx. Interrupt mode charges the IRQ-moderation wakeup
/// inside the rx path — after the rx stamp, before the flush — so the
/// gap lands where it belongs: in the measured latency, mostly in the
/// median (every packet waits), not just the tail.
/// Returns `(busy_poll, interrupt)` percentile sets over raw samples.
pub fn run_latency_interrupt_ablation(n_pkts: usize) -> (Percentiles, Percentiles) {
    let run = |interrupt: bool| -> Percentiles {
        let mut k = Kernel::new(16);
        k.config.rss_cores = (0..8).collect();
        let nic0 = k.add_device(NetDevice::new(
            "eth0",
            MacAddr::new(2, 0, 0, 0, 0, 1),
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let nic1 = k.add_device(NetDevice::new(
            "eth1",
            MacAddr::new(2, 0, 0, 0, 0, 2),
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let mut dp = DpifNetdev::new();
        let mut a0 = AfxdpPort::open(&mut k, nic0, 4096, OptLevel::O5).expect("afxdp nic0");
        if interrupt {
            for s in &mut a0.sockets {
                s.interrupt_mode = true;
            }
        }
        let a1 = AfxdpPort::open(&mut k, nic1, 4096, OptLevel::O5).expect("afxdp nic1");
        let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
        let p1 = dp.add_port("eth1", PortType::Afxdp(a1));
        dp.add_flows(&format!(
            "table=0, priority=10, in_port={p0}, actions=output:{p1}"
        ))
        .unwrap();
        dp.set_emc_insert_inv_prob(1);

        let frame = |flow: u16| {
            builder::udp_ipv4_frame(
                MacAddr::new(2, 0, 0, 0, 9, 9),
                MacAddr::new(2, 0, 0, 0, 0, 1),
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                1000 + flow,
                6000,
                64,
            )
        };
        // Warm the caches, then measure with raw capture.
        for i in 0..8 {
            k.receive(nic0, 0, frame(i % 8));
            dp.pmd_poll(&mut k, p0, 0, 8);
        }
        k.dev_mut(nic1).tx_wire.clear();
        dp.latency.clear();
        dp.latency.enable_raw();
        let mut sent = 0usize;
        while sent < n_pkts {
            for _ in 0..8.min(n_pkts - sent) {
                k.receive(nic0, 0, frame((sent % 8) as u16));
                sent += 1;
            }
            dp.pmd_poll(&mut k, p0, 0, 8);
            k.dev_mut(nic1).tx_wire.clear();
        }
        window_percentiles(dp.latency.drain_raw())
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_fit_recovers_a_linear_law() {
        // Synthetic exactly-linear data must be recovered exactly.
        let truth = DelayModel {
            coef: [1000.0, 50.0, 200.0, 30.0],
        };
        let mut rows = Vec::new();
        for &b in &SWEEP_BURSTS {
            for &f in &SWEEP_FLOWS {
                for &r in &SWEEP_RULES {
                    rows.push((DelayModel::features(b, f, r), truth.predict(b, f, r)));
                }
            }
        }
        let fit = DelayModel::fit(&rows).unwrap();
        for (c, t) in fit.coef.iter().zip(&truth.coef) {
            assert!(
                (c - t).abs() < 1e-6,
                "fit {:?} vs truth {:?}",
                fit.coef,
                truth.coef
            );
        }
    }

    #[test]
    fn degenerate_design_is_rejected() {
        // Every row identical: the normal equations are singular.
        let rows = vec![(DelayModel::features(8, 8, 200), 5.0); 8];
        assert!(DelayModel::fit(&rows).is_none());
    }

    #[test]
    fn sweep_point_measures_real_latency() {
        let p = run_latency_point(8, 8, 200, 256);
        assert_eq!(p.offered, 256);
        assert!(p.samples > 0, "delivered packets captured");
        assert!(p.lat_ns.p50 > 0.0);
        assert!(p.lat_ns.p999 >= p.lat_ns.p50);
    }

    #[test]
    fn larger_bursts_raise_latency() {
        // A packet's rx->tx window spans its burst's processing, so
        // bigger bursts mean higher per-packet latency.
        let small = run_latency_point(4, 8, 200, 512);
        let large = run_latency_point(32, 8, 200, 512);
        assert!(
            large.lat_ns.p50 > small.lat_ns.p50,
            "burst 32 p50 {} <= burst 4 p50 {}",
            large.lat_ns.p50,
            small.lat_ns.p50
        );
    }

    #[test]
    fn interrupt_mode_costs_latency() {
        let (busy, irq) = run_latency_interrupt_ablation(512);
        assert!(
            irq.p50 > busy.p50,
            "interrupt p50 {} <= busy-poll p50 {}",
            irq.p50,
            busy.p50
        );
    }

    #[test]
    fn autolb_transient_spikes_then_settles() {
        let windows = run_latency_autolb();
        assert_eq!(windows.len(), 7);
        assert_eq!(windows[0].events, 0, "no rebalance before the flip");
        let last = windows.last().unwrap();
        assert!(
            last.events >= 1,
            "auto-lb reacted to the flipped skew: {windows:?}"
        );
        assert!(windows.iter().all(|w| w.samples > 0));
    }
}
