//! The PMD scheduler: rxq→PMD assignment, per-PMD flow caches, and
//! auto load balancing.
//!
//! Real OVS's `dpif-netdev` runs one poll-mode-driver (PMD) thread per
//! dedicated core; each thread owns a list of port rx queues it polls
//! and a *private* EMC/SMC pair, while the megaflow classifier (dpcls)
//! is shared across threads. Which rxq lands on which PMD is decided by
//! the `pmd-rxq-assign` policy — `roundrobin`, `cycles`, or `group` —
//! refined by `pmd-rxq-affinity` pinning, and optionally re-decided at
//! runtime by the `pmd-auto-lb` pass when the measured load variance
//! across PMDs would improve enough (both NFV-switch benchmarking
//! studies in PAPERS.md show rxq placement dominating multi-core
//! throughput — the paper's Fig 12 scaling story).
//!
//! This module reproduces that subsystem deterministically: a
//! [`PmdSet`] drives every [`PmdThread`] cooperatively over simulated
//! cores ([`PmdSet::run_round`]), swapping each thread's private caches
//! into the datapath around its polls so cache locality is really
//! per-PMD, measuring per-rxq cycles for the load-aware policies, and
//! charging the multi-queue contention penalty (shared umem/tx state)
//! that keeps Fig 12 scaling sublinear.

use crate::cache::{Emc, Smc};
use crate::dpif::{DpAction, DpifNetdev, DpifStats, PortNo, PortType};
use crate::health::HealthMonitor;
use ovs_kernel::Kernel;
use ovs_sim::Context;
use std::collections::BTreeMap;

/// One port receive queue, the unit of assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RxqId {
    /// Datapath port number.
    pub port: PortNo,
    /// Queue index within the port.
    pub queue: usize,
}

impl RxqId {
    /// Shorthand constructor.
    pub fn new(port: PortNo, queue: usize) -> Self {
        Self { port, queue }
    }
}

/// `other_config:pmd-rxq-assign` — how non-pinned rxqs are spread over
/// the non-isolated PMDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// Registration order, round-robin across PMDs (OVS `roundrobin`).
    RoundRobin,
    /// Sort rxqs by measured cycles, descending, and deal them out in a
    /// zigzag over the PMDs (OVS `cycles`, the default since 2.16).
    Cycles,
    /// Sort rxqs by measured cycles, descending, and assign each to the
    /// currently least-loaded PMD (OVS `group`).
    Group,
}

impl AssignmentPolicy {
    /// The `other_config` value naming this policy.
    pub fn label(self) -> &'static str {
        match self {
            AssignmentPolicy::RoundRobin => "roundrobin",
            AssignmentPolicy::Cycles => "cycles",
            AssignmentPolicy::Group => "group",
        }
    }

    /// Parse an `other_config:pmd-rxq-assign` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "roundrobin" => Some(AssignmentPolicy::RoundRobin),
            "cycles" => Some(AssignmentPolicy::Cycles),
            "group" => Some(AssignmentPolicy::Group),
            _ => None,
        }
    }
}

/// One poll-mode-driver thread: a core, the rxqs it polls, and its
/// private flow caches (the shared dpcls stays on the [`DpifNetdev`]).
pub struct PmdThread {
    /// The core this thread is pinned to.
    pub core: usize,
    /// Assigned rxqs, in poll order (pinned first, then policy order).
    rxqs: Vec<RxqId>,
    /// Private exact-match cache, swapped into the datapath around this
    /// thread's polls.
    emc: Emc<Vec<DpAction>>,
    /// Private signature-match cache.
    smc: Smc<Vec<DpAction>>,
    /// Datapath counter deltas attributed to this thread's polls.
    pub stats: DpifStats,
    /// Core-ns spent across this thread's polls.
    pub busy_ns: u64,
}

impl PmdThread {
    fn new(core: usize) -> Self {
        Self {
            core,
            rxqs: Vec::new(),
            emc: Emc::new(),
            smc: Smc::new(),
            stats: DpifStats::default(),
            busy_ns: 0,
        }
    }

    /// The rxqs currently assigned to this thread, in poll order.
    pub fn rxqs(&self) -> &[RxqId] {
        &self.rxqs
    }

    /// Entries in this thread's private EMC.
    pub fn emc_len(&self) -> usize {
        self.emc.len()
    }

    /// Entries in this thread's private SMC.
    pub fn smc_len(&self) -> usize {
        self.smc.len()
    }
}

/// `pmd-auto-lb` state: cycle-based load measurement feeding a dry-run
/// rebalance that is applied only when the estimated cross-PMD load
/// variance improves by at least the threshold.
#[derive(Debug, Clone)]
pub struct AutoLb {
    /// `other_config:pmd-auto-lb`.
    pub enabled: bool,
    /// Minimum estimated variance improvement (percent) before a
    /// rebalance is applied (`pmd-auto-lb-improvement-threshold`).
    pub improvement_threshold_pct: u64,
    /// Scheduler rounds between automatic checks.
    pub interval_rounds: u64,
    /// Checks performed (each one is a dry run first).
    pub checks: u64,
    /// Rebalances actually applied.
    pub rebalances: u64,
    /// Estimated improvement of the last dry run, percent.
    pub last_improvement_pct: Option<u64>,
}

impl Default for AutoLb {
    fn default() -> Self {
        Self {
            enabled: false,
            improvement_threshold_pct: 25,
            interval_rounds: 256,
            checks: 0,
            rebalances: 0,
            last_improvement_pct: None,
        }
    }
}

/// The scheduler: every PMD thread, the rxq registry, the assignment
/// engine, and the auto-load-balancer.
pub struct PmdSet {
    pmds: Vec<PmdThread>,
    policy: AssignmentPolicy,
    /// Registered rxqs, in registration order.
    rxqs: Vec<RxqId>,
    /// `pmd-rxq-affinity` pins: rxq → core.
    affinity: BTreeMap<RxqId, usize>,
    /// Whether a core with pinned rxqs is excluded from non-pinned
    /// assignment (OVS's default isolation semantics).
    pub isolate_pinned: bool,
    /// Measured core-ns per rxq (cumulative since the last
    /// [`clear_cycles`](Self::clear_cycles)).
    cycles: BTreeMap<RxqId, u64>,
    /// Auto-load-balancer state.
    pub auto_lb: AutoLb,
    rounds: u64,
    /// Polled-queue count per port under the current assignment — the
    /// number of PMDs sharing that port's umem/tx state, which is what
    /// the multi-queue contention penalty scales with. Counted by
    /// [`assign`](Self::assign), the one writer of the rxq lists.
    sharers: BTreeMap<PortNo, usize>,
}

impl PmdSet {
    /// A scheduler over `cores`, one PMD thread per core.
    pub fn new(cores: &[usize], policy: AssignmentPolicy) -> Self {
        let mut cores: Vec<usize> = cores.to_vec();
        cores.sort_unstable();
        cores.dedup();
        assert!(!cores.is_empty(), "a PmdSet needs at least one core");
        Self {
            pmds: cores.into_iter().map(PmdThread::new).collect(),
            policy,
            rxqs: Vec::new(),
            affinity: BTreeMap::new(),
            isolate_pinned: true,
            cycles: BTreeMap::new(),
            auto_lb: AutoLb::default(),
            rounds: 0,
            sharers: BTreeMap::new(),
        }
    }

    /// The PMD threads, in core order.
    pub fn pmds(&self) -> &[PmdThread] {
        &self.pmds
    }

    /// The active assignment policy.
    pub fn policy(&self) -> AssignmentPolicy {
        self.policy
    }

    /// Switch the assignment policy (takes effect on the next
    /// [`rebalance`](Self::rebalance)).
    pub fn set_policy(&mut self, policy: AssignmentPolicy) {
        self.policy = policy;
    }

    /// Register one rxq for scheduling. Call [`rebalance`](Self::rebalance)
    /// after registration to (re)compute the assignment.
    pub fn add_rxq(&mut self, port: PortNo, queue: usize) {
        let id = RxqId::new(port, queue);
        if !self.rxqs.contains(&id) {
            self.rxqs.push(id);
        }
    }

    /// Register queues `0..nqueues` of a port.
    pub fn add_port_rxqs(&mut self, port: PortNo, nqueues: usize) {
        for q in 0..nqueues.max(1) {
            self.add_rxq(port, q);
        }
    }

    /// Register NF instances `0..n` as schedulable units (under the
    /// [`crate::dpif::NF_WORK_PORT`] sentinel), making each NF an
    /// assignable, cycle-measured peer of an rx queue.
    pub fn add_nf_units(&mut self, n: usize) {
        for nf in 0..n {
            self.add_rxq(crate::dpif::NF_WORK_PORT, nf);
        }
    }

    /// The core currently assigned to poll `rxq`, if any.
    pub fn core_of(&self, rxq: RxqId) -> Option<usize> {
        self.pmds
            .iter()
            .find(|p| p.rxqs.contains(&rxq))
            .map(|p| p.core)
    }

    /// Pin an rxq to a core (`pmd-rxq-affinity`). The core must belong
    /// to this set. While [`isolate_pinned`](Self::isolate_pinned) is
    /// true (the OVS default), a core with pins receives no non-pinned
    /// rxqs.
    pub fn set_affinity(&mut self, port: PortNo, queue: usize, core: usize) {
        assert!(
            self.pmds.iter().any(|p| p.core == core),
            "pmd-rxq-affinity names core {core}, which has no PMD thread"
        );
        self.add_rxq(port, queue);
        self.affinity.insert(RxqId::new(port, queue), core);
    }

    /// Forget all per-rxq load measurements (e.g. after a workload
    /// change, so stale history stops steering the load-aware policies).
    pub fn clear_cycles(&mut self) {
        self.cycles.clear();
    }

    fn pmd_index_of_core(&self, core: usize) -> usize {
        self.pmds
            .iter()
            .position(|p| p.core == core)
            .expect("affinity cores are validated at insertion")
    }

    /// Indices of PMDs eligible for non-pinned rxqs: cores without pins,
    /// unless every core is pinned (then all of them, so nothing is ever
    /// unschedulable).
    fn eligible(&self) -> Vec<usize> {
        let eligible: Vec<usize> = if self.isolate_pinned {
            let pinned: Vec<usize> = self.affinity.values().copied().collect();
            self.pmds
                .iter()
                .enumerate()
                .filter(|(_, p)| !pinned.contains(&p.core))
                .map(|(i, _)| i)
                .collect()
        } else {
            (0..self.pmds.len()).collect()
        };
        if eligible.is_empty() {
            (0..self.pmds.len()).collect()
        } else {
            eligible
        }
    }

    /// Compute the assignment the current policy and measurements would
    /// produce, without applying it: one rxq list per PMD (index-aligned
    /// with [`pmds`](Self::pmds)). Pinned rxqs go to their cores first;
    /// the rest follow the policy over the eligible PMDs.
    fn compute_assignment(&self) -> Vec<Vec<RxqId>> {
        let mut out: Vec<Vec<RxqId>> = vec![Vec::new(); self.pmds.len()];
        let mut loads: Vec<u64> = vec![0; self.pmds.len()];
        let mut free: Vec<RxqId> = Vec::new();
        for &rxq in &self.rxqs {
            match self.affinity.get(&rxq) {
                Some(&core) => {
                    let i = self.pmd_index_of_core(core);
                    out[i].push(rxq);
                    loads[i] += self.cycles.get(&rxq).copied().unwrap_or(0);
                }
                None => free.push(rxq),
            }
        }
        let eligible = self.eligible();
        match self.policy {
            AssignmentPolicy::RoundRobin => {
                for (n, rxq) in free.into_iter().enumerate() {
                    out[eligible[n % eligible.len()]].push(rxq);
                }
            }
            AssignmentPolicy::Cycles | AssignmentPolicy::Group => {
                // Sort by measured cycles, descending; registration
                // order breaks ties so the result is deterministic.
                let mut ranked: Vec<(u64, usize, RxqId)> = free
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (self.cycles.get(&r).copied().unwrap_or(0), i, r))
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                if self.policy == AssignmentPolicy::Cycles {
                    // Zigzag deal: 0,1,..,n-1,n-1,..,1,0,0,1,.. so the
                    // heaviest rxqs spread before doubling up.
                    let n = eligible.len();
                    for (k, (c, _, rxq)) in ranked.into_iter().enumerate() {
                        let lap = k / n;
                        let off = k % n;
                        let i = eligible[if lap.is_multiple_of(2) {
                            off
                        } else {
                            n - 1 - off
                        }];
                        out[i].push(rxq);
                        loads[i] += c;
                    }
                } else {
                    // Group: always the currently least-loaded PMD.
                    for (c, _, rxq) in ranked {
                        let &i = eligible
                            .iter()
                            .min_by_key(|&&i| (loads[i], self.pmds[i].core))
                            .expect("eligible is never empty");
                        out[i].push(rxq);
                        loads[i] += c;
                    }
                }
            }
        }
        out
    }

    /// (Re)compute the rxq→PMD assignment under the current policy,
    /// pins, and load measurements (`dpif-netdev/pmd-rxq-rebalance`).
    pub fn rebalance(&mut self) {
        let assignment = self.compute_assignment();
        self.assign(assignment);
    }

    /// Install an rxq→PMD assignment and recount each port's sharers.
    fn assign(&mut self, assignment: Vec<Vec<RxqId>>) {
        for (pmd, rxqs) in self.pmds.iter_mut().zip(assignment) {
            pmd.rxqs = rxqs;
        }
        self.sharers.clear();
        for rxq in self.pmds.iter().flat_map(|p| &p.rxqs) {
            *self.sharers.entry(rxq.port).or_insert(0) += 1;
        }
    }

    fn contention_ns(dp: &DpifNetdev, kernel: &Kernel, port: PortNo, sharers: usize) -> f64 {
        if sharers <= 1 {
            return 0.0;
        }
        let per_pkt = match dp.port(port).map(|p| &p.ty) {
            Some(PortType::Afxdp(_)) => kernel.sim.costs.afxdp_queue_contention_ns,
            Some(PortType::Dpdk(_)) => kernel.sim.costs.dpdk_queue_contention_ns,
            _ => 0.0,
        };
        per_pkt * (sharers - 1) as f64
    }

    /// Drive every PMD thread through one poll of each of its rxqs, with
    /// its private caches swapped into the datapath for the duration.
    /// Per-rxq cycles are measured for the load-aware policies, the
    /// multi-queue contention penalty is charged per packet moved, and
    /// counter deltas accrue to the owning thread. Returns packets moved.
    pub fn run_round(&mut self, dp: &mut DpifNetdev, kernel: &mut Kernel) -> usize {
        self.round(
            dp,
            kernel,
            |dp| Some(dp),
            |dp, kernel, rxq, core| (dp.pmd_poll(kernel, rxq.port, rxq.queue, core), false),
        )
    }

    /// [`run_round`](Self::run_round) behind a [`HealthMonitor`]'s unwind
    /// boundary. A poll that crashes the datapath loses the caches that
    /// were swapped in with it; the crash is detected here and every
    /// PMD's cache structure is rebuilt cold — while the rxq assignment
    /// and affinity pins survive, exactly like a restarted `ovs-vswitchd`
    /// re-reading its ovsdb config.
    pub fn run_round_supervised(
        &mut self,
        health: &mut HealthMonitor,
        dp: &mut Option<DpifNetdev>,
        kernel: &mut Kernel,
    ) -> usize {
        self.round(
            dp,
            kernel,
            |dp| dp.as_mut(),
            |dp, kernel, rxq, core| {
                let crashes_before = health.crashes.len();
                let n = health.poll(dp, kernel, rxq.port, rxq.queue, core);
                (n, health.crashes.len() > crashes_before)
            },
        )
    }

    /// The one round loop behind both entry points, which differ only in
    /// how an rxq is polled: `poll` returns the packets it moved and
    /// whether it crashed the datapath. `live` yields the datapath while
    /// it is up; a poll may tear it down or bring a rebuilt one up.
    fn round<D>(
        &mut self,
        dp: &mut D,
        kernel: &mut Kernel,
        live: impl Fn(&mut D) -> Option<&mut DpifNetdev>,
        mut poll: impl FnMut(&mut D, &mut Kernel, RxqId, usize) -> (usize, bool),
    ) -> usize {
        let mut moved = 0;
        for i in 0..self.pmds.len() {
            let core = self.pmds[i].core;
            // Indexed: a round never reassigns rxqs, and a copy of the
            // list would allocate every round.
            for j in 0..self.pmds[i].rxqs.len() {
                let rxq = self.pmds[i].rxqs[j];
                let pmd = &mut self.pmds[i];
                let before = live(dp).map(|d| {
                    d.swap_caches(&mut pmd.emc, &mut pmd.smc);
                    d.stats
                });
                let t0 = kernel.sim.cpus.core_ns(core);
                let (n, crashed) = poll(dp, kernel, rxq, core);
                if let Some(d) = live(dp) {
                    if n > 0 {
                        let c = Self::contention_ns(
                            d,
                            kernel,
                            rxq.port,
                            self.sharers.get(&rxq.port).copied().unwrap_or(1),
                        );
                        if c > 0.0 {
                            kernel.sim.charge(core, Context::User, c * n as f64);
                        }
                    }
                    if let Some(before) = before {
                        let pmd = &mut self.pmds[i];
                        d.swap_caches(&mut pmd.emc, &mut pmd.smc);
                        pmd.stats.accumulate(&d.stats.delta(&before));
                    }
                }
                let dt = kernel.sim.cpus.core_ns(core).saturating_sub(t0);
                self.pmds[i].busy_ns += dt;
                *self.cycles.entry(rxq).or_insert(0) += dt;
                if crashed {
                    // The crash took the swapped-in caches down with the
                    // datapath: restart with cold per-PMD caches but the
                    // same assignment.
                    self.reset_caches();
                }
                moved += n;
            }
        }
        self.rounds += 1;
        if self.auto_lb.enabled && self.rounds.is_multiple_of(self.auto_lb.interval_rounds) {
            self.auto_lb_check();
        }
        moved
    }

    /// Reclaim dead megaflow references from every PMD's private caches
    /// — the PMD-aware half of the revalidator's dead-flagging (the
    /// datapath purges its own resting caches during the sweep).
    pub fn purge_dead(&mut self) -> usize {
        let mut freed = 0;
        for pmd in &mut self.pmds {
            freed += pmd.emc.purge_dead() + pmd.smc.purge_dead();
        }
        freed
    }

    /// One revalidator sweep plus the PMD-side cache purge. Use this
    /// instead of calling [`DpifNetdev::revalidate`] directly when the
    /// datapath is scheduler-driven, so dead flows are reclaimed from
    /// every PMD's private caches too.
    pub fn revalidate(
        &mut self,
        dp: &mut DpifNetdev,
        kernel: &mut Kernel,
        core: usize,
    ) -> crate::revalidator::SweepSummary {
        let summary = dp.revalidate(kernel, core);
        self.purge_dead();
        summary
    }

    /// Drop every PMD's private caches (cold restart). Assignment, pins,
    /// and load measurements survive.
    pub fn reset_caches(&mut self) {
        for pmd in &mut self.pmds {
            pmd.emc = Emc::new();
            pmd.smc = Smc::new();
        }
    }

    /// Sum of the per-PMD counter deltas. When all traffic flows through
    /// [`run_round`](Self::run_round) against one datapath, this equals
    /// the datapath's global [`DpifStats`] — checked by
    /// [`coherent_with`](Self::coherent_with).
    pub fn stats_sum(&self) -> DpifStats {
        let mut sum = DpifStats::default();
        for pmd in &self.pmds {
            sum.accumulate(&pmd.stats);
        }
        sum
    }

    /// The scheduler-level stats invariant: the per-PMD deltas sum to
    /// the datapath's global counters and the sum itself satisfies the
    /// per-datapath [`DpifStats::coherent`] identity.
    pub fn coherent_with(&self, global: &DpifStats) -> bool {
        let sum = self.stats_sum();
        sum == *global && sum.coherent()
    }

    /// `ovs-appctl dpif-netdev/pmd-rxq-show`: per-PMD isolation flag and
    /// polled rxqs with their measured load share.
    pub fn pmd_rxq_show(&self, dp: &DpifNetdev) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for pmd in &self.pmds {
            let _ = writeln!(out, "pmd thread core {}:", pmd.core);
            let isolated =
                self.isolate_pinned && pmd.rxqs.iter().any(|r| self.affinity.contains_key(r));
            let _ = writeln!(out, "  isolated : {isolated}");
            let total: u64 = pmd
                .rxqs
                .iter()
                .map(|r| self.cycles.get(r).copied().unwrap_or(0))
                .sum();
            for rxq in &pmd.rxqs {
                let nf_name;
                let name = if rxq.port == crate::dpif::NF_WORK_PORT {
                    // An NF instance scheduled as an rxq-like unit.
                    nf_name = match dp.nfv.nf(rxq.queue as u32) {
                        Some(nf) => format!("nf:{}", nf.name),
                        None => "nf:<gone>".to_string(),
                    };
                    nf_name.as_str()
                } else {
                    dp.port(rxq.port)
                        .map(|p| p.name.as_str())
                        .unwrap_or("<gone>")
                };
                let ns = self.cycles.get(rxq).copied().unwrap_or(0);
                let pct = (ns * 100).checked_div(total).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  port: {:<16} queue-id: {:>2}  pmd usage: {:>3} %",
                    name, rxq.queue, pct
                );
            }
            if pmd.rxqs.is_empty() {
                let _ = writeln!(out, "  (no rxqs)");
            }
        }
        out
    }

    /// `ovs-appctl dpif-netdev/pmd-auto-lb-show`.
    pub fn pmd_auto_lb_show(&self) -> String {
        let lb = &self.auto_lb;
        format!(
            "pmd-auto-lb: {}\n  \
             assignment policy     : {}\n  \
             improvement threshold : {} %\n  \
             checks (dry runs)     : {}\n  \
             rebalances applied    : {}\n  \
             last improvement      : {}\n",
            if lb.enabled { "enabled" } else { "disabled" },
            self.policy.label(),
            lb.improvement_threshold_pct,
            lb.checks,
            lb.rebalances,
            match lb.last_improvement_pct {
                Some(p) => format!("{p} %"),
                None => "n/a".to_string(),
            },
        )
    }

    /// Per-PMD load (measured core-ns of assigned rxqs) under an
    /// assignment.
    fn loads_of(&self, assignment: &[Vec<RxqId>]) -> Vec<u64> {
        assignment
            .iter()
            .map(|rxqs| {
                rxqs.iter()
                    .map(|r| self.cycles.get(r).copied().unwrap_or(0))
                    .sum()
            })
            .collect()
    }

    /// One auto-lb pass: dry-run the assignment the current policy would
    /// produce from the measured loads, estimate the cross-PMD variance
    /// improvement, and apply the rebalance only if it clears the
    /// threshold. Returns the estimated improvement in percent.
    pub fn auto_lb_check(&mut self) -> u64 {
        self.auto_lb.checks += 1;
        let current: Vec<Vec<RxqId>> = self.pmds.iter().map(|p| p.rxqs.clone()).collect();
        let proposed = self.compute_assignment();
        let cur_var = variance(&self.loads_of(&current));
        let est_var = variance(&self.loads_of(&proposed));
        let improvement = if cur_var == 0 || est_var >= cur_var {
            0
        } else {
            ((cur_var - est_var) * 100 / cur_var) as u64
        };
        self.auto_lb.last_improvement_pct = Some(improvement);
        if improvement >= self.auto_lb.improvement_threshold_pct {
            self.assign(proposed);
            self.auto_lb.rebalances += 1;
        }
        improvement
    }
}

/// Population variance of per-PMD loads (u128 to survive ns² sums).
fn variance(loads: &[u64]) -> u128 {
    if loads.is_empty() {
        return 0;
    }
    let n = loads.len() as u128;
    let sum: u128 = loads.iter().map(|&l| l as u128).sum();
    let mean = sum / n;
    loads
        .iter()
        .map(|&l| {
            let d = (l as u128).abs_diff(mean);
            d * d
        })
        .sum::<u128>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cores: &[usize], policy: AssignmentPolicy) -> PmdSet {
        PmdSet::new(cores, policy)
    }

    #[test]
    fn roundrobin_spreads_in_registration_order() {
        let mut s = set(&[8, 9], AssignmentPolicy::RoundRobin);
        s.add_port_rxqs(0, 4);
        s.rebalance();
        assert_eq!(s.pmds()[0].rxqs(), &[RxqId::new(0, 0), RxqId::new(0, 2)]);
        assert_eq!(s.pmds()[1].rxqs(), &[RxqId::new(0, 1), RxqId::new(0, 3)]);
    }

    #[test]
    fn cycles_policy_zigzags_by_measured_load() {
        let mut s = set(&[8, 9], AssignmentPolicy::Cycles);
        s.add_port_rxqs(0, 4);
        s.cycles.insert(RxqId::new(0, 0), 400);
        s.cycles.insert(RxqId::new(0, 1), 100);
        s.cycles.insert(RxqId::new(0, 2), 400);
        s.cycles.insert(RxqId::new(0, 3), 100);
        s.rebalance();
        // Ranked q0,q2 (heavy), q1,q3 (light); zigzag: q0→8, q2→9, q1→9, q3→8.
        assert_eq!(s.pmds()[0].rxqs(), &[RxqId::new(0, 0), RxqId::new(0, 3)]);
        assert_eq!(s.pmds()[1].rxqs(), &[RxqId::new(0, 2), RxqId::new(0, 1)]);
    }

    #[test]
    fn group_policy_tracks_least_loaded() {
        let mut s = set(&[8, 9], AssignmentPolicy::Group);
        s.add_port_rxqs(0, 4);
        s.cycles.insert(RxqId::new(0, 0), 400);
        s.cycles.insert(RxqId::new(0, 1), 200);
        s.cycles.insert(RxqId::new(0, 2), 100);
        s.cycles.insert(RxqId::new(0, 3), 100);
        s.rebalance();
        // q0→8 (400); q1→9 (200); q2→9 (300); q3→9 (400).
        assert_eq!(s.pmds()[0].rxqs(), &[RxqId::new(0, 0)]);
        assert_eq!(
            s.pmds()[1].rxqs(),
            &[RxqId::new(0, 1), RxqId::new(0, 2), RxqId::new(0, 3)]
        );
    }

    #[test]
    fn affinity_pins_and_isolates() {
        let mut s = set(&[8, 9, 10], AssignmentPolicy::RoundRobin);
        s.add_port_rxqs(0, 3);
        s.set_affinity(1, 0, 8);
        s.rebalance();
        // Core 8 is isolated by the pin: only the pinned rxq lands there.
        assert_eq!(s.pmds()[0].rxqs(), &[RxqId::new(1, 0)]);
        assert_eq!(s.pmds()[1].rxqs(), &[RxqId::new(0, 0), RxqId::new(0, 2)]);
        assert_eq!(s.pmds()[2].rxqs(), &[RxqId::new(0, 1)]);
        // Without isolation the pinned core takes its share again.
        s.isolate_pinned = false;
        s.rebalance();
        assert_eq!(s.pmds()[0].rxqs(), &[RxqId::new(1, 0), RxqId::new(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "no PMD thread")]
    fn affinity_to_unknown_core_panics() {
        let mut s = set(&[8], AssignmentPolicy::RoundRobin);
        s.set_affinity(0, 0, 99);
    }

    #[test]
    fn auto_lb_applies_only_above_threshold() {
        let mut s = set(&[8, 9], AssignmentPolicy::Group);
        s.add_port_rxqs(0, 4);
        s.rebalance(); // unmeasured: registration order via group
                       // Manufacture a skewed placement: both heavy rxqs on core 8.
        s.pmds[0].rxqs = vec![RxqId::new(0, 0), RxqId::new(0, 2)];
        s.pmds[1].rxqs = vec![RxqId::new(0, 1), RxqId::new(0, 3)];
        s.cycles.insert(RxqId::new(0, 0), 4000);
        s.cycles.insert(RxqId::new(0, 2), 4000);
        s.cycles.insert(RxqId::new(0, 1), 100);
        s.cycles.insert(RxqId::new(0, 3), 100);
        let imp = s.auto_lb_check();
        assert!(imp >= 25, "clear improvement: {imp}%");
        assert_eq!(s.auto_lb.rebalances, 1);
        let loads = s.loads_of(&s.pmds.iter().map(|p| p.rxqs.clone()).collect::<Vec<_>>());
        assert_eq!(loads[0], loads[1], "balanced after rebalance: {loads:?}");
        // A second check finds nothing left to improve.
        let imp2 = s.auto_lb_check();
        assert!(imp2 < 25, "already balanced: {imp2}%");
        assert_eq!(s.auto_lb.rebalances, 1);
    }

    #[test]
    fn variance_basics() {
        assert_eq!(variance(&[]), 0);
        assert_eq!(variance(&[5, 5, 5]), 0);
        assert!(variance(&[0, 10]) > variance(&[4, 6]));
    }
}
