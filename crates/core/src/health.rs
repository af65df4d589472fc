//! The datapath health supervisor (§6: the reduced-risk argument).
//!
//! A kernel datapath bug panics the host. A userspace datapath bug
//! crashes `ovs-vswitchd` — a process that a supervisor can restart in
//! seconds, after which the flow table re-installs from the OpenFlow
//! layer and the caches re-warm. This module is that supervisor:
//! [`HealthMonitor`] owns datapath *construction* (a builder closure),
//! wraps every PMD poll in `catch_unwind`, and on a caught panic tears
//! the dead datapath down (counting every packet it takes with it),
//! backs off exponentially, and rebuilds — up to a bounded restart
//! budget, after which it declares the datapath failed rather than
//! crash-looping.
//!
//! The simulated fault that exercises this is `FaultKind::DatapathPanic`:
//! the supervisor consumes it *inside* the unwind boundary, at a
//! quiescent instant (before any rx), so a crash never strands packets
//! mid-pipeline — everything lost is parked on socket rings and counted
//! by the teardown.

use crate::dpif::DpifNetdev;
use crate::snapshot::DpSnapshot;
use ovs_kernel::Kernel;
use ovs_obs::coverage;
use ovs_sim::FaultKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Keep the backtraces of injected panics (the datapath bug below, NF
/// worker bugs) out of the output. Installs, once per process, a panic
/// hook that drops panics whose `&str` payload names a simulated bug and
/// passes every other panic to the hook it replaced.
pub fn quiet_simulated_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let simulated = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("simulated datapath bug"));
            if !simulated {
                default_hook(info);
            }
        }));
    });
}

/// Supervisor state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Datapath up and polling.
    Running,
    /// Crashed; waiting out the restart backoff.
    BackingOff,
    /// Restart budget exhausted; staying down.
    Failed,
}

/// One recorded crash.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Virtual time of the crash.
    pub at_ns: u64,
    /// The panic message.
    pub reason: String,
    /// Virtual time the replacement datapath came up (`None` while
    /// backing off or failed).
    pub recovered_ns: Option<u64>,
}

/// One recorded planned (hitless) restart.
#[derive(Debug, Clone, Copy)]
pub struct GracefulRecord {
    /// Virtual time the restart began (snapshot + teardown).
    pub at_ns: u64,
    /// Virtual time the rebuilt datapath resumed forwarding from the
    /// restored flows (`None` while the restart window is open).
    pub resumed_ns: Option<u64>,
    /// Megaflows captured in the snapshot.
    pub snapshot_flows: u64,
    /// Conntrack entries captured in the snapshot.
    pub snapshot_conns: u64,
}

/// Supervises one [`DpifNetdev`]: builds it, polls it behind an unwind
/// boundary, and rebuilds it after a crash.
pub struct HealthMonitor {
    builder: Box<dyn FnMut(&mut Kernel) -> DpifNetdev>,
    /// Current state.
    pub state: HealthState,
    /// Completed restarts.
    pub restarts: u64,
    /// Restarts allowed before giving up.
    pub restart_budget: u64,
    /// Next backoff delay (doubles per crash, capped).
    pub backoff_ns: u64,
    max_backoff_ns: u64,
    next_restart_ns: u64,
    /// Crash history, oldest first.
    pub crashes: Vec<CrashRecord>,
    /// Completed hitless (planned) restarts — these do not consume the
    /// crash restart budget.
    pub graceful_restarts: u64,
    /// Planned-restart history, oldest first.
    pub graceful: Vec<GracefulRecord>,
    /// Teardown→rebuild delay for a planned restart (modeled process
    /// exec time; much shorter than a crash backoff).
    pub restart_window_ns: u64,
    /// `flow-restore-wait` gate duration handed to the restored
    /// datapath.
    pub restore_gate_ns: u64,
    /// Snapshot held across the restart window.
    pending_snapshot: Option<DpSnapshot>,
    /// Whether the current `BackingOff` is a planned restart window
    /// rather than a crash backoff.
    graceful_pending: bool,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("state", &self.state)
            .field("restarts", &self.restarts)
            .field("crashes", &self.crashes.len())
            .finish()
    }
}

impl HealthMonitor {
    /// Default initial backoff: 100 ms (the paper's "restart in seconds"
    /// is dominated by cache re-warming, not process start).
    pub const DEFAULT_BACKOFF_NS: u64 = 100_000_000;
    /// Default restart budget.
    pub const DEFAULT_BUDGET: u64 = 8;
    /// Default planned-restart window: 1 ms of virtual exec time
    /// between teardown and the rebuilt process resuming.
    pub const DEFAULT_RESTART_WINDOW_NS: u64 = 1_000_000;
    /// Default `flow-restore-wait` gate: 5 ms for the rule table to
    /// repopulate before upcalls resume (the gate also lifts early via
    /// `flow-restore/complete`).
    pub const DEFAULT_RESTORE_GATE_NS: u64 = 5_000_000;

    /// A supervisor around `builder`, which constructs (and on restart
    /// reconstructs) the datapath: ports re-opened, OpenFlow rules
    /// re-installed from the controller's copy. Caches start cold.
    pub fn new(builder: impl FnMut(&mut Kernel) -> DpifNetdev + 'static) -> Self {
        Self::with_policy(builder, Self::DEFAULT_BACKOFF_NS, Self::DEFAULT_BUDGET)
    }

    /// A supervisor with an explicit initial backoff and restart budget.
    pub fn with_policy(
        builder: impl FnMut(&mut Kernel) -> DpifNetdev + 'static,
        initial_backoff_ns: u64,
        restart_budget: u64,
    ) -> Self {
        Self {
            builder: Box::new(builder),
            state: HealthState::Running,
            restarts: 0,
            restart_budget,
            backoff_ns: initial_backoff_ns,
            max_backoff_ns: initial_backoff_ns.saturating_mul(64),
            next_restart_ns: 0,
            crashes: Vec::new(),
            graceful_restarts: 0,
            graceful: Vec::new(),
            restart_window_ns: Self::DEFAULT_RESTART_WINDOW_NS,
            restore_gate_ns: Self::DEFAULT_RESTORE_GATE_NS,
            pending_snapshot: None,
            graceful_pending: false,
        }
    }

    /// Tune the planned-restart timings (restart window, restore gate).
    pub fn set_restart_policy(&mut self, restart_window_ns: u64, restore_gate_ns: u64) {
        self.restart_window_ns = restart_window_ns;
        self.restore_gate_ns = restore_gate_ns;
    }

    /// Build the initial datapath.
    pub fn start(&mut self, kernel: &mut Kernel) -> DpifNetdev {
        (self.builder)(kernel)
    }

    /// One supervised PMD poll of `(port, queue)` on `core`.
    ///
    /// Handles the whole lifecycle: consumes a pending `DatapathPanic`
    /// fault (inside the unwind boundary), catches the resulting panic,
    /// tears down the dead datapath with counted packet loss, waits out
    /// the backoff in virtual time, and swaps a rebuilt datapath into
    /// `dp` when it elapses. Returns the packets the poll moved.
    pub fn poll(
        &mut self,
        dp: &mut Option<DpifNetdev>,
        kernel: &mut Kernel,
        port: crate::dpif::PortNo,
        queue: usize,
        core: usize,
    ) -> usize {
        let now = kernel.sim.clock.now_ns();
        match self.state {
            HealthState::Failed => return 0,
            HealthState::BackingOff => {
                if now < self.next_restart_ns {
                    return 0;
                }
                let mut rebuilt = (self.builder)(kernel);
                if self.graceful_pending {
                    // Planned restart: restore the snapshot into the
                    // rebuilt datapath and raise the flow-restore-wait
                    // gate — forwarding resumes from the restored
                    // megaflows immediately, upcalls stay gated until
                    // the rule table settles.
                    if let Some(snap) = self.pending_snapshot.take() {
                        rebuilt.restore_from(&snap, now, self.restore_gate_ns);
                    }
                    self.graceful_pending = false;
                    self.graceful_restarts += 1;
                    if let Some(g) = self.graceful.last_mut() {
                        g.resumed_ns = Some(now);
                    }
                    coverage!("health_hitless_restart");
                } else {
                    self.restarts += 1;
                    if let Some(c) = self.crashes.last_mut() {
                        c.recovered_ns = Some(now);
                    }
                    coverage!("health_restart");
                }
                *dp = Some(rebuilt);
                self.state = HealthState::Running;
            }
            HealthState::Running => {
                // A planned daemon restart (upgrade): unlike the crash
                // path below, state survives — snapshot the datapath,
                // tear it down cleanly (parked frames are counted by
                // port teardown, cached entries are marked dead so PMD
                // caches cannot forward stale flows), and rebuild after
                // a short exec window.
                if kernel.sim.faults.take(FaultKind::DaemonRestart) {
                    coverage!("daemon_restart");
                    if let Some(mut old) = dp.take() {
                        let snap = old.snapshot(now);
                        self.graceful.push(GracefulRecord {
                            at_ns: now,
                            resumed_ns: None,
                            snapshot_flows: snap.flows.len() as u64,
                            snapshot_conns: snap.conns.len() as u64,
                        });
                        self.pending_snapshot = Some(snap);
                        old.flush_caches();
                        for p in old.port_nos() {
                            old.del_port(kernel, p);
                        }
                    }
                    self.graceful_pending = true;
                    self.state = HealthState::BackingOff;
                    self.next_restart_ns = now.saturating_add(self.restart_window_ns);
                    return 0;
                }
            }
        }
        let Some(d) = dp.as_mut() else {
            return 0;
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // The injected datapath bug fires here, before any rx, so no
            // packet is ever stranded mid-pipeline by a crash.
            if kernel.sim.faults.take(FaultKind::DatapathPanic) {
                panic!("simulated datapath bug: invalid geneve option parse");
            }
            d.pmd_poll(kernel, port, queue, core)
        }));
        match result {
            Ok(n) => n,
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                coverage!("health_panic_caught");
                self.crashes.push(CrashRecord {
                    at_ns: now,
                    reason,
                    recovered_ns: None,
                });
                // Tear down the dead datapath. Port teardown counts every
                // packet still parked on socket rings (`xsk_close_flushed`),
                // so a crash loses packets but never loses *count* of them.
                if let Some(mut dead) = dp.take() {
                    for p in dead.port_nos() {
                        dead.del_port(kernel, p);
                    }
                }
                if self.restarts >= self.restart_budget {
                    self.state = HealthState::Failed;
                    coverage!("health_budget_exhausted");
                } else {
                    self.state = HealthState::BackingOff;
                    self.next_restart_ns = now.saturating_add(self.backoff_ns);
                    self.backoff_ns = (self.backoff_ns * 2).min(self.max_backoff_ns);
                }
                0
            }
        }
    }

    /// Mean crash-to-recovery time over recovered crashes, in virtual ns.
    pub fn mean_recovery_ns(&self) -> Option<u64> {
        let recovered: Vec<u64> = self
            .crashes
            .iter()
            .filter_map(|c| c.recovered_ns.map(|r| r - c.at_ns))
            .collect();
        if recovered.is_empty() {
            None
        } else {
            Some(recovered.iter().sum::<u64>() / recovered.len() as u64)
        }
    }

    /// `ovs-appctl health/show`: state, budget, backoff, crash history.
    pub fn show(&self, now_ns: u64) -> String {
        let secs = |ns: u64| format!("{:.3}s", ns as f64 / 1e9);
        let state = match self.state {
            HealthState::Running => "running".to_string(),
            HealthState::BackingOff => {
                format!("backing off (restart at {})", secs(self.next_restart_ns))
            }
            HealthState::Failed => "failed (restart budget exhausted)".to_string(),
        };
        let mut out = format!(
            "datapath health: {state}\n  restarts      : {}/{} (next backoff {})\n  crashes       : {}\n",
            self.restarts,
            self.restart_budget,
            secs(self.backoff_ns),
            self.crashes.len(),
        );
        for c in &self.crashes {
            let rec = match c.recovered_ns {
                Some(r) => format!("recovered at {} (+{})", secs(r), secs(r - c.at_ns)),
                None => "not recovered".to_string(),
            };
            out.push_str(&format!(
                "    {} panic \"{}\" — {}\n",
                secs(c.at_ns),
                c.reason,
                rec
            ));
        }
        if let Some(m) = self.mean_recovery_ns() {
            out.push_str(&format!("  mean recovery : {}\n", secs(m)));
        }
        if !self.graceful.is_empty() {
            out.push_str(&format!(
                "  hitless       : {} planned restarts\n",
                self.graceful_restarts
            ));
            for g in &self.graceful {
                let res = match g.resumed_ns {
                    Some(r) => format!("resumed at {} (+{})", secs(r), secs(r - g.at_ns)),
                    None => "restart window open".to_string(),
                };
                out.push_str(&format!(
                    "    {} snapshot {} flows, {} conns — {}\n",
                    secs(g.at_ns),
                    g.snapshot_flows,
                    g.snapshot_conns,
                    res
                ));
            }
        }
        let _ = now_ns;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpif::PortType;
    use ovs_kernel::dev::{DeviceKind, NetDevice};
    use ovs_packet::MacAddr;

    fn tap_dp(_kernel: &mut Kernel, ifindex: u32) -> DpifNetdev {
        let mut dp = DpifNetdev::new();
        dp.add_port("tap0", PortType::Tap { ifindex });
        dp
    }

    #[test]
    fn panic_is_caught_restart_after_backoff() {
        let mut k = Kernel::new(2);
        let tap = k.add_device(NetDevice::new(
            "tap0",
            MacAddr([2, 0, 0, 0, 0, 1]),
            DeviceKind::Tap,
            1,
        ));
        let mut h = HealthMonitor::with_policy(move |k| tap_dp(k, tap), 1_000_000, 4);
        let mut dp = Some(h.start(&mut k));

        k.sim.faults.inject(0, FaultKind::DatapathPanic, 0, 0, 0);
        assert_eq!(h.poll(&mut dp, &mut k, 0, 0, 0), 0);
        assert!(dp.is_none(), "dead datapath torn down");
        assert_eq!(h.state, HealthState::BackingOff);

        // Within backoff: still down.
        h.poll(&mut dp, &mut k, 0, 0, 0);
        assert!(dp.is_none());

        // After backoff: rebuilt and polling again.
        k.sim.clock.advance(2_000_000);
        h.poll(&mut dp, &mut k, 0, 0, 0);
        assert!(dp.is_some(), "datapath rebuilt after backoff");
        assert_eq!(h.state, HealthState::Running);
        assert_eq!(h.restarts, 1);
        assert_eq!(h.crashes.len(), 1);
        assert!(h.crashes[0].recovered_ns.is_some());
        assert!(h.show(0).contains("running"), "{}", h.show(0));
    }

    #[test]
    fn daemon_restart_is_hitless_not_a_crash() {
        let mut k = Kernel::new(2);
        let tap = k.add_device(NetDevice::new(
            "tap0",
            MacAddr([2, 0, 0, 0, 0, 1]),
            DeviceKind::Tap,
            1,
        ));
        let mut h = HealthMonitor::with_policy(move |k| tap_dp(k, tap), 1_000_000, 4);
        h.set_restart_policy(1_000_000, 5_000_000);
        let mut dp = Some(h.start(&mut k));

        k.sim.faults.inject(0, FaultKind::DaemonRestart, 0, 0, 0);
        assert_eq!(h.poll(&mut dp, &mut k, 0, 0, 0), 0);
        assert!(dp.is_none(), "old incarnation torn down");
        assert_eq!(h.state, HealthState::BackingOff);
        assert!(h.crashes.is_empty(), "a planned restart is not a crash");

        k.sim.clock.advance(2_000_000);
        h.poll(&mut dp, &mut k, 0, 0, 0);
        let d = dp.as_ref().expect("rebuilt after the restart window");
        assert_eq!(h.state, HealthState::Running);
        assert_eq!(h.graceful_restarts, 1);
        assert_eq!(h.restarts, 0, "crash budget untouched");
        assert!(d.restore.wait, "flow-restore-wait gate raised");
        assert!(h.show(0).contains("hitless       : 1 planned restarts"));
        assert!(k.sim.faults.all_clear(), "one-shot consumed");
    }

    #[test]
    fn budget_exhaustion_fails_closed() {
        let mut k = Kernel::new(2);
        let tap = k.add_device(NetDevice::new(
            "tap0",
            MacAddr([2, 0, 0, 0, 0, 1]),
            DeviceKind::Tap,
            1,
        ));
        let mut h = HealthMonitor::with_policy(move |k| tap_dp(k, tap), 1_000, 1);
        let mut dp = Some(h.start(&mut k));

        for _ in 0..2 {
            k.inject_fault(FaultKind::DatapathPanic, 0, 0, 0);
            h.poll(&mut dp, &mut k, 0, 0, 0);
            k.sim.clock.advance(10_000_000);
            h.poll(&mut dp, &mut k, 0, 0, 0);
        }
        assert_eq!(h.state, HealthState::Failed, "budget of 1 exhausted");
        assert!(dp.is_none(), "failed supervisor stays down");
        assert!(h.show(0).contains("budget exhausted"));
    }
}
