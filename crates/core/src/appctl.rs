//! The `ovs-appctl` dispatch surface.
//!
//! One entry point, [`dispatch`], maps command strings to the
//! observability handlers the rest of the crate exposes — the same wire
//! a real `ovs-appctl` invocation rides over the vswitchd unixctl
//! socket. The paper's §6 "easier troubleshooting" lesson is that moving
//! the datapath to userspace makes this surface the *primary* window
//! into the fast path; this module is that window.

use crate::controller::{ControllerSession, FailMode};
use crate::dpif::{DpifNetdev, PortNo};
use crate::health::HealthMonitor;
use crate::pmd::PmdSet;
use ovs_kernel::Kernel;
use ovs_sim::FaultKind;

/// Commands understood by [`dispatch`], one per line.
pub const COMMANDS: &[&str] = &[
    "coverage/show",
    "dpif-netdev/pmd-perf-show",
    "dpif-netdev/pmd-stats-show",
    "dpif-netdev/pmd-stats-clear",
    "dpif-netdev/latency-show",
    "dpif-netdev/latency-hist",
    "dpif-netdev/pmd-rxq-show",
    "dpif-netdev/pmd-rxq-rebalance",
    "dpif-netdev/pmd-auto-lb-show",
    "dpif-netdev/port-status",
    "dpif-netdev/subtable-ranking",
    "dpif-netdev/miniflow-stats",
    "dpif-netdev/emc-insert-inv-prob",
    "dpif-netdev/smc-enable",
    "dpctl/dump-flows",
    "dpctl/ct-dump",
    "dpctl/ct-stats",
    "ct/flush",
    "fault/inject",
    "fault/show",
    "health/show",
    "flow-restore/show",
    "flow-restore/complete",
    "fail-mode/show",
    "fail-mode/set",
    "nfv/show",
    "nfv/chain-show",
    "nfv/stats",
    "ofproto/trace",
    "upcall/show",
    "revalidator/wait",
    "list-commands",
];

/// Run one appctl command against a datapath. `args` are the
/// space-separated operands after the command name.
///
/// `ofproto/trace` takes `in_port=<N> <hex frame>`: the frame (hex, no
/// separators) is injected on port `N` and the rendered trace returned.
pub fn dispatch(
    dpif: &mut DpifNetdev,
    kernel: &mut Kernel,
    cmd: &str,
    args: &[&str],
) -> Result<String, String> {
    dispatch_ctl(dpif, kernel, None, None, None, cmd, args)
}

/// The full dispatch surface: health supervisor plus the PMD scheduler,
/// so the `dpif-netdev/pmd-rxq-*` and `pmd-auto-lb-*` commands can
/// inspect and rebalance the rxq→PMD assignment.
pub fn dispatch_full(
    dpif: &mut DpifNetdev,
    kernel: &mut Kernel,
    health: Option<&HealthMonitor>,
    pmds: Option<&mut PmdSet>,
    cmd: &str,
    args: &[&str],
) -> Result<String, String> {
    dispatch_ctl(dpif, kernel, health, pmds, None, cmd, args)
}

/// [`dispatch_full`] plus the controller session, so the `fail-mode/*`
/// commands can inspect and steer the fail-mode ladder. Deployments
/// without a controller (`None`) get a clear refusal instead of silence.
pub fn dispatch_ctl(
    dpif: &mut DpifNetdev,
    kernel: &mut Kernel,
    health: Option<&HealthMonitor>,
    mut pmds: Option<&mut PmdSet>,
    controller: Option<&mut ControllerSession>,
    cmd: &str,
    args: &[&str],
) -> Result<String, String> {
    const NO_PMDS: &str = "no PMD scheduler attached (datapath is driven directly)";
    const NO_CTL: &str = "no controller session (datapath is not controller-managed)";
    match cmd {
        "fail-mode/show" => match controller {
            Some(c) => Ok(c.show()),
            None => Err(NO_CTL.to_string()),
        },
        // `fail-mode/set standalone|secure` — refused mid-outage.
        "fail-mode/set" => match controller {
            Some(c) => {
                let usage = "usage: fail-mode/set standalone|secure";
                let [mode] = args else {
                    return Err(usage.to_string());
                };
                let mode = FailMode::parse(mode).ok_or_else(|| usage.to_string())?;
                c.set_mode(mode)?;
                Ok(format!("fail-mode set to {}\n", mode.label()))
            }
            None => Err(NO_CTL.to_string()),
        },
        "dpif-netdev/pmd-rxq-show" => match pmds {
            Some(p) => Ok(p.pmd_rxq_show(dpif)),
            None => Err(NO_PMDS.to_string()),
        },
        "dpif-netdev/pmd-rxq-rebalance" => match pmds.as_deref_mut() {
            Some(p) => {
                p.rebalance();
                Ok(format!(
                    "rxq assignment rebalanced ({} policy)\n{}",
                    p.policy().label(),
                    p.pmd_rxq_show(dpif)
                ))
            }
            None => Err(NO_PMDS.to_string()),
        },
        "dpif-netdev/pmd-auto-lb-show" => match pmds {
            Some(p) => Ok(p.pmd_auto_lb_show()),
            None => Err(NO_PMDS.to_string()),
        },
        // `nfv/chain-show <tenant>` wants the scheduler (to render which
        // PMD polls each NF), but degrades to "unassigned" without one.
        "nfv/chain-show" => {
            let usage = "usage: nfv/chain-show <tenant>";
            let [tenant] = args else {
                return Err(usage.to_string());
            };
            let tenant: u32 = tenant.parse().map_err(|_| usage.to_string())?;
            let pmds = pmds.as_deref();
            Ok(dpif.nfv.chain_show(tenant, &|nf| {
                pmds.and_then(|p| {
                    p.core_of(crate::pmd::RxqId::new(
                        crate::dpif::NF_WORK_PORT,
                        nf as usize,
                    ))
                })
            }))
        }
        _ => dispatch_inner(dpif, kernel, health, cmd, args),
    }
}

fn dispatch_inner(
    dpif: &mut DpifNetdev,
    kernel: &mut Kernel,
    health: Option<&HealthMonitor>,
    cmd: &str,
    args: &[&str],
) -> Result<String, String> {
    match cmd {
        "coverage/show" => Ok(ovs_obs::coverage::show()),
        "dpif-netdev/port-status" => Ok(dpif.port_status(kernel)),
        // `dpctl/ct-dump [zone=<N>]`: list tracked connections.
        "dpctl/ct-dump" => {
            let zone = match args {
                [] => None,
                [z] => Some(parse_zone(z)?),
                _ => return Err("usage: dpctl/ct-dump [zone=<N>]".to_string()),
            };
            Ok(dpif.ct.dump(zone, kernel.sim.clock.now_ns()))
        }
        "dpctl/ct-stats" => Ok(dpif.ct.stats_show()),
        // `ct/flush [zone=<N>]`: drop tracked connections.
        "ct/flush" => {
            let zone = match args {
                [] => None,
                [z] => Some(parse_zone(z)?),
                _ => return Err("usage: ct/flush [zone=<N>]".to_string()),
            };
            let removed = dpif.ct.flush(zone);
            match zone {
                Some(z) => Ok(format!("{removed} connection(s) flushed from zone {z}\n")),
                None => Ok(format!("{removed} connection(s) flushed\n")),
            }
        }
        // `fault/inject <kind> [target] [arg] [duration_ms]`: arm a fault
        // right now, applying kernel-side effects immediately.
        "fault/inject" => {
            let usage = "usage: fault/inject <kind> [target] [arg] [duration_ms]";
            let [kind, rest @ ..] = args else {
                return Err(usage.to_string());
            };
            let kind = FaultKind::parse(kind).ok_or_else(|| {
                let all: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
                format!("unknown fault kind \"{kind}\" (one of: {})", all.join(", "))
            })?;
            let num = |i: usize| -> Result<u64, String> {
                rest.get(i)
                    .map(|s| s.parse::<u64>().map_err(|_| usage.to_string()))
                    .unwrap_or(Ok(0))
            };
            let target = num(0)? as u32;
            let arg = num(1)? as u32;
            let duration_ns = num(2)?.saturating_mul(1_000_000);
            kernel.inject_fault(kind, target, arg, duration_ns);
            Ok(format!(
                "injected {} target {target} arg {arg} duration {}ms\n",
                kind.label(),
                duration_ns / 1_000_000
            ))
        }
        "fault/show" => Ok(kernel.sim.faults.show(kernel.sim.clock.now_ns())),
        "health/show" => Ok(match health {
            Some(h) => h.show(kernel.sim.clock.now_ns()),
            None => "datapath health: unsupervised (no health monitor)\n".to_string(),
        }),
        // Restore-gate state: what was restored, what the gate dropped,
        // and how reconciliation is going.
        "flow-restore/show" => Ok(dpif.flow_restore_show()),
        // Lift the `flow-restore-wait` gate now instead of waiting for
        // the deadline (the rule table has been repopulated early).
        "flow-restore/complete" => {
            if !dpif.restore.wait {
                return Err("flow-restore-wait is not active".to_string());
            }
            dpif.flow_restore_complete(kernel.sim.clock.now_ns());
            Ok("flow-restore-wait gate lifted\n".to_string())
        }
        // `-hist` extends the cycle attribution with the per-stage
        // latency contribution (satellite of the latency pipeline).
        "dpif-netdev/pmd-perf-show" => {
            Ok(dpif.pmd_perf_show(kernel.sim.cpus.hz, args.first().copied() == Some("-hist")))
        }
        "dpif-netdev/latency-show" => Ok(dpif.latency_show()),
        "dpif-netdev/latency-hist" => Ok(dpif.latency_hist()),
        "dpif-netdev/pmd-stats-show" => Ok(dpif.pmd_stats()),
        "dpif-netdev/pmd-stats-clear" => {
            dpif.pmd_stats_clear();
            Ok("statistics cleared\n".to_string())
        }
        // The dpcls subtable probe order with per-subtable hit counts.
        "dpif-netdev/subtable-ranking" => Ok(dpif.subtable_ranking_show()),
        // Sparse-key shape: populated-slot histogram, expansion count,
        // and wide-lane bulk dpcls occupancy.
        "dpif-netdev/miniflow-stats" => Ok(dpif.miniflow_stats_show()),
        // Get/set `other_config:emc-insert-inv-prob` (no operand reads
        // the current value; 0 disables EMC insertion).
        "dpif-netdev/emc-insert-inv-prob" => match args {
            [] => Ok(format!(
                "emc-insert-inv-prob: {}\n",
                dpif.emc_insert_inv_prob()
            )),
            [p] => {
                let p: u64 = p
                    .parse()
                    .map_err(|_| "usage: dpif-netdev/emc-insert-inv-prob [N]".to_string())?;
                dpif.set_emc_insert_inv_prob(p);
                Ok(format!("emc-insert-inv-prob set to {p}\n"))
            }
            _ => Err("usage: dpif-netdev/emc-insert-inv-prob [N]".to_string()),
        },
        // Get/toggle `other_config:smc-enable`.
        "dpif-netdev/smc-enable" => match args {
            [] => Ok(format!(
                "smc-enable: {} ({} entries)\n",
                if dpif.smc_enable { "true" } else { "false" },
                dpif.smc_count()
            )),
            ["on" | "true"] => {
                dpif.smc_enable = true;
                Ok("smc-enable set to true\n".to_string())
            }
            ["off" | "false"] => {
                dpif.smc_enable = false;
                Ok("smc-enable set to false\n".to_string())
            }
            _ => Err("usage: dpif-netdev/smc-enable [on|off]".to_string()),
        },
        // `dpctl/dump-flows` dumps the userspace datapath; with the
        // `system` operand it dumps the in-kernel module's table instead
        // (the `system@ovs-system` datapath in OVS terms).
        "dpctl/dump-flows" => match args {
            ["system", ..] => Ok(kernel.ovs.dump_flows(kernel.sim.clock.now_ns())),
            _ => Ok(dpif.dump_flows(kernel.sim.clock.now_ns())),
        },
        // The NF manager surfaces (ovs-nfv): per-NF state and counters,
        // and subsystem totals with the mempool reuse stats.
        "nfv/show" => Ok(dpif.nfv.show()),
        "nfv/stats" => Ok(dpif.nfv.stats_show()),
        // Flow counts against the dynamic flow limit, dump duration, and
        // sweep totals — `ovs-appctl upcall/show`.
        "upcall/show" => Ok(dpif.upcall_show()),
        // Run one synchronous revalidator sweep and report what it did —
        // the blocking analogue of `ovs-appctl revalidator/wait`.
        "revalidator/wait" => {
            let s = dpif.revalidate(kernel, 0);
            Ok(format!(
                "revalidation complete: {} flows dumped, {} deleted \
                 ({} idle, {} hard, {} changed, {} evicted), \
                 flow limit {}, dump duration {}ms\n",
                s.dumped,
                s.deleted(),
                s.deleted_idle,
                s.deleted_hard,
                s.deleted_changed,
                s.evicted,
                s.flow_limit,
                s.dump_duration_ms,
            ))
        }
        "ofproto/trace" => {
            let usage = "usage: ofproto/trace in_port=<N> <hex frame>";
            let [port_arg, hex] = args else {
                return Err(usage.to_string());
            };
            let in_port: PortNo = port_arg
                .strip_prefix("in_port=")
                .unwrap_or(port_arg)
                .parse()
                .map_err(|_| usage.to_string())?;
            let frame = parse_hex(hex).ok_or_else(|| usage.to_string())?;
            Ok(dpif.ofproto_trace(kernel, &frame, in_port, 0))
        }
        "list-commands" => {
            let mut out = String::new();
            for c in COMMANDS {
                out.push_str(c);
                out.push('\n');
            }
            Ok(out)
        }
        other => Err(format!("\"{other}\" is not a valid command")),
    }
}

/// A zone operand: `zone=<N>` or a bare number.
fn parse_zone(s: &str) -> Result<u16, String> {
    let digits = s.strip_prefix("zone=").unwrap_or(s);
    digits
        .parse::<u16>()
        .map_err(|_| format!("\"{s}\" is not a zone (expected zone=<N>)"))
}

fn parse_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_is_an_error() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let err = dispatch(&mut dpif, &mut kernel, "no/such", &[]).unwrap_err();
        assert!(err.contains("not a valid command"), "{err}");
    }

    #[test]
    fn list_commands_lists_everything() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(&mut dpif, &mut kernel, "list-commands", &[]).unwrap();
        for c in COMMANDS {
            assert!(out.contains(c), "missing {c}");
        }
    }

    #[test]
    fn coverage_show_and_stats_clear_round_trip() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        ovs_obs::coverage::reset();
        ovs_obs::coverage!("appctl_test_evt");
        let out = dispatch(&mut dpif, &mut kernel, "coverage/show", &[]).unwrap();
        assert!(out.contains("appctl_test_evt"), "{out}");
        let out = dispatch(&mut dpif, &mut kernel, "dpif-netdev/pmd-stats-clear", &[]).unwrap();
        assert!(out.contains("cleared"));
        ovs_obs::coverage::reset();
    }

    #[test]
    fn trace_usage_errors() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        assert!(dispatch(&mut dpif, &mut kernel, "ofproto/trace", &[]).is_err());
        assert!(dispatch(
            &mut dpif,
            &mut kernel,
            "ofproto/trace",
            &["in_port=0", "zz"]
        )
        .is_err());
    }

    #[test]
    fn emc_insert_inv_prob_get_set() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(
            &mut dpif,
            &mut kernel,
            "dpif-netdev/emc-insert-inv-prob",
            &[],
        )
        .unwrap();
        assert!(out.contains("100"), "default inv prob: {out}");
        let out = dispatch(
            &mut dpif,
            &mut kernel,
            "dpif-netdev/emc-insert-inv-prob",
            &["1"],
        )
        .unwrap();
        assert!(out.contains("set to 1"), "{out}");
        assert_eq!(dpif.emc_insert_inv_prob(), 1);
        assert!(dispatch(
            &mut dpif,
            &mut kernel,
            "dpif-netdev/emc-insert-inv-prob",
            &["nope"]
        )
        .is_err());
    }

    #[test]
    fn smc_enable_toggle() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(&mut dpif, &mut kernel, "dpif-netdev/smc-enable", &[]).unwrap();
        assert!(out.contains("false"), "off by default: {out}");
        dispatch(&mut dpif, &mut kernel, "dpif-netdev/smc-enable", &["on"]).unwrap();
        assert!(dpif.smc_enable);
        dispatch(&mut dpif, &mut kernel, "dpif-netdev/smc-enable", &["off"]).unwrap();
        assert!(!dpif.smc_enable);
        assert!(dispatch(&mut dpif, &mut kernel, "dpif-netdev/smc-enable", &["maybe"]).is_err());
    }

    #[test]
    fn subtable_ranking_renders() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(&mut dpif, &mut kernel, "dpif-netdev/subtable-ranking", &[]).unwrap();
        assert!(out.contains("0 subtables"), "{out}");
    }

    #[test]
    fn miniflow_stats_renders() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(&mut dpif, &mut kernel, "dpif-netdev/miniflow-stats", &[]).unwrap();
        assert!(out.contains("miniflow stats:"), "{out}");
        assert!(out.contains("bulk dpcls:"), "{out}");
    }

    #[test]
    fn flow_restore_and_fail_mode_commands() {
        let mut dpif = DpifNetdev::new();
        let mut kernel = Kernel::new(1);
        let out = dispatch(&mut dpif, &mut kernel, "flow-restore/show", &[]).unwrap();
        assert!(out.contains("idle"), "{out}");
        let err = dispatch(&mut dpif, &mut kernel, "flow-restore/complete", &[]).unwrap_err();
        assert!(err.contains("not active"), "{err}");
        let err = dispatch(&mut dpif, &mut kernel, "fail-mode/show", &[]).unwrap_err();
        assert!(err.contains("no controller session"), "{err}");

        let mut ctl = ControllerSession::new(FailMode::Secure, crate::ofproto::Ofproto::new(), 0);
        let out = dispatch_ctl(
            &mut dpif,
            &mut kernel,
            None,
            None,
            Some(&mut ctl),
            "fail-mode/show",
            &[],
        )
        .unwrap();
        assert!(out.contains("fail-mode: secure"), "{out}");
        let out = dispatch_ctl(
            &mut dpif,
            &mut kernel,
            None,
            None,
            Some(&mut ctl),
            "fail-mode/set",
            &["standalone"],
        )
        .unwrap();
        assert!(out.contains("set to standalone"), "{out}");
        assert_eq!(ctl.fail_mode, FailMode::Standalone);
        assert!(dispatch_ctl(
            &mut dpif,
            &mut kernel,
            None,
            None,
            Some(&mut ctl),
            "fail-mode/set",
            &["open"],
        )
        .is_err());
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(parse_hex("0aff"), Some(vec![0x0a, 0xff]));
        assert_eq!(parse_hex("0af"), None);
        assert_eq!(parse_hex("zz"), None);
        assert_eq!(parse_hex(""), Some(vec![]));
    }
}
