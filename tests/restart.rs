//! Hitless-restart & control-plane-outage tier-1 tests: restart at a
//! random point yields forwarding and accounting parity with the
//! no-restart control run once reconverged, and the `flow-restore/show`,
//! `fail-mode/show`, and `health/show` surfaces are pinned exactly
//! through a planned restart plus a controller outage.

use ovs_core::FailMode;
use ovs_nsx::ruleset::vm_udp_frame;
use ovs_nsx::topology::{DatapathKind, HostConfig, HostPair, VmAttachment};
use ovs_sim::FaultKind;
use ovs_tgen::scenarios::{counted_drops, run_restart_at};

use ovs_afxdp::OptLevel;
use proptest::prelude::*;

/// The small pair (400 rules) with a sink VM on host 2.
fn host_pair() -> HostPair {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_small(id, dpk, VmAttachment::VhostUser);
        cfg.nsx.target_rules = 400;
        if id == 2 {
            cfg.guest_role = ovs_kernel::GuestRole::Sink;
        }
        cfg
    })
}

// ----------------------------------------------------------------------
// (a) Restart at a random point ⇔ no-restart parity
// ----------------------------------------------------------------------

proptest! {
    /// A planned restart at any point of the soak must be *hitless*:
    /// once reconverged, the run delivers and accounts for exactly what
    /// the identical no-restart run does — `offered == delivered +
    /// counted drops` on both sides with the same totals — while
    /// packets demonstrably forwarded from restored megaflows during
    /// the upcall gate, nothing took the crash path, and every restored
    /// flow was reconciled (adopted or orphaned, none leaked).
    #[test]
    fn restart_at_random_point_matches_no_restart_run(
        seed in 0u64..1_000_000,
        restart_round in 30usize..120,
    ) {
        // Each case runs TWO full two-host soaks; with the vendored
        // runner's fixed 64 cases that is too heavy for an unoptimized
        // tier-1 pass, so keep roughly one case in eight.
        prop_assume!(seed % 8 == 0);

        let restarted = run_restart_at(seed, Some(restart_round));
        let control = run_restart_at(seed, None);

        prop_assert_eq!(restarted.unaccounted, 0, "{:#?}", restarted);
        prop_assert_eq!(control.unaccounted, 0, "{:#?}", control);
        prop_assert_eq!(restarted.frames_offered, control.frames_offered);
        prop_assert_eq!(
            restarted.delivered + restarted.counted_drops,
            control.delivered + control.counted_drops,
            "restart run must account for the same total: {:#?}",
            restarted
        );
        prop_assert_eq!(restarted.graceful_restarts, 1);
        prop_assert_eq!(restarted.crash_restarts, 0, "took the crash path");
        prop_assert!(restarted.restored_flows > 0, "{:#?}", restarted);
        prop_assert!(
            restarted.gated_forwarded > 0,
            "no packets forwarded from restored flows during the gate: {:#?}",
            restarted
        );
        prop_assert_eq!(
            restarted.adopted + restarted.orphaned,
            restarted.restored_flows,
            "reconciliation leaked restored flows: {:#?}",
            restarted
        );
        prop_assert!(restarted.forwarding_resumed, "{:#?}", restarted);
        prop_assert!(control.forwarding_resumed, "{:#?}", control);
        // The control run must see none of the restart machinery.
        prop_assert_eq!(control.graceful_restarts, 0);
        prop_assert_eq!(control.restored_flows, 0);
        prop_assert_eq!(control.gated_upcalls, 0);
    }
}

// ----------------------------------------------------------------------
// (b) Goldens: flow-restore/show, fail-mode/show, health/show
// ----------------------------------------------------------------------

const GOLDEN_RESTORE_WAITING: &str = "\
flow-restore: waiting (gate lifts at 0.004s)
  restored      : 3 flows, 1 conns (at 0.003s)
  gated upcalls : 0
  forwarded     : 96 packets from restored flows during gate
  reconciled    : 0 adopted, 0 orphaned, 3 pending
";
const GOLDEN_HEALTH_HITLESS: &str = "\
datapath health: running
  restarts      : 0/8 (next backoff 0.002s)
  crashes       : 0
  hitless       : 1 planned restarts
    0.002s snapshot 3 flows, 1 conns — resumed at 0.003s (+0.001s)
";
const GOLDEN_FAILMODE_DOWN: &str = "\
fail-mode: secure (controller disconnected (0 failed retries, next retry 0.003s))
  disconnects   : 1 (0 reconnects, 0 attempts)
  backoff       : 0.000s initial, 0.006s max
outages:
  down 0.003s — ongoing
";
const GOLDEN_FAILMODE_UP: &str = "\
fail-mode: secure (controller connected)
  disconnects   : 1 (1 reconnects, 5 attempts)
  backoff       : 0.000s initial, 0.006s max
outages:
  down 0.003s — up 0.006s (+0.003s)
";
const GOLDEN_RESTORE_COMPLETE: &str = "\
flow-restore: complete (gate lifted at 0.004s)
  restored      : 3 flows, 1 conns (at 0.003s)
  gated upcalls : 0
  forwarded     : 300 packets from restored flows during gate
  reconciled    : 1 adopted, 2 orphaned, 0 pending
";

/// One deterministic pass through the whole ladder: warm traffic, a
/// planned restart (snapshot → rebuild → flow-restore-wait), a
/// controller outage in `secure` mode spanning the gate, reconnect,
/// gate lift, reconciliation. Every appctl surface pinned exactly.
#[test]
fn golden_restart_and_outage_surfaces() {
    const ROUND_NS: u64 = 100_000;
    let mut pair = host_pair();
    pair.h1.enable_supervision(2_000_000, 8);
    pair.h1
        .health
        .as_mut()
        .unwrap()
        .set_restart_policy(500_000, 2_000_000);
    pair.h1.connect_controller(FailMode::Secure);
    let sender = pair.h1.guest_of_vif[0];
    let send_round = |pair: &mut HostPair| {
        for _ in 0..4 {
            pair.h1.kernel.guests[sender]
                .tx_ring
                .push_back(vm_udp_frame(1, 2));
        }
        pair.shuttle();
    };

    // Warm: one steady flow across 20 rounds.
    for _ in 0..20 {
        send_round(&mut pair);
        pair.advance(ROUND_NS);
    }

    // Planned restart; pump through the 0.5 ms rebuild window.
    pair.h1
        .kernel
        .inject_fault(FaultKind::DaemonRestart, 0, 0, 0);
    for _ in 0..8 {
        send_round(&mut pair);
        pair.advance(ROUND_NS);
    }
    let show = pair.h1.appctl("flow-restore/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_RESTORE_WAITING,
        "flow-restore/show golden drifted:\n{show}"
    );
    let show = pair.h1.appctl("health/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_HEALTH_HITLESS,
        "health/show golden drifted:\n{show}"
    );

    // Controller outage opens mid-gate; secure mode holds the line.
    pair.h1
        .kernel
        .inject_fault(FaultKind::ControllerDisconnect, 0, 0, 2_000_000);
    pair.shuttle();
    let show = pair.h1.appctl("fail-mode/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_FAILMODE_DOWN,
        "fail-mode/show golden drifted:\n{show}"
    );

    // Ride out the outage and the gate; reconcile restored flows.
    for _ in 0..40 {
        send_round(&mut pair);
        pair.h1.revalidate();
        pair.advance(ROUND_NS);
    }
    let h1 = &mut pair.h1;
    assert!(h1.controller.as_ref().unwrap().is_connected());
    let show = h1.appctl("fail-mode/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_FAILMODE_UP,
        "fail-mode/show golden drifted:\n{show}"
    );
    let show = h1.appctl("flow-restore/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_RESTORE_COMPLETE,
        "flow-restore/show golden drifted:\n{show}"
    );

    let dp = h1.dp.as_ref().unwrap();
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
    assert_eq!(dp.restored_count(), 0, "restored flows all reconciled");

    // The ledger holds across the whole ladder (every drop named).
    let offered = (20 + 8 + 40) * 4u64;
    let sink = pair.h2.guest_of_vif[0];
    let delivered = pair.h2.kernel.guests[sink].rx_count;
    let (_, counted) = counted_drops();
    assert_eq!(
        offered as i64 - delivered as i64 - counted as i64,
        0,
        "offered {offered}, delivered {delivered}, counted {counted}"
    );
}
