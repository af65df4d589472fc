//! The two-host NSX pair and one closed-loop round over it.

use std::time::Instant;

use crate::stats::Counters;
use crate::trace::Tracer;
use ovs_afxdp_repro::afxdp::OptLevel;
use ovs_afxdp_repro::kernel::GuestRole;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, Host, HostConfig, VmAttachment};
use ovs_afxdp_repro::obs::perf::STAGES;
use ovs_afxdp_repro::ovs::DpifNetdev;

/// Table 3's rule count, installed on each host.
pub const FULL_RULES: usize = 103_302;

/// Host 1 (the sending VM) and host 2 (the sink VM), wired back to back.
pub struct Pair {
    pub h1: Host,
    pub h2: Host,
    /// Guest index of the sending VM on host 1.
    pub sender: usize,
    /// Guest index of the receiving VM on host 2.
    pub sink: usize,
}

impl Pair {
    /// Build both hosts with Table 3's rule set each (AF_XDP O5 uplinks,
    /// vhostuser VMs) and peer their VTEPs.
    pub fn build() -> Pair {
        let dpk = DatapathKind::UserspaceAfxdp {
            opt: OptLevel::O5,
            interrupt_mode: false,
        };
        let mut c1 = HostConfig::nsx_default(1, dpk, VmAttachment::VhostUser);
        let mut c2 = HostConfig::nsx_default(2, dpk, VmAttachment::VhostUser);
        c1.nsx.target_rules = FULL_RULES;
        c2.nsx.target_rules = FULL_RULES;
        c2.guest_role = GuestRole::Sink;
        let mut h1 = Host::build(&c1);
        let mut h2 = Host::build(&c2);
        h1.peer(c2.vtep_ip, h2.uplink_mac());
        h2.peer(c1.vtep_ip, h1.uplink_mac());
        let sender = h1.guest_of_vif[0];
        let sink = h2.guest_of_vif[0];
        Pair {
            h1,
            h2,
            sender,
            sink,
        }
    }

    /// Offer `frames` from the sending VM and pump both hosts, shuttling
    /// the wire, until neither host moves anything. Leaf spans go into
    /// `tracer` when one is given. Returns the frames that crossed the
    /// wire from host 1 to host 2.
    pub fn round(&mut self, frames: Vec<Vec<u8>>, mut tracer: Option<&mut Tracer>) -> u64 {
        let mut wire_frames = 0;
        self.h1.kernel.guests[self.sender].tx_ring.extend(frames);
        for _ in 0..8 {
            let a = Instant::now();
            self.h1.pump();
            let b = Instant::now();
            let wire = self.h1.wire_take();
            wire_frames += wire.len() as u64;
            for f in wire {
                self.h2.wire_inject(f);
            }
            let c = Instant::now();
            self.h2.pump();
            let d = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("nsx.tx_host_pump", a, b);
                tr.record("kernel.wire_inject", b, c);
                tr.record("nsx.rx_host_pump", c, d);
            }
            // The sink never answers; anything host 2 sends back still
            // goes to host 1 so the loop only ends when both are quiet.
            let back = self.h2.wire_take();
            if back.is_empty() && self.h1.kernel.guests[self.sender].tx_ring.is_empty() {
                break;
            }
            for f in back {
                self.h1.wire_inject(f);
            }
        }
        wire_frames
    }

    /// Advance both hosts' virtual clocks.
    pub fn advance(&mut self, ns: u64) {
        self.h1.kernel.sim.clock.advance(ns);
        self.h2.kernel.sim.clock.advance(ns);
    }

    /// Frames the sink VM has received so far.
    pub fn sink_rx(&self) -> u64 {
        self.h2.kernel.guests[self.sink].rx_count
    }
}

/// The userspace datapath of a host built by [`Pair::build`].
pub fn dp(h: &Host) -> &DpifNetdev {
    h.dp.as_ref().expect("userspace host has a datapath")
}

/// Modeled stage names as metric fragments (`emc lookup` → `emc_lookup`).
pub fn stage_key(label: &str) -> String {
    label.replace([' ', '/'], "_")
}

/// The named drop counters each datapath keeps, as `(name, value)`.
pub fn named_drops(h: &Host) -> [(&'static str, u64); 12] {
    let s = dp(h).stats;
    [
        ("meter_drops", s.meter_drops),
        ("vhost_tx_drops", s.vhost_tx_drops),
        ("tx_full_drops", s.tx_full_drops),
        ("ct_limit_drops", s.ct_limit_drops),
        ("ct_full_drops", s.ct_full_drops),
        ("ct_invalid_drops", s.ct_invalid_drops),
        ("upcalls_gated", s.upcalls_gated),
        ("fail_secure_drop", s.fail_secure_drop),
        ("nf_ring_full", s.nf_ring_full),
        ("nf_verdict_drops", s.nf_verdict_drops),
        ("nf_crash_drops", s.nf_crash_drops),
        ("nf_fail_closed_drops", s.nf_fail_closed_drops),
    ]
}

/// One host's public counters, flattened for window diffs.
pub fn host_counters(h: &Host) -> Counters {
    let d = dp(h);
    let s = d.stats;
    let mut c = Counters::new();
    let mut put = |k: &str, v: u64| {
        c.insert(k.to_string(), v);
    };
    put("packets_processed", s.packets_processed);
    put("recirculations", s.recirculations);
    put("emc_hits", s.emc_hits);
    put("smc_hits", s.smc_hits);
    put("megaflow_hits", s.megaflow_hits);
    put("upcalls", s.upcalls);
    put("flows_installed", s.flows_installed);
    put("flow_limit_hits", s.flow_limit_hits);
    put("dropped", s.dropped);
    put("lane_steps", d.lane_steps());
    put("lane_keys", d.lane_keys());
    put("miniflow_expands", d.miniflow_stats.expands);
    put("ct_commits", d.ct.stats.commits);
    put("ct_expired", d.ct.stats.expired);
    for (name, v) in named_drops(h) {
        put(&format!("drop.{name}"), v);
    }
    let perf = d.perf.get(&h.switch_core).cloned().unwrap_or_default();
    for stage in STAGES {
        put(
            &format!("perf.{}", stage_key(stage.label())),
            perf.stage_ns(stage),
        );
    }
    put("perf.poll_ns", perf.poll_ns_total());
    c
}
