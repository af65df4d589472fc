//! Datapath state snapshot/restore — the hitless-restart substrate.
//!
//! The deployments the paper studies survive daemon upgrades because the
//! datapath keeps forwarding while the userspace process restarts and
//! re-adopts its flows (`ovs-vswitchd`'s `flow-restore-wait` +
//! `ofctl replace-flows` dance). This module is the in-memory analogue:
//! a versioned [`DpSnapshot`] serializes every installed megaflow — key,
//! mask, actions, hit counters, and the ukey pushback high-water marks —
//! plus every tracked conntrack connection, so a rebuilt
//! [`crate::dpif::DpifNetdev`] can resume forwarding *from the restored
//! megaflows* while upcalls are gated ([`RestoreState`]) and the
//! revalidator reconciles each flow against the repopulated rule table
//! (adopt or orphan, bounded per sweep).
//!
//! Invariants the restart window must preserve:
//! - **Ledger**: `offered == delivered + Σ(drops)` at every virtual-clock
//!   instant. Gated upcalls drop with the named `upcalls_gated` counter,
//!   never silently.
//! - **Stats pushback resumes exactly**: the snapshot pushes outstanding
//!   stats to the old rules first, carries `pushed_*` into the restored
//!   ukey, and the first post-adoption push credits the new rules
//!   precisely the packets forwarded since the snapshot.
//! - **Determinism**: flows and connections are sorted by key hash, so
//!   the same run produces a byte-identical snapshot.

use crate::dpif::DpAction;
use ovs_ct::{Conn, ConnKey};
use ovs_packet::{FlowKey, FlowMask};

/// Bumped whenever [`FlowRecord`]/[`DpSnapshot`] change shape; restore
/// refuses snapshots from a different layout generation.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One installed megaflow, serialized.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Masked key — the datapath flow's identity. Restore recomputes the
    /// flow's UFID from it: a UFID is keyed by a per-process secret, so a
    /// snapshot that carried one would neither repeat nor restore.
    pub key: FlowKey,
    /// The wildcard mask it was installed under.
    pub mask: FlowMask,
    /// Datapath actions, re-executed verbatim until reconciliation.
    pub actions: Vec<DpAction>,
    /// Lifetime hit counter at snapshot time.
    pub hits: u64,
    /// Lifetime byte counter at snapshot time.
    pub bytes: u64,
    /// Sim-time of the last hit.
    pub used_ns: u64,
    /// Sim-time of installation (hard-timeout base survives restart).
    pub created_ns: u64,
    /// Ukey pushback high-water marks (equal to `hits`/`bytes` after the
    /// pre-snapshot stats flush; kept separate for forward compatibility).
    pub pushed_packets: u64,
    pub pushed_bytes: u64,
}

/// A complete, versioned datapath state capture: every installed
/// megaflow and every tracked connection, deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct DpSnapshot {
    pub version: u32,
    /// Virtual-clock instant of the capture.
    pub taken_at_ns: u64,
    pub flows: Vec<FlowRecord>,
    pub conns: Vec<(ConnKey, Conn)>,
}

impl DpSnapshot {
    /// Rough in-memory footprint stand-in (record counts); what a wire
    /// format would size itself by.
    pub fn len(&self) -> usize {
        self.flows.len() + self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flows.is_empty() && self.conns.is_empty()
    }
}

/// How many restored flows one revalidator sweep may reconcile
/// (translate + adopt/orphan). Bounds the per-sweep slow-path work so
/// reconvergence never starves the fast path — exactly the reasoning
/// behind OVS's bounded revalidator dumps.
pub const RECONCILE_BUDGET_PER_SWEEP: usize = 256;

/// Live `flow-restore-wait` state riding inside the datapath.
#[derive(Debug, Clone, Default)]
pub struct RestoreState {
    /// While set, megaflow misses are gated (dropped with the
    /// `upcalls_gated` counter) instead of upcalled: the rule table is
    /// still being repopulated, so translations would be wrong, and the
    /// whole point is that restored megaflows keep forwarding.
    pub wait: bool,
    /// The gate lifts itself at this instant even if nobody calls
    /// `flow-restore/complete` (a crashed restorer must not wedge the
    /// slow path forever).
    pub gate_until_ns: u64,
    /// Virtual-clock instant of the restore.
    pub restored_at_ns: u64,
    /// Megaflows re-installed from the snapshot.
    pub restored_flows: u64,
    /// Conntrack entries re-inserted from the snapshot.
    pub restored_conns: u64,
    /// Cache-tier hits (EMC+SMC+dpcls) at restore time; the delta at
    /// gate-completion is the packets forwarded from restored flows
    /// while upcalls were gated — the hitless-restart proof.
    pub hits_at_restore: u64,
    /// Packets forwarded from restored megaflows during the gate window
    /// (finalized when the gate completes).
    pub gated_forwarded: u64,
    /// When the gate lifted; `None` while waiting or if never restored.
    pub completed_at_ns: Option<u64>,
    /// Per-sweep reconciliation bound.
    pub reconcile_budget: usize,
}

impl RestoreState {
    /// Fresh gate state for a restore at `now_ns`.
    pub fn begin(now_ns: u64, gate_ns: u64) -> Self {
        Self {
            wait: true,
            gate_until_ns: now_ns.saturating_add(gate_ns),
            restored_at_ns: now_ns,
            reconcile_budget: RECONCILE_BUDGET_PER_SWEEP,
            ..Default::default()
        }
    }

    /// Whether a restore ever happened (gate active or already lifted).
    pub fn active_or_done(&self) -> bool {
        self.wait || self.completed_at_ns.is_some() || self.restored_flows > 0
    }
}
