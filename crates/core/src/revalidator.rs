//! The udpif revalidator: megaflow lifecycle management.
//!
//! Datapath flows are a cache, and a cache needs an eviction policy. OVS
//! runs dedicated *revalidator* threads (`ofproto/ofproto-dpif-upcall.c`)
//! that periodically dump every datapath flow together with its stats,
//! delete flows that are idle, past their hard age, or whose translation
//! changed, and push the accumulated `n_packets`/`n_bytes` back up into
//! the OpenFlow rules that produced them (`xlate_push_stats`) so
//! `ovs-ofctl dump-flows` reports live counters. A flow is re-translated
//! only when the OpenFlow tables changed since it was last checked: each
//! ukey records the [`Ofproto::version`](crate::ofproto::Ofproto::version)
//! its translation was checked against (OVS's `ukey->reval_seq`), so a
//! steady-state sweep costs a dump.
//!
//! The table size is governed by a **dynamic flow limit**: if one dump
//! pass takes too long the limit shrinks (the datapath holds more flows
//! than the revalidators can keep honest), and while the table is over
//! the limit the idle timeout collapses to 100 ms — OVS's
//! `udpif_revalidator` algorithm verbatim. This is also the defence the
//! Tuple Space Explosion attack (Csikor et al., PAPERS.md) runs into:
//! an attacker can force per-flow megaflows, but the table stays bounded
//! by the limit, trading upcalls for memory instead of collapsing.
//!
//! This module holds the dpif-independent policy and the one revalidation
//! pass. What the revalidator keeps per flow, the [`Ukey`] (rule refs,
//! pushback marks and checked table version), lives in the flow's own
//! record, so the [`Revalidator`] holds only the flow-limit algorithm, the
//! counters and the pass: [`Revalidator::begin_sweep`], the per-flow step
//! [`Revalidator::revalidate_flow`] (one flow as its driver's dump returns
//! it, a [`DumpedFlow`], in; a [`Verdict`] out), LRU eviction
//! ([`Revalidator::evict`], which returns its victims) and
//! [`Revalidator::end_sweep`]. Each driver deletes through its own one
//! delete function, which pushes the flow's residual stats. Three drivers
//! run the pass over their own flows with their own re-translation:
//! [`DpifNetdev::revalidate`](crate::dpif::DpifNetdev::revalidate) (the
//! megaflow cache, plus restore reconciliation, cache purge, conntrack
//! expiry and the virtual-clock charges),
//! [`DpifNetdev::revalidate_changed`](crate::dpif::DpifNetdev::revalidate_changed)
//! (the same step with the timeouts off, uncharged, on every `flow_mod`)
//! and [`DpifNetlink::revalidate`](crate::dpif::DpifNetlink::revalidate)
//! (the kernel flow table, over the flows the dpif installed).

use crate::ofproto::RuleEntry;
use ovs_obs::coverage;
use ovs_packet::{FlowKey, FlowMask};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::rc::Rc;
use std::sync::OnceLock;

/// A datapath flow's unique flow ID (OVS's UFID): a keyed 128-bit hash of
/// its masked key, computed once when the flow is installed. The megaflow
/// cache's index and the kernel dpif's flows are found by it, so a sweep
/// never hashes a 96-byte key. The hash key is a secret drawn once per
/// process, as OVS seeds `dpif_flow_hash`: packets cannot be crafted to
/// collide in the maps keyed by it, and a UFID differs between runs, so
/// it never reaches output or a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ufid(u128);

impl Ufid {
    /// The UFID of the flow installed under the masked key `masked`.
    pub fn of(masked: &FlowKey) -> Self {
        static SECRET: OnceLock<[RandomState; 2]> = OnceLock::new();
        let [hi, lo] = SECRET.get_or_init(|| [RandomState::new(), RandomState::new()]);
        Self(u128::from(hi.hash_one(masked)) << 64 | u128::from(lo.hash_one(masked)))
    }
}

impl Hash for Ufid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0 as u64);
    }
}

/// Hashes a [`Ufid`] as its low 64 bits, unchanged: a UFID is already a
/// keyed hash, so mixing it again would buy no protection.
#[derive(Debug, Default)]
pub(crate) struct UfidHasher(u64);

impl Hasher for UfidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("UfidHasher hashes only a Ufid");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A map keyed by [`Ufid`], hashed with [`UfidHasher`].
pub(crate) type UfidMap<V> = HashMap<Ufid, V, BuildHasherDefault<UfidHasher>>;

/// Revalidation tunables. Defaults mirror OVS: 10 s idle timeout
/// (`ofproto_max_idle`), 200k flow ceiling (`ofproto_flow_limit`), and
/// a 100 ms idle timeout while over the limit.
#[derive(Debug, Clone)]
pub struct RevalidatorConfig {
    /// Delete flows unused for this long (ms).
    pub max_idle_ms: u64,
    /// Delete flows older than this regardless of use (ms); 0 disables.
    pub hard_timeout_ms: u64,
    /// The flow limit never adjusts below this.
    pub flow_limit_min: usize,
    /// The flow limit never adjusts above this (`ofproto_flow_limit`).
    pub flow_limit_max: usize,
    /// Idle timeout while the table is over the flow limit (ms).
    pub overload_idle_ms: u64,
}

impl Default for RevalidatorConfig {
    fn default() -> Self {
        Self {
            max_idle_ms: 10_000,
            hard_timeout_ms: 0,
            flow_limit_min: 1_000,
            flow_limit_max: 200_000,
            overload_idle_ms: 100,
        }
    }
}

/// What the revalidator keeps per installed datapath flow — OVS's
/// `udpif_key` — in the flow's own record: a
/// [`MegaflowEntry`](crate::cache::MegaflowEntry), or a kernel flow the
/// kernel dpif installed. It holds only what the revalidator owns: the
/// flow's key, mask, actions and counters are the datapath's, and a sweep
/// reads them from its dump ([`DumpedFlow`]). Stats pushback is
/// incremental: `pushed_*` remember how much of the flow's counters have
/// already been credited to `rules`. The default ukey has no rule refs
/// and no checked version, as a restored one before adoption.
#[derive(Debug, Default)]
pub struct Ukey {
    /// Every OpenFlow rule the original translation matched; each gets
    /// credited with every packet the flow forwards (the xlate cache).
    pub rules: Vec<Rc<RuleEntry>>,
    /// Packets already pushed to `rules`.
    pub pushed_packets: u64,
    /// Bytes already pushed to `rules`.
    pub pushed_bytes: u64,
    /// The [`Ofproto::version`](crate::ofproto::Ofproto::version) this
    /// flow's translation was last checked against; a sweep at that
    /// version keeps the flow without re-translating it. `None` for a
    /// flow re-created from a [`crate::snapshot::DpSnapshot`] whose rule
    /// refs have not been re-resolved yet: it has no rules, so stats
    /// pushback is held back (not silently consumed) until the
    /// reconciliation sweep adopts or orphans the flow.
    pub version: Option<u64>,
}

impl Ukey {
    /// A ukey for a flow translated against tables at `version`.
    pub fn new(rules: Vec<Rc<RuleEntry>>, version: u64) -> Self {
        Self {
            rules,
            pushed_packets: 0,
            pushed_bytes: 0,
            version: Some(version),
        }
    }

    /// A ukey rebuilt from a snapshot: no live rule refs yet, and the
    /// pushback high-water marks carried over so that once the flow is
    /// adopted, the fresh rules are credited exactly the packets
    /// forwarded *since* the snapshot — stats pushback resumes exactly.
    pub fn restored(pushed_packets: u64, pushed_bytes: u64) -> Self {
        Self {
            pushed_packets,
            pushed_bytes,
            ..Self::default()
        }
    }

    /// Whether this flow still awaits reconciliation after a restore.
    pub fn is_restored(&self) -> bool {
        self.version.is_none()
    }

    /// Adopt a restored flow: attach the rule refs freshly re-translated
    /// against tables at `version` and record that version, re-enabling
    /// stats pushback. The next [`push`](Self::push) credits exactly the
    /// packets forwarded since the snapshot was taken.
    pub(crate) fn adopt(&mut self, rules: Vec<Rc<RuleEntry>>, version: u64) {
        self.rules = rules;
        self.version = Some(version);
    }

    /// Credit the delta between the flow's current counters and what was
    /// already pushed to every rule on the flow's translation path,
    /// remember the new high-water marks, and add the delta to `stats`.
    /// Returns the (packets, bytes) delta pushed. A restored flow pushes
    /// nothing until it is adopted.
    pub(crate) fn push(&mut self, stats: &mut RevalStats, packets: u64, bytes: u64) -> (u64, u64) {
        if self.is_restored() {
            // No rule refs yet: crediting would silently swallow the
            // delta. Hold it until the reconciliation sweep adopts the
            // flow (or drops it as an orphan).
            return (0, 0);
        }
        let dp = packets.saturating_sub(self.pushed_packets);
        let db = bytes.saturating_sub(self.pushed_bytes);
        if dp != 0 || db != 0 {
            for r in &self.rules {
                r.credit(dp, db);
            }
            self.pushed_packets = packets;
            self.pushed_bytes = bytes;
            stats.pushed_packets += dp;
            stats.pushed_bytes += db;
        }
        (dp, db)
    }
}

/// Why the sweep removed a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteReason {
    /// Unused past the (effective) idle timeout.
    Idle,
    /// Older than the hard timeout.
    Hard,
    /// Re-translation produced different actions or mask.
    Changed,
    /// Evicted to get back under the flow limit.
    Evicted,
}

/// What the per-flow step decided for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep the flow.
    Keep,
    /// A restored flow: the driver's reconciliation adopts or orphans it.
    Reconcile,
    /// Delete the flow; the pass has counted it.
    Delete,
}

/// Lifetime accounting across sweeps (rendered by `upcall/show`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RevalStats {
    /// Completed dump/revalidate/sweep rounds.
    pub sweeps: u64,
    /// Flows examined across all rounds.
    pub flows_dumped: u64,
    pub deleted_idle: u64,
    pub deleted_hard: u64,
    pub deleted_changed: u64,
    pub evicted: u64,
    /// Packets pushed back into OpenFlow rule stats.
    pub pushed_packets: u64,
    /// Bytes pushed back into OpenFlow rule stats.
    pub pushed_bytes: u64,
    /// High-water mark of datapath flows seen at dump time.
    pub max_flows: u64,
}

/// What one sweep did (the `revalidator/wait` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    pub dumped: u64,
    pub deleted_idle: u64,
    pub deleted_hard: u64,
    pub deleted_changed: u64,
    pub evicted: u64,
    /// Restored flows re-adopted by this sweep's reconciliation pass.
    pub adopted: u64,
    /// Restored flows deleted as orphans by this sweep.
    pub orphaned: u64,
    /// Flow limit after the post-sweep adjustment.
    pub flow_limit: usize,
    /// Simulated dump duration that fed the adjustment.
    pub dump_duration_ms: u64,
}

impl SweepSummary {
    /// Total flows removed this sweep.
    pub fn deleted(&self) -> u64 {
        self.deleted_idle + self.deleted_hard + self.deleted_changed + self.evicted
    }
}

/// A flow's `(packets, bytes, used_ns, created_ns)`, as a datapath flow
/// dump returns them.
pub type FlowCounters = (u64, u64, u64, u64);

/// One datapath flow as a flow dump returns it (OVS's `dpif_flow`): the
/// masked key, mask, actions and counters the per-flow step reads, and
/// the ukey kept in the flow's record.
#[derive(Debug)]
pub struct DumpedFlow<'a, A> {
    /// Masked key, which a re-translation translates.
    pub key: &'a FlowKey,
    /// The wildcard mask the flow was installed under.
    pub mask: &'a FlowMask,
    /// The actions installed.
    pub actions: &'a A,
    /// The flow's counters, as the datapath reports them.
    pub counters: FlowCounters,
    /// The flow's ukey, from the flow's record.
    pub ukey: &'a mut Ukey,
}

/// One revalidation pass in progress: the verdict inputs fixed when it
/// opened, and what it has done so far.
#[derive(Debug, Default)]
pub struct Sweep {
    now_ns: u64,
    n_flows: usize,
    max_idle_ns: u64,
    hard_ns: u64,
    kill_all: bool,
    /// The table version the pass checks translations against.
    version: u64,
    /// What the pass has done so far.
    pub summary: SweepSummary,
}

impl Sweep {
    /// The pass a `flow_mod` runs against tables at `version`. It has the
    /// timeouts off — its clock reads zero, so no flow is idle or past a
    /// hard age — and only a changed translation deletes a flow.
    pub fn flow_mod(version: u64) -> Self {
        Self {
            version,
            ..Self::default()
        }
    }

    /// Count one deletion under `reason`, in its coverage counter and the
    /// pass's summary.
    fn count(&mut self, reason: DeleteReason) {
        let s = &mut self.summary;
        match reason {
            DeleteReason::Idle => {
                coverage!("revalidate_idle");
                s.deleted_idle += 1;
            }
            DeleteReason::Hard => {
                coverage!("revalidate_hard");
                s.deleted_hard += 1;
            }
            DeleteReason::Changed => {
                coverage!("revalidate_changed");
                s.deleted_changed += 1;
            }
            DeleteReason::Evicted => {
                coverage!("flow_evicted");
                s.evicted += 1;
            }
        }
    }
}

/// Per-dpif revalidator policy and counters: the dynamic flow limit and
/// sweep statistics. It keeps nothing per flow. Both `DpifNetdev` and
/// `DpifNetlink` embed one; the per-flow step is generic over their
/// action languages.
#[derive(Debug)]
pub struct Revalidator {
    pub cfg: RevalidatorConfig,
    /// The current dynamic flow limit (installs stop at this many
    /// datapath flows; sweeps evict back down to it).
    pub flow_limit: usize,
    /// Simulated duration of the last dump pass (ms).
    pub dump_duration_ms: u64,
    pub stats: RevalStats,
}

impl Default for Revalidator {
    fn default() -> Self {
        Self::new()
    }
}

impl Revalidator {
    /// A revalidator with default (OVS) tunables.
    pub fn new() -> Self {
        Self::with_config(RevalidatorConfig::default())
    }

    pub fn with_config(cfg: RevalidatorConfig) -> Self {
        let flow_limit = cfg.flow_limit_max;
        Self {
            cfg,
            flow_limit,
            dump_duration_ms: 0,
            stats: RevalStats::default(),
        }
    }

    /// Whether a new flow may be installed given the current datapath
    /// flow count (OVS: upcall handlers stop installing at the limit).
    pub fn should_install(&self, n_flows: usize) -> bool {
        n_flows < self.flow_limit
    }

    /// The idle timeout the sweep applies, in sim-ns. Over the limit the
    /// timeout collapses to `overload_idle_ms`; over **twice** the limit
    /// every flow is fair game ("kill them all").
    pub fn effective_max_idle_ns(&self, n_flows: usize) -> u64 {
        if n_flows > 2 * self.flow_limit {
            0
        } else if n_flows > self.flow_limit {
            self.cfg.overload_idle_ms.min(self.cfg.max_idle_ms) * 1_000_000
        } else {
            self.cfg.max_idle_ms * 1_000_000
        }
    }

    /// Fold one finished dump pass into the dynamic flow limit — the
    /// `udpif_revalidator` algorithm: a dump over 2 s divides the limit
    /// by the dump's seconds, over 1.3 s takes a quarter off, and a
    /// quick dump of a busy table (>2000 flows in under a second) earns
    /// back 1000 flows, clamped to `[flow_limit_min, flow_limit_max]`.
    pub fn note_dump(&mut self, n_flows: usize, dump_duration_ms: u64) {
        let duration = dump_duration_ms.max(1);
        self.dump_duration_ms = duration;
        let mut limit = self.flow_limit;
        if duration > 2000 {
            limit /= (duration / 1000) as usize;
        } else if duration > 1300 {
            limit = limit * 3 / 4;
        } else if duration < 1000 && n_flows > 2000 && limit < n_flows * 1000 / duration as usize {
            limit += 1000;
        }
        let lo = self.cfg.flow_limit_min.min(self.cfg.flow_limit_max);
        self.flow_limit = limit.clamp(lo, self.cfg.flow_limit_max);
        self.stats.sweeps += 1;
        self.stats.max_flows = self.stats.max_flows.max(n_flows as u64);
    }

    /// Open a periodic sweep of a datapath holding `n_flows` at `now_ns`,
    /// under tables at `version`: the effective idle timeout, the hard
    /// timeout, the kill-all verdict and the version are fixed for the
    /// whole pass.
    pub fn begin_sweep(&self, n_flows: usize, now_ns: u64, version: u64) -> Sweep {
        Sweep {
            now_ns,
            n_flows,
            max_idle_ns: self.effective_max_idle_ns(n_flows),
            hard_ns: self.cfg.hard_timeout_ms * 1_000_000,
            kill_all: n_flows > 2 * self.flow_limit,
            version,
            summary: SweepSummary::default(),
        }
    }

    /// The per-flow step every pass shares, on one flow as the driver's
    /// dump returns it, with its ukey. Count the dump, push the flow's
    /// stats, then delete the flow (kill-all, else idle, else hard) or
    /// keep it. A flow already checked at the pass's table version is
    /// kept without re-translating; any other is re-translated by `xlate`
    /// (into the dump's action language) and deleted if its actions or
    /// mask differ from the dumped ones, else its rule refs are refreshed
    /// — the rules backing an unchanged flow may still have changed — and
    /// it is marked checked. A restored flow is only counted: it has no
    /// rule refs to push to, so it waits for the dpif's reconciliation.
    /// A deletion is counted here; the driver deletes the flow.
    pub fn revalidate_flow<A: PartialEq>(
        &mut self,
        sweep: &mut Sweep,
        flow: DumpedFlow<'_, A>,
        xlate: impl FnOnce(&FlowKey) -> (A, FlowMask, Vec<Rc<RuleEntry>>),
    ) -> Verdict {
        coverage!("revalidate_flow");
        sweep.summary.dumped += 1;
        let uk = flow.ukey;
        if uk.is_restored() {
            return Verdict::Reconcile;
        }
        let (packets, bytes, used, created) = flow.counters;
        // Push before any delete decision so counters survive the flow.
        uk.push(&mut self.stats, packets, bytes);
        let reason = if sweep.kill_all {
            DeleteReason::Evicted
        } else if sweep.now_ns.saturating_sub(used) > sweep.max_idle_ns {
            DeleteReason::Idle
        } else if sweep.hard_ns > 0 && sweep.now_ns.saturating_sub(created) > sweep.hard_ns {
            DeleteReason::Hard
        } else if uk.version == Some(sweep.version) {
            // Checked against these very tables: nothing to re-translate.
            return Verdict::Keep;
        } else {
            let (actions, mask, rules) = xlate(flow.key);
            if actions == *flow.actions && mask == *flow.mask {
                uk.rules = rules;
                uk.version = Some(sweep.version);
                return Verdict::Keep;
            }
            DeleteReason::Changed
        };
        sweep.count(reason);
        Verdict::Delete
    }

    /// The flows to evict to bring a datapath holding `n_flows` back to
    /// the flow limit: the least recently used of the `candidates` the
    /// driver hands over, each as its `(used_ns, masked-key hash,
    /// handle)`. Ties on `used` break on the hash, so the order never
    /// depends on the order of the candidates. Each victim is counted;
    /// the driver deletes them.
    pub fn evict<T>(
        &self,
        sweep: &mut Sweep,
        n_flows: usize,
        candidates: impl Iterator<Item = (u64, u64, T)>,
    ) -> Vec<T> {
        if n_flows <= self.flow_limit {
            return Vec::new();
        }
        let mut lru: Vec<_> = candidates.collect();
        lru.sort_unstable_by_key(|&(used, h, _)| (used, h));
        lru.truncate(n_flows - self.flow_limit);
        lru.into_iter()
            .map(|(_, _, victim)| {
                sweep.count(DeleteReason::Evicted);
                victim
            })
            .collect()
    }

    /// Close a pass: fold what it counted into the lifetime
    /// [`RevalStats`] and report it. A `flow_mod` pass ends here; a
    /// periodic sweep ends with [`end_sweep`](Self::end_sweep).
    pub(crate) fn close(&mut self, sweep: Sweep) -> SweepSummary {
        let (s, p) = (&mut self.stats, sweep.summary);
        s.flows_dumped += p.dumped;
        s.deleted_idle += p.deleted_idle;
        s.deleted_hard += p.deleted_hard;
        s.deleted_changed += p.deleted_changed;
        s.evicted += p.evicted;
        p
    }

    /// Close a sweep: fold its dump duration into the flow limit and what
    /// it did into the lifetime stats, and report it.
    pub fn end_sweep(&mut self, sweep: Sweep, dump_duration_ms: u64) -> SweepSummary {
        self.note_dump(sweep.n_flows, dump_duration_ms);
        SweepSummary {
            flow_limit: self.flow_limit,
            dump_duration_ms: self.dump_duration_ms,
            ..self.close(sweep)
        }
    }

    /// Render the `upcall/show` block for this dpif.
    pub fn show(&self, name: &str, n_flows: usize, limit_hits: u64) -> String {
        let s = &self.stats;
        format!(
            "{name}:\n\
             \x20 flows         : (current {n_flows}) (max {}) (limit {})\n\
             \x20 dump duration : {}ms\n\
             \x20 sweeps        : {} ({} flows dumped)\n\
             \x20 deleted       : {} idle, {} hard, {} changed, {} evicted\n\
             \x20 stats pushed  : {} packets, {} bytes\n\
             \x20 limit hits    : {limit_hits}\n",
            s.max_flows,
            self.flow_limit,
            self.dump_duration_ms,
            s.sweeps,
            s.flows_dumped,
            s.deleted_idle,
            s.deleted_hard,
            s.deleted_changed,
            s.evicted,
            s.pushed_packets,
            s.pushed_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofproto::{OfRule, RuleEntry};
    use ovs_packet::FlowMask;
    use std::cell::Cell;

    /// A match-all rule with zeroed counters.
    fn rule() -> Rc<RuleEntry> {
        Rc::new(RuleEntry {
            rule: OfRule {
                table: 0,
                priority: 0,
                key: FlowKey::default(),
                mask: FlowMask::EMPTY,
                actions: vec![],
                cookie: 0,
            },
            n_packets: Cell::new(0),
            n_bytes: Cell::new(0),
        })
    }

    fn reval() -> Revalidator {
        Revalidator::with_config(RevalidatorConfig {
            flow_limit_min: 1_000,
            flow_limit_max: 200_000,
            ..RevalidatorConfig::default()
        })
    }

    #[test]
    fn slow_dump_divides_the_limit() {
        let mut r = reval();
        assert_eq!(r.flow_limit, 200_000);
        // A 4-second dump divides by 4.
        r.note_dump(150_000, 4_000);
        assert_eq!(r.flow_limit, 50_000);
        assert_eq!(r.dump_duration_ms, 4_000);
    }

    #[test]
    fn slightly_slow_dump_takes_a_quarter_off() {
        let mut r = reval();
        r.flow_limit = 100_000;
        r.note_dump(90_000, 1_500);
        assert_eq!(r.flow_limit, 75_000);
    }

    #[test]
    fn fast_dump_of_busy_table_earns_back_1000() {
        let mut r = reval();
        r.flow_limit = 50_000;
        r.note_dump(60_000, 500);
        assert_eq!(r.flow_limit, 51_000);
        // An idle table earns nothing.
        r.note_dump(100, 1);
        assert_eq!(r.flow_limit, 51_000);
    }

    #[test]
    fn limit_clamps_to_configured_bounds() {
        let mut r = reval();
        r.flow_limit = 2_000;
        r.note_dump(2_000, 10_000); // /10 would be 200, below the floor
        assert_eq!(r.flow_limit, 1_000);
        r.flow_limit = 199_500;
        for _ in 0..5 {
            r.note_dump(300_000, 500);
        }
        assert_eq!(r.flow_limit, 200_000, "ceiling respected");
    }

    #[test]
    fn idle_timeout_collapses_when_over_limit() {
        let mut r = reval();
        r.flow_limit = 1_000;
        assert_eq!(r.effective_max_idle_ns(500), 10_000 * 1_000_000);
        assert_eq!(r.effective_max_idle_ns(1_500), 100 * 1_000_000);
        assert_eq!(r.effective_max_idle_ns(2_001), 0, "kill them all");
        assert!(r.should_install(999));
        assert!(!r.should_install(1_000));
    }

    #[test]
    fn stats_pushback_is_incremental() {
        let rule = rule();
        let mut stats = RevalStats::default();
        let mut uk = Ukey::new(vec![Rc::clone(&rule)], 1);
        assert_eq!(uk.push(&mut stats, 10, 640), (10, 640));
        assert_eq!(rule.n_packets.get(), 10);
        // Second push only credits the delta.
        assert_eq!(uk.push(&mut stats, 15, 960), (5, 320));
        assert_eq!(rule.n_packets.get(), 15);
        assert_eq!(rule.n_bytes.get(), 960);
        assert_eq!(stats.pushed_packets, 15);
        // Counters that have not moved push nothing.
        assert_eq!(uk.push(&mut stats, 15, 960), (0, 0));
    }

    #[test]
    fn restored_ukey_holds_pushback_until_adopted() {
        let rule = rule();
        let mut stats = RevalStats::default();
        // Snapshot carried 10 packets already pushed to the old rules.
        let mut uk = Ukey::restored(10, 640);
        assert!(uk.is_restored());
        // Pushback while rule-less is held, not swallowed.
        assert_eq!(uk.push(&mut stats, 14, 896), (0, 0));
        // Adoption re-resolves rules; the next push credits exactly the
        // post-snapshot delta (14 - 10 = 4 packets).
        uk.adopt(vec![Rc::clone(&rule)], 1);
        assert!(!uk.is_restored());
        assert_eq!(uk.push(&mut stats, 14, 896), (4, 256));
        assert_eq!(rule.n_packets.get(), 4);
        assert_eq!(rule.n_bytes.get(), 256);
    }

    #[test]
    fn evict_ranks_candidates_and_counts_each_victim_once() {
        let mut r = reval();
        r.flow_limit = 2;
        let mut sweep = r.begin_sweep(4, 0, 1);
        // Under the limit nothing is ranked.
        let none = r.evict(&mut sweep, 2, std::iter::once((0, 0, 'x')));
        assert!(none.is_empty());
        // Least recently used first; a tie on `used` breaks on the hash.
        let candidates = [(5, 1, 'a'), (3, 9, 'b'), (3, 2, 'c'), (7, 0, 'd')];
        let victims = r.evict(&mut sweep, 4, candidates.into_iter());
        assert_eq!(victims, ['c', 'b']);
        // Counted into the pass, and into the lifetime stats once, as
        // the pass closes.
        assert_eq!((sweep.summary.evicted, r.stats.evicted), (2, 0));
        let s = r.end_sweep(sweep, 1);
        assert_eq!((s.evicted, r.stats.evicted), (2, 2));
    }

    #[test]
    fn a_ufid_names_one_masked_key() {
        let mut flows = UfidMap::default();
        for i in 0..32u32 {
            let mut k = FlowKey::default();
            k.set_in_port(i);
            assert_eq!(Ufid::of(&k), Ufid::of(&k), "a function of the key");
            flows.insert(Ufid::of(&k), i);
        }
        assert_eq!(flows.len(), 32, "distinct keys, distinct UFIDs");
        let mut k = FlowKey::default();
        k.set_in_port(7);
        assert_eq!(flows.remove(&Ufid::of(&k)), Some(7));
        assert_eq!(flows.len(), 31);
    }
}
