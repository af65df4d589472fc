//! Tuple-space-search classifier.
//!
//! The OVS classifier groups rules by identical mask into *subtables*;
//! each subtable is a hash table keyed by the masked flow key. A lookup
//! probes subtables in descending order of their highest rule priority
//! and can stop as soon as a match outranks every remaining subtable —
//! the structure whose per-subtable probing cost shows up in the 1 vs
//! 1,000 flow results (§5.2) and in the `classifier` ablation bench.
//!
//! Within a priority tier, subtables are additionally *ranked* by hit
//! count and periodically re-sorted (OVS's `dpcls_sort_subtable_vector`),
//! so skewed traffic probes its hot subtable first. For the megaflow
//! cache — where every entry has priority 0 and a lookup stops at the
//! first match — ranking directly cuts `subtables_probed`.
//!
//! Subtables store and match rules as sparse [`Miniflow`]s under a
//! [`MiniMask`]: masking, hashing, and comparing touch only the mask's
//! populated 8-byte slots. [`Classifier::lookup_bulk`] probes a whole
//! burst against each subtable in wide lanes (one signature pass per
//! `lane_width` keys, upstream's AVX-512 `dpcls_subtable_lookup` shape),
//! removing keys from the remaining set as they match.

use ovs_packet::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::collections::HashMap;

/// A classifier rule: match (key under mask), priority, and an opaque
/// value (rule id / actions handle).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<V> {
    /// Match key (only bits under `mask` are significant).
    pub key: FlowKey,
    /// Wildcard mask.
    pub mask: FlowMask,
    /// Higher wins.
    pub priority: i32,
    /// Payload.
    pub value: V,
}

#[derive(Debug)]
struct Subtable<V> {
    mask: FlowMask,
    /// The sparse form every probe actually uses.
    mini_mask: MiniMask,
    /// Masked key (sparse, canonical) → rules (several priorities may
    /// share a masked key).
    rules: HashMap<Miniflow, Vec<Rule<V>>>,
    max_priority: i32,
    rule_count: usize,
    /// Lookups this subtable answered (the ranking key).
    hits: u64,
}

/// One subtable's entry in the ranked probe vector, as dumped by
/// `dpif-netdev/subtable-ranking`.
#[derive(Debug, Clone, Copy)]
pub struct SubtableInfo {
    /// The subtable's wildcard mask.
    pub mask: FlowMask,
    /// Highest rule priority in the subtable (primary sort key).
    pub max_priority: i32,
    /// Lookup hits (secondary sort key).
    pub hits: u64,
    /// Rules sharing this mask.
    pub rules: usize,
}

/// Statistics from lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassifierStats {
    pub lookups: u64,
    pub subtables_probed: u64,
    /// Wide-lane bulk steps executed: one per `ceil(keys/lane)` per
    /// subtable probed by [`Classifier::lookup_bulk`].
    pub lane_steps: u64,
    /// Keys carried through bulk steps (occupancy numerator: a fully
    /// packed run has `lane_keys == lane_steps * lane_width`).
    pub lane_keys: u64,
}

/// Lookups between subtable-ranking re-sorts (OVS re-sorts its pvector
/// once per second; a lookup count is the deterministic stand-in).
pub const DEFAULT_RANK_INTERVAL: u64 = 256;

/// Default bulk-probe lane width: AVX-512 compares eight 64-bit
/// signatures per instruction, so upstream's vectorized dpcls probes
/// eight keys per subtable pass.
pub const DEFAULT_LANE_WIDTH: usize = 8;

/// The tuple-space-search classifier.
#[derive(Debug)]
pub struct Classifier<V> {
    subtables: Vec<Subtable<V>>,
    /// Probe counters.
    pub stats: ClassifierStats,
    /// Lookups between hit-count re-sorts of the subtable vector.
    pub rank_interval: u64,
    /// Keys probed per bulk step ([`Classifier::lookup_bulk`]).
    pub lane_width: usize,
    since_rank: u64,
    /// The bulk probe's still-unmatched key indices, kept between
    /// lookups so a warm probe allocates nothing.
    remaining: Vec<usize>,
}

impl<V> Default for Classifier<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Classifier<V> {
    /// An empty classifier.
    pub fn new() -> Self {
        Self {
            subtables: Vec::new(),
            stats: ClassifierStats::default(),
            rank_interval: DEFAULT_RANK_INTERVAL,
            lane_width: DEFAULT_LANE_WIDTH,
            since_rank: 0,
            remaining: Vec::new(),
        }
    }

    /// Total rules.
    pub fn len(&self) -> usize {
        self.subtables.iter().map(|s| s.rule_count).sum()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of subtables (distinct masks).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Insert a rule. Replaces an identical (key, mask, priority) rule.
    pub fn insert(&mut self, rule: Rule<V>) {
        let masked = Miniflow::from_key(&rule.key.masked(&rule.mask));
        let idx = match self.subtables.iter().position(|s| s.mask == rule.mask) {
            Some(i) => i,
            None => {
                self.subtables.push(Subtable {
                    mask: rule.mask,
                    mini_mask: MiniMask::from_mask(&rule.mask),
                    rules: HashMap::new(),
                    max_priority: i32::MIN,
                    rule_count: 0,
                    hits: 0,
                });
                self.subtables.len() - 1
            }
        };
        let st = &mut self.subtables[idx];
        st.max_priority = st.max_priority.max(rule.priority);
        let bucket = st.rules.entry(masked).or_default();
        if let Some(existing) = bucket.iter_mut().find(|r| r.priority == rule.priority) {
            *existing = rule;
        } else {
            bucket.push(rule);
            // Keep each bucket ordered by descending priority.
            bucket.sort_by_key(|r| std::cmp::Reverse(r.priority));
            st.rule_count += 1;
        }
        // Keep subtables ordered by descending max priority so lookups can
        // stop early (OVS's pvector).
        self.sort_subtables();
    }

    /// Sort the subtable vector: priority first (early-exit correctness),
    /// hit count within a priority tier (the ranking). Stable under
    /// equal keys so re-sorting without new hits is a no-op.
    fn sort_subtables(&mut self) {
        self.subtables
            .sort_by_key(|s| (std::cmp::Reverse(s.max_priority), std::cmp::Reverse(s.hits)));
    }

    /// Re-rank every `rank_interval` lookups. Runs *before* the probe
    /// loop so subtable indices stay stable for the rest of a lookup.
    fn maybe_rerank(&mut self) {
        self.since_rank += 1;
        if self.since_rank >= self.rank_interval {
            self.since_rank = 0;
            self.sort_subtables();
        }
    }

    /// The ranked probe vector, in current probe order.
    pub fn subtable_info(&self) -> Vec<SubtableInfo> {
        self.subtables
            .iter()
            .map(|s| SubtableInfo {
                mask: s.mask,
                max_priority: s.max_priority,
                hits: s.hits,
                rules: s.rule_count,
            })
            .collect()
    }

    /// Remove rules matching (key, mask); returns how many were removed.
    pub fn remove(&mut self, key: &FlowKey, mask: &FlowMask) -> usize {
        let mut removed = 0;
        if let Some(st) = self.subtables.iter_mut().find(|s| s.mask == *mask) {
            let masked = Miniflow::from_key(&key.masked(mask));
            if let Some(bucket) = st.rules.remove(&masked) {
                removed = bucket.len();
                st.rule_count -= removed;
            }
        }
        self.subtables.retain(|s| s.rule_count > 0);
        removed
    }

    /// Find the highest-priority matching rule. Also reports how many
    /// subtables were probed (the classifier's work metric), and feeds
    /// the hit-count ranking that periodically re-sorts the vector.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<&Rule<V>> {
        self.lookup_mini(&Miniflow::from_key(key), None)
    }

    /// [`Classifier::lookup`] on an already-extracted sparse key — the
    /// fast-path entry point; every per-subtable probe masks and compares
    /// only the subtable's populated slots.
    ///
    /// With `wc`, the mask of **every subtable probed** is united into
    /// it — the wildcard tracking translation needs: a megaflow must be
    /// as specific as every rule the lookup *examined*, not just the one
    /// it matched, or two packets that diverge on an examined-but-missed
    /// rule would share a megaflow (and overlapping megaflows make the
    /// dpcls winner probe-order dependent).
    pub fn lookup_mini(
        &mut self,
        key: &Miniflow,
        mut wc: Option<&mut FlowMask>,
    ) -> Option<&Rule<V>> {
        self.stats.lookups += 1;
        self.maybe_rerank();
        let mut best: Option<(usize, i32)> = None;
        for (i, st) in self.subtables.iter().enumerate() {
            if let Some((_, bp)) = best {
                if st.max_priority <= bp {
                    break; // no remaining subtable can outrank the match
                }
            }
            self.stats.subtables_probed += 1;
            if let Some(wc) = wc.as_deref_mut() {
                wc.unite(&st.mask);
            }
            let masked = st.mini_mask.apply(key);
            if let Some(bucket) = st.rules.get(&masked) {
                // Buckets are sorted by descending priority.
                let r = &bucket[0];
                match best {
                    Some((_, bp)) if bp >= r.priority => {}
                    _ => best = Some((i, r.priority)),
                }
            }
        }
        let (i, prio) = best?;
        self.subtables[i].hits += 1;
        let st = &self.subtables[i];
        let masked = st.mini_mask.apply(key);
        st.rules
            .get(&masked)
            .and_then(|b| b.iter().find(|r| r.priority == prio))
    }

    /// Probe a whole burst of keys in wide lanes: per subtable, the
    /// still-unmatched keys are masked, hashed, and compared in groups of
    /// [`Classifier::lane_width`] (`stats.lane_steps` counts the groups),
    /// and a key that matches leaves the remaining set — upstream
    /// `dpcls_lookup`'s `keys_map` walk over vectorized subtable probes.
    /// Each match is reported as `hit(key index, rule)`; the caller keeps
    /// the verdicts wherever it likes.
    ///
    /// First-match-in-ranked-order equals highest-priority-match only
    /// when every subtable sits in one priority tier, which holds for the
    /// megaflow cache (all rules priority 0, entries disjoint); callers
    /// with mixed priorities must use the scalar lookup.
    pub fn lookup_bulk<'a>(
        &'a mut self,
        keys: &[Miniflow],
        mut hit: impl FnMut(usize, &'a Rule<V>),
    ) {
        debug_assert!(
            self.subtables
                .windows(2)
                .all(|w| w[0].max_priority == w[1].max_priority),
            "bulk lookup requires a single priority tier"
        );
        let lane = self.lane_width.max(1);
        self.stats.lookups += keys.len() as u64;
        self.since_rank += keys.len() as u64;
        if self.since_rank >= self.rank_interval {
            self.since_rank = 0;
            self.sort_subtables();
        }
        let Self {
            subtables,
            stats,
            remaining,
            ..
        } = self;
        remaining.clear();
        remaining.extend(0..keys.len());
        for st in subtables.iter_mut() {
            if remaining.is_empty() {
                break;
            }
            let n = remaining.len() as u64;
            stats.subtables_probed += n;
            stats.lane_keys += n;
            stats.lane_steps += remaining.len().div_ceil(lane) as u64;
            let Subtable {
                mini_mask,
                rules,
                hits,
                ..
            } = st;
            let rules: &'a HashMap<Miniflow, Vec<Rule<V>>> = rules;
            remaining.retain(|&ki| match rules.get(&mini_mask.apply(&keys[ki])) {
                Some(bucket) => {
                    *hits += 1;
                    // Buckets are sorted by descending priority.
                    hit(ki, &bucket[0]);
                    false
                }
                None => true,
            });
        }
    }

    /// Union of every subtable mask — the conservative wildcard a miss
    /// must carry (a megaflow for a miss must be as specific as anything
    /// that *could* have matched).
    pub fn total_mask(&self) -> FlowMask {
        let mut m = FlowMask::EMPTY;
        for st in &self.subtables {
            m.unite(&st.mask);
        }
        m
    }

    /// Iterate over all rules (diagnostics, rule counting).
    pub fn iter(&self) -> impl Iterator<Item = &Rule<V>> {
        self.subtables
            .iter()
            .flat_map(|s| s.rules.values().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::flow::fields;

    fn key_dst(ip: [u8; 4]) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4(ip);
        k
    }

    fn rule(ip: [u8; 4], plen: u8, prio: i32, v: u32) -> Rule<u32> {
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(plen);
        Rule {
            key: key_dst(ip),
            mask,
            priority: prio,
            value: v,
        }
    }

    #[test]
    fn highest_priority_wins_across_subtables() {
        let mut c = Classifier::new();
        c.insert(rule([10, 0, 0, 0], 8, 1, 100)); // /8 low prio
        c.insert(rule([10, 1, 0, 0], 16, 10, 200)); // /16 high prio
        assert_eq!(c.subtable_count(), 2);

        let hit = c.lookup(&key_dst([10, 1, 2, 3])).unwrap();
        assert_eq!(hit.value, 200);
        // Outside the /16, the /8 matches.
        let hit = c.lookup(&key_dst([10, 9, 9, 9])).unwrap();
        assert_eq!(hit.value, 100);
        assert!(c.lookup(&key_dst([11, 0, 0, 1])).is_none());
    }

    #[test]
    fn early_exit_when_match_outranks_rest() {
        let mut c = Classifier::new();
        c.insert(rule([10, 1, 0, 0], 16, 10, 1)); // probed first (max prio)
        c.insert(rule([10, 0, 0, 0], 8, 1, 2));
        c.stats = ClassifierStats::default();
        c.lookup(&key_dst([10, 1, 0, 5]));
        // The /16 matched with priority 10 > the /8 subtable's max (1), so
        // only one subtable was probed.
        assert_eq!(c.stats.subtables_probed, 1);
        // A miss probes everything.
        c.lookup(&key_dst([99, 0, 0, 1]));
        assert_eq!(c.stats.subtables_probed, 3);
    }

    #[test]
    fn same_mask_shares_subtable() {
        let mut c = Classifier::new();
        for i in 0..100u8 {
            c.insert(rule([10, 0, 0, i], 32, 5, u32::from(i)));
        }
        assert_eq!(c.subtable_count(), 1);
        assert_eq!(c.len(), 100);
        assert_eq!(c.lookup(&key_dst([10, 0, 0, 42])).unwrap().value, 42);
    }

    #[test]
    fn replace_same_key_mask_priority() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([1, 1, 1, 1], 32, 5, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key_dst([1, 1, 1, 1])).unwrap().value, 2);
    }

    #[test]
    fn same_masked_key_different_priorities() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([1, 1, 1, 1], 32, 9, 2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key_dst([1, 1, 1, 1])).unwrap().value, 2);
    }

    #[test]
    fn remove_drops_emptied_subtables() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([2, 2, 2, 2], 32, 5, 2));
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(32);
        assert_eq!(c.remove(&key_dst([1, 1, 1, 1]), &mask), 1);
        assert!(c.lookup(&key_dst([1, 1, 1, 1])).is_none());
        assert!(c.lookup(&key_dst([2, 2, 2, 2])).is_some());
        assert_eq!(c.remove(&key_dst([2, 2, 2, 2]), &mask), 1);
        assert!(c.is_empty());
        assert_eq!(c.subtable_count(), 0);
    }

    #[test]
    fn total_mask_unions_subtables() {
        let mut c = Classifier::new();
        c.insert(rule([10, 0, 0, 0], 8, 1, 1));
        let mut m2 = FlowMask::EMPTY;
        m2.set_field(&fields::TP_DST);
        c.insert(Rule {
            key: FlowKey::default(),
            mask: m2,
            priority: 2,
            value: 9,
        });
        let total = c.total_mask();
        assert!(m2.subset_of(&total));
        let mut m1 = FlowMask::EMPTY;
        m1.set_nw_dst_v4_prefix(8);
        assert!(m1.subset_of(&total));
    }

    #[test]
    fn ranking_cuts_probes_under_skewed_traffic() {
        // Eight same-priority subtables (/32 .. /25 on distinct octet
        // patterns); traffic hits only the last-inserted one, which
        // starts at the back of the probe vector.
        let mut c = Classifier::new();
        c.rank_interval = 16;
        for (i, plen) in (25..=32).rev().enumerate() {
            c.insert(rule([10, i as u8, 0, 0], plen, 5, i as u32));
        }
        assert_eq!(c.subtable_count(), 8);
        let hot = key_dst([10, 7, 0, 0]); // matches the /25 inserted last
        c.stats = ClassifierStats::default();
        for _ in 0..15 {
            assert_eq!(c.lookup(&hot).unwrap().value, 7);
        }
        assert_eq!(
            c.stats.subtables_probed,
            15 * 8,
            "hot subtable probed last, pre-rank"
        );
        // The 16th lookup triggers the re-rank: the hot subtable now
        // leads the vector and every lookup stops after one probe.
        assert_eq!(c.lookup(&hot).unwrap().value, 7);
        c.stats = ClassifierStats::default();
        for _ in 0..8 {
            assert_eq!(c.lookup(&hot).unwrap().value, 7);
        }
        assert_eq!(c.stats.subtables_probed, 8, "ranked: one probe each");
        let info = c.subtable_info();
        assert_eq!(info[0].hits, 24, "hot subtable leads the dump");
        assert_eq!(info[0].rules, 1);
    }

    #[test]
    fn ranking_never_reorders_across_priorities() {
        // A hammered low-priority subtable must not outrank a
        // higher-priority one — early exit depends on priority order.
        let mut c = Classifier::new();
        c.rank_interval = 4;
        c.insert(rule([10, 1, 0, 0], 16, 10, 1)); // high priority
        c.insert(rule([10, 0, 0, 0], 8, 1, 2)); // low priority, hot
        for _ in 0..32 {
            // Hits only the /8 (outside the /16).
            assert_eq!(c.lookup(&key_dst([10, 9, 9, 9])).unwrap().value, 2);
        }
        // The /16 keeps probe precedence despite zero hits, so a key
        // matching both still gets the high-priority rule.
        assert_eq!(c.lookup(&key_dst([10, 1, 2, 3])).unwrap().value, 1);
        let info = c.subtable_info();
        assert_eq!(info[0].max_priority, 10, "priority order preserved");
    }

    #[test]
    fn bulk_lookup_matches_scalar() {
        // Two same-priority subtables (/16 and /8), a burst mixing hits
        // in each plus misses: the bulk result must equal key-by-key
        // scalar lookups.
        let mut c = Classifier::new();
        c.insert(rule([10, 1, 0, 0], 16, 0, 200));
        c.insert(rule([10, 0, 0, 0], 8, 0, 100));
        let burst = [
            key_dst([10, 1, 2, 3]), // /16
            key_dst([10, 9, 9, 9]), // /8
            key_dst([99, 0, 0, 1]), // miss
            key_dst([10, 1, 0, 7]), // /16
        ];
        let minis: Vec<Miniflow> = burst.iter().map(Miniflow::from_key).collect();
        let scalar: Vec<Option<u32>> = {
            let mut c2 = Classifier::new();
            c2.insert(rule([10, 1, 0, 0], 16, 0, 200));
            c2.insert(rule([10, 0, 0, 0], 8, 0, 100));
            burst
                .iter()
                .map(|k| c2.lookup(k).map(|r| r.value))
                .collect()
        };
        let mut bulk = vec![None; minis.len()];
        c.lookup_bulk(&minis, |i, r| bulk[i] = Some(r.value));
        assert_eq!(bulk, scalar);
        assert_eq!(bulk, vec![Some(200), Some(100), None, Some(200)]);
    }

    #[test]
    fn bulk_lane_accounting() {
        // One subtable, lane width 8: a 20-key burst takes ceil(20/8) = 3
        // steps and carries 20 keys. A matched key leaves the remaining
        // set, so a second subtable only sees the misses.
        let mut c = Classifier::new();
        c.lane_width = 8;
        for i in 0..4u8 {
            c.insert(rule([10, 0, 0, i], 32, 0, u32::from(i)));
        }
        let minis: Vec<Miniflow> = (0..20u8)
            .map(|i| Miniflow::from_key(&key_dst([10, 0, 0, i])))
            .collect();
        c.stats = ClassifierStats::default();
        let mut hits = 0;
        c.lookup_bulk(&minis, |_, _| hits += 1);
        assert_eq!(hits, 4);
        assert_eq!(c.stats.lane_steps, 3);
        assert_eq!(c.stats.lane_keys, 20);
        assert_eq!(c.stats.subtables_probed, 20);

        // Add a second subtable (/8 catch-all): the 16 keys unmatched by
        // the /32 subtable carry over, 2 more steps.
        c.insert(rule([10, 0, 0, 0], 8, 0, 999));
        c.stats = ClassifierStats::default();
        let mut hits = 0;
        c.lookup_bulk(&minis, |_, _| hits += 1);
        assert_eq!(hits, minis.len());
        // Ranked order puts the hot /32 subtable first (4 prior hits).
        assert_eq!(c.stats.lane_steps, 3 + 2);
        assert_eq!(c.stats.lane_keys, 20 + 16);
    }

    #[test]
    fn lookup_mini_equals_lookup() {
        let mut c = Classifier::new();
        c.insert(rule([10, 1, 0, 0], 16, 10, 1));
        c.insert(rule([10, 0, 0, 0], 8, 1, 2));
        for ip in [[10, 1, 2, 3], [10, 9, 9, 9], [8, 8, 8, 8]] {
            let k = key_dst(ip);
            let scalar = c.lookup(&k).map(|r| r.value);
            let mini = c
                .lookup_mini(&Miniflow::from_key(&k), None)
                .map(|r| r.value);
            assert_eq!(scalar, mini, "ip {ip:?}");
        }
    }

    #[test]
    fn wildcard_all_rule_matches_everything() {
        let mut c = Classifier::new();
        c.insert(Rule {
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            priority: 0,
            value: 7,
        });
        assert_eq!(c.lookup(&key_dst([8, 8, 8, 8])).unwrap().value, 7);
        let mut k = FlowKey::default();
        k.set_tp_src(9999);
        assert_eq!(c.lookup(&k).unwrap().value, 7);
    }
}
