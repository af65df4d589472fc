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
//! so skewed traffic probes its hot subtable first. Within a tier the
//! ranking also decides which subtable masks a translation unites into
//! its megaflow mask.
//!
//! Each rule is held once: its match is its subtable's mask plus its
//! bucket's masked key, a sparse [`Miniflow`], and the bucket keeps only
//! the rule's `(priority, value)`. Masking, hashing, and comparing touch
//! only the [`MiniMask`]'s populated 8-byte slots.
//!
//! This is the OpenFlow tables' classifier: priorities, several rules per
//! masked key, wildcard tracking, and hit-count ranking. The megaflow
//! cache has its own single-tier subtables and wide-lane bulk probe
//! ([`MegaflowCache::lookup_bulk`](crate::cache::MegaflowCache::lookup_bulk)),
//! as upstream keeps `dpcls` apart from `classifier`.

use ovs_packet::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

#[derive(Debug)]
struct Subtable<V> {
    mask: FlowMask,
    /// The sparse form every probe actually uses.
    mini_mask: MiniMask,
    /// Masked key (sparse, canonical) → the `(priority, value)` of every
    /// rule matching it, highest priority first.
    rules: HashMap<Miniflow, Vec<(i32, V)>>,
    max_priority: i32,
    rule_count: usize,
    /// Lookups this subtable answered (the ranking key). A `Cell`, so a
    /// lookup can count the hit through the shared borrow that holds its
    /// winning rule.
    hits: Cell<u64>,
}

/// Statistics from lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassifierStats {
    /// Subtables probed, summed over lookups (the classifier's work
    /// metric).
    pub subtables_probed: u64,
}

/// Lookups between subtable-ranking re-sorts (OVS re-sorts its pvector
/// once per second; a lookup count is the deterministic stand-in).
pub const DEFAULT_RANK_INTERVAL: u64 = 256;

/// The tuple-space-search classifier.
#[derive(Debug)]
pub struct Classifier<V> {
    subtables: Vec<Subtable<V>>,
    /// Probe counters.
    pub stats: ClassifierStats,
    since_rank: u64,
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
            since_rank: 0,
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

    /// Insert a rule matching `key` under `mask`. Replaces the value of
    /// an identical (masked key, mask, priority) rule.
    pub fn insert(&mut self, key: &FlowKey, mask: FlowMask, priority: i32, value: V) {
        let masked = Miniflow::from_key(&key.masked(&mask));
        let idx = match self.subtables.iter().position(|s| s.mask == mask) {
            Some(i) => i,
            None => {
                self.subtables.push(Subtable {
                    mask,
                    mini_mask: MiniMask::from_mask(&mask),
                    rules: HashMap::new(),
                    max_priority: i32::MIN,
                    rule_count: 0,
                    hits: Cell::new(0),
                });
                self.subtables.len() - 1
            }
        };
        let st = &mut self.subtables[idx];
        st.max_priority = st.max_priority.max(priority);
        match st.rules.entry(masked) {
            // A new bucket holds exactly its one rule.
            Entry::Vacant(v) => {
                v.insert(vec![(priority, value)]);
                st.rule_count += 1;
            }
            Entry::Occupied(mut o) => {
                let bucket = o.get_mut();
                match bucket.binary_search_by_key(&Reverse(priority), |&(p, _)| Reverse(p)) {
                    Ok(i) => bucket[i].1 = value,
                    Err(i) => {
                        bucket.insert(i, (priority, value));
                        st.rule_count += 1;
                    }
                }
            }
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
            .sort_by_key(|s| (Reverse(s.max_priority), Reverse(s.hits.get())));
    }

    /// Re-rank every [`DEFAULT_RANK_INTERVAL`] lookups. Runs *before* the
    /// probe loop so subtable indices stay stable for the rest of a
    /// lookup.
    fn maybe_rerank(&mut self) {
        self.since_rank += 1;
        if self.since_rank >= DEFAULT_RANK_INTERVAL {
            self.since_rank = 0;
            self.sort_subtables();
        }
    }

    /// Find the highest-priority matching rule and return its
    /// `(priority, value)`. Also counts how many subtables were probed
    /// (the classifier's work metric), and feeds the hit-count ranking
    /// that periodically re-sorts the vector.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<(i32, &V)> {
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
    /// dpcls winner probe-order dependent). The winner's subtable is
    /// probed, so its mask is in `wc`; a miss never stops early, so it
    /// unites every subtable's mask.
    pub fn lookup_mini(
        &mut self,
        key: &Miniflow,
        mut wc: Option<&mut FlowMask>,
    ) -> Option<(i32, &V)> {
        self.maybe_rerank();
        // The winner's subtable and rule, kept from the probe that found
        // them.
        let mut best: Option<(&Subtable<V>, &(i32, V))> = None;
        for st in &self.subtables {
            if let Some((_, &(priority, _))) = best {
                if st.max_priority <= priority {
                    break; // no remaining subtable can outrank the match
                }
            }
            self.stats.subtables_probed += 1;
            if let Some(wc) = wc.as_deref_mut() {
                wc.unite(&st.mask);
            }
            if let Some(bucket) = st.rules.get(&st.mini_mask.apply(key)) {
                // Buckets are sorted by descending priority.
                let r = &bucket[0];
                if best.is_none_or(|(_, b)| r.0 > b.0) {
                    best = Some((st, r));
                }
            }
        }
        let (st, (priority, value)) = best?;
        st.hits.set(st.hits.get() + 1);
        Some((*priority, value))
    }

    /// Union of every subtable mask: every field some rule matches on.
    pub fn total_mask(&self) -> FlowMask {
        let mut m = FlowMask::EMPTY;
        for st in &self.subtables {
            m.unite(&st.mask);
        }
        m
    }

    /// Iterate over every rule's value (diagnostics, rule dumps).
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.subtables
            .iter()
            .flat_map(|s| s.rules.values().flatten())
            .map(|(_, v)| v)
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

    /// Insert a rule matching the `plen`-bit prefix of `ip`.
    fn insert(c: &mut Classifier<u32>, ip: [u8; 4], plen: u8, prio: i32, v: u32) {
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(plen);
        c.insert(&key_dst(ip), mask, prio, v);
    }

    /// The winning rule's value.
    fn value(c: &mut Classifier<u32>, ip: [u8; 4]) -> Option<u32> {
        c.lookup(&key_dst(ip)).map(|(_, &v)| v)
    }

    #[test]
    fn highest_priority_wins_across_subtables() {
        let mut c = Classifier::new();
        insert(&mut c, [10, 0, 0, 0], 8, 1, 100); // /8 low prio
        insert(&mut c, [10, 1, 0, 0], 16, 10, 200); // /16 high prio
        assert_eq!(c.subtable_count(), 2);

        assert_eq!(c.lookup(&key_dst([10, 1, 2, 3])), Some((10, &200)));
        // Outside the /16, the /8 matches.
        assert_eq!(c.lookup(&key_dst([10, 9, 9, 9])), Some((1, &100)));
        assert!(c.lookup(&key_dst([11, 0, 0, 1])).is_none());
    }

    #[test]
    fn early_exit_when_match_outranks_rest() {
        let mut c = Classifier::new();
        insert(&mut c, [10, 1, 0, 0], 16, 10, 1); // probed first (max prio)
        insert(&mut c, [10, 0, 0, 0], 8, 1, 2);
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
            insert(&mut c, [10, 0, 0, i], 32, 5, u32::from(i));
        }
        assert_eq!(c.subtable_count(), 1);
        assert_eq!(c.len(), 100);
        assert_eq!(value(&mut c, [10, 0, 0, 42]), Some(42));
    }

    #[test]
    fn replace_same_key_mask_priority() {
        let mut c = Classifier::new();
        insert(&mut c, [1, 1, 1, 1], 32, 5, 1);
        insert(&mut c, [1, 1, 1, 1], 32, 5, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(value(&mut c, [1, 1, 1, 1]), Some(2));
    }

    #[test]
    fn same_masked_key_different_priorities() {
        let mut c = Classifier::new();
        insert(&mut c, [1, 1, 1, 1], 32, 5, 1);
        insert(&mut c, [1, 1, 1, 1], 32, 9, 2);
        insert(&mut c, [1, 1, 1, 1], 32, 7, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.lookup(&key_dst([1, 1, 1, 1])), Some((9, &2)));
        let mut values: Vec<u32> = c.iter().copied().collect();
        values.sort_unstable();
        assert_eq!(values, [1, 2, 3]);
    }

    #[test]
    fn total_mask_unions_subtables() {
        let mut c = Classifier::new();
        insert(&mut c, [10, 0, 0, 0], 8, 1, 1);
        let mut m2 = FlowMask::EMPTY;
        m2.set_field(&fields::TP_DST);
        c.insert(&FlowKey::default(), m2, 2, 9);
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
        for (i, plen) in (25..=32).rev().enumerate() {
            insert(&mut c, [10, i as u8, 0, 0], plen, 5, i as u32);
        }
        assert_eq!(c.subtable_count(), 8);
        let hot = [10, 7, 0, 0]; // matches the /25 inserted last
        let interval = DEFAULT_RANK_INTERVAL;
        for _ in 1..interval {
            assert_eq!(value(&mut c, hot), Some(7));
        }
        assert_eq!(
            c.stats.subtables_probed,
            (interval - 1) * 8,
            "hot subtable probed last, pre-rank"
        );
        // The interval's last lookup re-ranks before it probes: the hot
        // subtable now leads the vector and every lookup stops after one
        // probe.
        c.stats = ClassifierStats::default();
        for _ in 0..8 {
            assert_eq!(value(&mut c, hot), Some(7));
        }
        assert_eq!(c.stats.subtables_probed, 8, "ranked: one probe each");
    }

    #[test]
    fn ranking_never_reorders_across_priorities() {
        // A hammered low-priority subtable must not outrank a
        // higher-priority one — early exit depends on priority order.
        let mut c = Classifier::new();
        insert(&mut c, [10, 1, 0, 0], 16, 10, 1); // high priority
        insert(&mut c, [10, 0, 0, 0], 8, 1, 2); // low priority, hot
        let lookups = 2 * DEFAULT_RANK_INTERVAL;
        for _ in 0..lookups {
            // Hits only the /8 (outside the /16).
            assert_eq!(value(&mut c, [10, 9, 9, 9]), Some(2));
        }
        // Every lookup probed the /16 before the /8, re-ranks included.
        assert_eq!(c.stats.subtables_probed, lookups * 2);
        // The /16 keeps probe precedence despite zero hits, so a key
        // matching both gets the high-priority rule from one probe.
        c.stats = ClassifierStats::default();
        assert_eq!(value(&mut c, [10, 1, 2, 3]), Some(1));
        assert_eq!(c.stats.subtables_probed, 1, "priority order preserved");
    }

    #[test]
    fn lookup_mini_equals_lookup() {
        let mut c = Classifier::new();
        insert(&mut c, [10, 1, 0, 0], 16, 10, 1);
        insert(&mut c, [10, 0, 0, 0], 8, 1, 2);
        for ip in [[10, 1, 2, 3], [10, 9, 9, 9], [8, 8, 8, 8]] {
            let k = key_dst(ip);
            let scalar = c.lookup(&k).map(|(p, &v)| (p, v));
            let mini = c
                .lookup_mini(&Miniflow::from_key(&k), None)
                .map(|(p, &v)| (p, v));
            assert_eq!(scalar, mini, "ip {ip:?}");
        }
    }

    #[test]
    fn wildcard_all_rule_matches_everything() {
        let mut c = Classifier::new();
        c.insert(&FlowKey::default(), FlowMask::EMPTY, 0, 7);
        assert_eq!(value(&mut c, [8, 8, 8, 8]), Some(7));
        let mut k = FlowKey::default();
        k.set_tp_src(9999);
        assert_eq!(c.lookup(&k), Some((0, &7)));
    }
}
