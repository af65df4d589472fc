//! The datapath flow caches: exact-match cache (EMC), signature match
//! cache (SMC), and megaflow cache.
//!
//! The fast path is a multi-level hierarchy (§5.2, \[56\]):
//!
//! 1. **EMC** — a small exact-match hash over the full flow key; one probe,
//!    no masking.
//! 2. **SMC** — a larger, denser cache of 16-bit hash *signatures* pointing
//!    at megaflows; a hit still verifies the masked key against the
//!    megaflow, so it can never forward on a colliding signature. OVS's
//!    `smc-enable` tier, off by default.
//! 3. **Megaflow cache** — a tuple-space-search table over the wildcarded
//!    entries produced by slow-path translation.
//! 4. **Upcall** — the full OpenFlow pipeline (`ofproto`), which installs a
//!    new megaflow.
//!
//! Note that level 2 is exactly the structure the kernel maintainers
//! rejected as an eBPF map type (§2.2.2 footnote), which is why the eBPF
//! datapath couldn't have it.

use crate::classifier::{Classifier, Rule};
use crate::revalidator::{FlowCounters, Ufid, UfidMap, Ukey};
use ovs_packet::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A cached megaflow: the actions to run and the wildcard mask it was
/// installed under, the per-flow stats the revalidator dumps
/// (`n_packets`/`n_bytes`/`used`, as in `dpctl/dump-flows`), and its
/// ukey — one record per datapath flow.
#[derive(Debug)]
pub struct MegaflowEntry<A> {
    /// The flow's unique ID, the hash of `key`; its index entry is found
    /// by it.
    pub ufid: Ufid,
    /// Masked match key.
    pub key: FlowKey,
    /// Wildcards accumulated during translation.
    pub mask: FlowMask,
    /// Sparse form of `key`, precomputed at install so fast-path verifies
    /// never expand.
    pub mini_key: Miniflow,
    /// Sparse form of `mask`; its populated slots are all a masked verify
    /// or hash touches.
    pub mini_mask: MiniMask,
    /// Datapath actions.
    pub actions: A,
    /// Hits (`n_packets`).
    pub hits: Cell<u64>,
    /// Bytes forwarded (`n_bytes`).
    pub bytes: Cell<u64>,
    /// Sim-time of the last hit (`used`); 0 = never.
    pub used_ns: Cell<u64>,
    /// Sim-time of installation (hard-timeout base).
    pub created_ns: Cell<u64>,
    /// Set when the megaflow is removed from the cache while an EMC
    /// slot (or other holder of the `Rc`) may still reference it; a dead
    /// entry must never forward a packet.
    pub dead: Cell<bool>,
    /// The revalidator's record of the flow: rule refs, pushback marks
    /// and checked table version. Only the upcall, sweep, snapshot and
    /// flush paths touch it, never a cache hit.
    pub ukey: RefCell<Ukey>,
}

impl<A> MegaflowEntry<A> {
    /// A fresh entry for the masked `key`, created at sim-time `now_ns`.
    /// Its UFID is computed here, once; its ukey is the default one until
    /// the datapath records the flow's translation in it.
    pub fn new(key: FlowKey, mask: FlowMask, actions: A, now_ns: u64) -> Self {
        Self {
            ufid: Ufid::of(&key),
            mini_key: Miniflow::from_key(&key),
            mini_mask: MiniMask::from_mask(&mask),
            key,
            mask,
            actions,
            hits: Cell::new(0),
            bytes: Cell::new(0),
            used_ns: Cell::new(now_ns),
            created_ns: Cell::new(now_ns),
            dead: Cell::new(false),
            ukey: RefCell::default(),
        }
    }

    /// Record one forwarded packet of `len` bytes at sim-time `now_ns`.
    /// (The packet count itself is bumped by the cache lookup.)
    pub fn note_use(&self, len: usize, now_ns: u64) {
        self.bytes.set(self.bytes.get() + len as u64);
        self.used_ns.set(now_ns);
    }

    /// The entry's counters as a flow dump returns them.
    pub fn counters(&self) -> FlowCounters {
        (
            self.hits.get(),
            self.bytes.get(),
            self.used_ns.get(),
            self.created_ns.get(),
        )
    }
}

/// Default EMC capacity, as in OVS (`EM_FLOW_HASH_ENTRIES`).
pub const EMC_ENTRIES: usize = 8192;

/// The exact-match cache. Insertion uses OVS's probabilistic policy
/// (insert roughly 1 in `insert_inv_prob` misses) so that churny workloads
/// don't thrash it; eviction is by hash-slot replacement.
#[derive(Debug)]
pub struct Emc<A> {
    slots: Vec<Option<(Miniflow, Rc<MegaflowEntry<A>>)>>,
    mask: usize,
    /// 1/N insertion probability denominator (OVS default 100).
    pub insert_inv_prob: u64,
    insert_counter: u64,
    occupied: usize,
    /// Hit/miss counters.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl<A> Emc<A> {
    /// An EMC with the default size and insertion probability.
    pub fn new() -> Self {
        Self::with_capacity(EMC_ENTRIES)
    }

    /// An EMC with a specific slot count (rounded to a power of two).
    pub fn with_capacity(n: usize) -> Self {
        let cap = n.max(2).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| None).collect(),
            mask: cap - 1,
            insert_inv_prob: 100,
            insert_counter: 0,
            occupied: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Look up the full (unmasked) sparse key; `hash` is the packet's
    /// cached extracted-slot hash ([`Miniflow::hash`], computed once per
    /// packet). The compare is bitmap + packed words — populated slots
    /// only. A slot whose megaflow has been revalidated away
    /// ([`MegaflowEntry::dead`]) counts as a miss and is reclaimed, so a
    /// stale EMC entry can never forward a packet.
    pub fn lookup(&mut self, key: &Miniflow, hash: u64) -> Option<Rc<MegaflowEntry<A>>> {
        let slot = (hash as usize) & self.mask;
        match &self.slots[slot] {
            Some((k, e)) if k == key => {
                if e.dead.get() {
                    self.slots[slot] = None;
                    self.occupied -= 1;
                    self.misses += 1;
                    return None;
                }
                self.hits += 1;
                e.hits.set(e.hits.get() + 1);
                Some(Rc::clone(e))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Offer an entry for insertion after a miss; inserted with
    /// probability 1/`insert_inv_prob` (deterministic round-robin stand-in
    /// for OVS's RNG). Returns whether it was inserted.
    pub fn maybe_insert(&mut self, key: Miniflow, hash: u64, entry: Rc<MegaflowEntry<A>>) -> bool {
        self.insert_counter += 1;
        if !self.insert_counter.is_multiple_of(self.insert_inv_prob) {
            return false;
        }
        self.insert(key, hash, entry);
        true
    }

    /// Insert unconditionally.
    pub fn insert(&mut self, key: Miniflow, hash: u64, entry: Rc<MegaflowEntry<A>>) {
        let slot = (hash as usize) & self.mask;
        if self.slots[slot].is_none() {
            self.occupied += 1;
        }
        self.slots[slot] = Some((key, entry));
    }

    /// Drop everything (flow-table revalidation).
    pub fn flush(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.occupied = 0;
    }

    /// Reclaim every slot whose megaflow is dead (end-of-sweep cleanup;
    /// the lookup path also reclaims lazily). Returns slots freed.
    pub fn purge_dead(&mut self) -> usize {
        let mut freed = 0;
        for s in &mut self.slots {
            if matches!(s, Some((_, e)) if e.dead.get()) {
                *s = None;
                freed += 1;
            }
        }
        self.occupied -= freed;
        freed
    }
}

impl<A> Default for Emc<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default SMC bucket count. Real OVS sizes the SMC at 1M entries in
/// 4-way buckets (`SMC_ENTRIES`); scaled here to stay proportional to
/// the 8k-entry EMC while remaining several times larger.
pub const SMC_BUCKETS: usize = 16384;

/// Associativity of one SMC bucket.
pub const SMC_WAYS: usize = 4;

/// The signature match cache: a large, dense cache mapping the upper 16
/// bits of the flow hash to a megaflow reference. Because only a
/// signature is stored, a probe must verify the candidate megaflow's
/// masked key against the packet before trusting it — which also makes
/// revalidator dead-flagging safe: a hit on a dead megaflow misses (and
/// reclaims the slot), exactly like the EMC.
/// One SMC way: the 16-bit signature and the megaflow it vouches for.
type SmcWay<A> = Option<(u16, Rc<MegaflowEntry<A>>)>;

#[derive(Debug)]
pub struct Smc<A> {
    buckets: Vec<[SmcWay<A>; SMC_WAYS]>,
    mask: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    occupied: usize,
}

impl<A> Smc<A> {
    /// An SMC with the default geometry.
    pub fn new() -> Self {
        Self::with_buckets(SMC_BUCKETS)
    }

    /// An SMC with `n` buckets (rounded to a power of two) of
    /// [`SMC_WAYS`] ways each.
    pub fn with_buckets(n: usize) -> Self {
        let cap = n.max(2).next_power_of_two();
        Self {
            buckets: (0..cap).map(|_| [const { None }; SMC_WAYS]).collect(),
            mask: cap - 1,
            hits: 0,
            misses: 0,
            occupied: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    fn slot(hash: u64, mask: usize) -> (usize, u16) {
        ((hash as usize) & mask, (hash >> 16) as u16)
    }

    /// Probe for a sparse key; `hash` is the packet's cached
    /// extracted-slot hash. A signature match alone is not a hit: the
    /// sparse masked verify ([`MiniMask::matches`], populated slots only)
    /// must pass, and the megaflow must be alive. Dead entries are
    /// reclaimed in place.
    pub fn lookup(&mut self, key: &Miniflow, hash: u64) -> Option<Rc<MegaflowEntry<A>>> {
        let (b, sig) = Self::slot(hash, self.mask);
        for way in self.buckets[b].iter_mut() {
            let Some((s, e)) = way else { continue };
            if *s != sig {
                continue;
            }
            if e.dead.get() {
                *way = None;
                self.occupied -= 1;
                continue;
            }
            if e.mini_mask.matches(key, &e.mini_key) {
                self.hits += 1;
                let e = Rc::clone(e);
                e.hits.set(e.hits.get() + 1);
                return Some(e);
            }
        }
        self.misses += 1;
        None
    }

    /// Insert a megaflow reference under the packet hash's signature.
    /// Prefers an empty or same-signature way, then a dead one; otherwise
    /// replaces a way chosen deterministically from the hash (OVS picks a
    /// random way — the simulation must stay reproducible).
    pub fn insert(&mut self, hash: u64, entry: Rc<MegaflowEntry<A>>) {
        let (b, sig) = Self::slot(hash, self.mask);
        let bucket = &mut self.buckets[b];
        let victim = bucket
            .iter()
            .position(|w| matches!(w, Some((s, _)) if *s == sig))
            .or_else(|| bucket.iter().position(|w| w.is_none()))
            .or_else(|| {
                bucket
                    .iter()
                    .position(|w| matches!(w, Some((_, e)) if e.dead.get()))
            })
            .unwrap_or(((hash >> 32) as usize) % SMC_WAYS);
        if bucket[victim].is_none() {
            self.occupied += 1;
        }
        bucket[victim] = Some((sig, entry));
    }

    /// Drop everything (flow-table revalidation).
    pub fn flush(&mut self) {
        for b in &mut self.buckets {
            for w in b.iter_mut() {
                *w = None;
            }
        }
        self.occupied = 0;
    }

    /// Reclaim every way whose megaflow is dead (end-of-sweep cleanup;
    /// the lookup path also reclaims lazily). Returns slots freed.
    pub fn purge_dead(&mut self) -> usize {
        let mut freed = 0;
        for b in &mut self.buckets {
            for w in b.iter_mut() {
                if matches!(w, Some((_, e)) if e.dead.get()) {
                    *w = None;
                    freed += 1;
                }
            }
        }
        self.occupied -= freed;
        freed
    }
}

impl<A> Default for Smc<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// The megaflow cache: a priority-free tuple-space-search table of
/// [`MegaflowEntry`]s.
#[derive(Debug)]
pub struct MegaflowCache<A> {
    cls: Classifier<Rc<MegaflowEntry<A>>>,
    /// The index: UFID → entry, one flow per masked key whatever its
    /// mask. It finds a flow without hashing its key, and its size is
    /// the flow count.
    installed: UfidMap<Rc<MegaflowEntry<A>>>,
    /// Hits.
    pub hits: u64,
    /// Misses (upcalls).
    pub misses: u64,
    /// Bumped on every install and removal. A bulk-probe miss verdict
    /// stays valid as long as the generation is unchanged, so the caller
    /// can skip the scalar re-probe when no flow was installed since.
    generation: u64,
}

impl<A> MegaflowCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            cls: Classifier::new(),
            installed: UfidMap::default(),
            hits: 0,
            misses: 0,
            generation: 0,
        }
    }

    /// Table-change generation (installs and removals).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Count a definitive miss established by an earlier bulk probe
    /// whose verdict is still valid (same [`Self::generation`]).
    pub fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// Number of megaflows.
    pub fn len(&self) -> usize {
        self.installed.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.installed.is_empty()
    }

    /// Rules in the classifier, summed over its subtables: equal to
    /// [`Self::len`] unless the index and the classifier drifted apart.
    pub(crate) fn classifier_len(&self) -> usize {
        self.cls.len()
    }

    /// Distinct masks (subtables probed per miss).
    pub fn subtable_count(&self) -> usize {
        self.cls.subtable_count()
    }

    /// Subtables probed so far (work metric).
    pub fn subtables_probed(&self) -> u64 {
        self.cls.stats.subtables_probed
    }

    /// Wide-lane bulk steps executed so far (the bulk-probe work metric:
    /// one step = one ≤`lane_width`-key signature pass over a subtable).
    pub fn lane_steps(&self) -> u64 {
        self.cls.stats.lane_steps
    }

    /// Keys carried through bulk steps (occupancy numerator).
    pub fn lane_keys(&self) -> u64 {
        self.cls.stats.lane_keys
    }

    /// Keys probed per bulk step.
    pub fn lane_width(&self) -> usize {
        self.cls.lane_width
    }

    /// Set the bulk-probe lane width (1 = scalar-equivalent probing).
    pub fn set_lane_width(&mut self, lane: usize) {
        self.cls.lane_width = lane.max(1);
    }

    /// Snapshot of the dpcls subtables in probe (rank) order, for
    /// `dpif-netdev/subtable-ranking`.
    pub fn subtable_info(&self) -> Vec<crate::classifier::SubtableInfo> {
        self.cls.subtable_info()
    }

    /// Look up a full key (slow path / diagnostics).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<Rc<MegaflowEntry<A>>> {
        self.lookup_mini(&Miniflow::from_key(key))
    }

    /// Look up one sparse key.
    pub fn lookup_mini(&mut self, key: &Miniflow) -> Option<Rc<MegaflowEntry<A>>> {
        match self.cls.lookup_mini(key, None) {
            Some(r) => {
                self.hits += 1;
                let e = Rc::clone(&r.value);
                e.hits.set(e.hits.get() + 1);
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Probe a whole burst of sparse keys in wide lanes (valid here
    /// because every megaflow rule has priority 0 and installed entries
    /// are disjoint — first match in ranked order is *the* match). Keys
    /// leave the probe set as they match; see
    /// [`Classifier::lookup_bulk`].
    ///
    /// Only hits are counted here: the caller re-probes each bulk miss
    /// with a scalar [`Self::lookup_mini`] before upcalling (an earlier
    /// miss in the same burst may have installed the flow), and that
    /// re-probe is where the hit-or-miss verdict lands.
    ///
    /// `results` is cleared and then holds one verdict per key; the
    /// caller keeps it between bursts.
    pub fn lookup_bulk(
        &mut self,
        keys: &[Miniflow],
        results: &mut Vec<Option<Rc<MegaflowEntry<A>>>>,
    ) {
        results.clear();
        results.resize_with(keys.len(), || None);
        let mut hits = 0;
        self.cls.lookup_bulk(keys, |ki, r| {
            hits += 1;
            r.value.hits.set(r.value.hits.get() + 1);
            results[ki] = Some(Rc::clone(&r.value));
        });
        self.hits += hits;
    }

    /// Install a megaflow produced by translation (created/used = 0; the
    /// datapath uses [`install_at`](Self::install_at)).
    pub fn install(&mut self, key: FlowKey, mask: FlowMask, actions: A) -> Rc<MegaflowEntry<A>> {
        self.install_at(key, mask, actions, 0)
    }

    /// Install a megaflow produced by translation at sim-time `now_ns`.
    pub fn install_at(
        &mut self,
        key: FlowKey,
        mask: FlowMask,
        actions: A,
        now_ns: u64,
    ) -> Rc<MegaflowEntry<A>> {
        self.insert(MegaflowEntry::new(key.masked(&mask), mask, actions, now_ns))
    }

    /// Install a built entry. Reinstalling over an existing masked key
    /// (the same UFID, whatever the mask) kills the old entry: any EMC
    /// reference to it must not survive the replacement.
    pub(crate) fn insert(&mut self, entry: MegaflowEntry<A>) -> Rc<MegaflowEntry<A>> {
        self.generation += 1;
        let entry = Rc::new(entry);
        if let Some(old) = self.installed.insert(entry.ufid, Rc::clone(&entry)) {
            old.dead.set(true);
            self.cls.remove(&old.key, &old.mask);
        }
        self.cls.insert(Rule {
            key: entry.key,
            mask: entry.mask,
            priority: 0,
            value: Rc::clone(&entry),
        });
        entry
    }

    /// Whether the megaflow with this UFID is installed.
    pub fn contains(&self, ufid: Ufid) -> bool {
        self.installed.contains_key(&ufid)
    }

    /// Remove one megaflow, marking the entry dead for any EMC holders,
    /// and return it.
    pub fn remove(&mut self, ufid: Ufid) -> Option<Rc<MegaflowEntry<A>>> {
        self.generation += 1;
        let e = self.installed.remove(&ufid)?;
        e.dead.set(true);
        self.cls.remove(&e.key, &e.mask);
        Some(e)
    }

    /// Iterate over installed megaflows (masked key, mask, hits, actions).
    pub fn iter(&self) -> impl Iterator<Item = &Rc<MegaflowEntry<A>>> + '_ {
        self.cls.iter().map(|r| &r.value)
    }
}

impl<A> Default for MegaflowCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::flow::fields;

    fn key(n: u8) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4([10, 0, 0, n]);
        k.set_tp_dst(u16::from(n));
        k
    }

    fn m(n: u8) -> Miniflow {
        Miniflow::from_key(&key(n))
    }

    fn h(n: u8) -> u64 {
        m(n).hash()
    }

    #[test]
    fn emc_hit_after_insert() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 42, 0));
        assert!(emc.lookup(&m(1), h(1)).is_none());
        emc.insert(m(1), h(1), Rc::clone(&e));
        let hit = emc.lookup(&m(1), h(1)).unwrap();
        assert_eq!(hit.actions, 42);
        assert_eq!(hit.hits.get(), 1);
        assert_eq!(emc.hits, 1);
        assert_eq!(emc.misses, 1);
    }

    #[test]
    fn emc_probabilistic_insertion() {
        let mut emc: Emc<u32> = Emc::with_capacity(1024);
        emc.insert_inv_prob = 10;
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        let mut inserted = 0;
        for i in 0..100u8 {
            if emc.maybe_insert(m(i.wrapping_mul(7)), h(i.wrapping_mul(7)), Rc::clone(&e)) {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 10, "1-in-10 insertion policy");
    }

    #[test]
    fn emc_slot_replacement_not_growth() {
        let mut emc: Emc<u32> = Emc::with_capacity(2);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        for i in 0..50u8 {
            emc.insert(m(i), h(i), Rc::clone(&e));
        }
        assert!(emc.len() <= 2, "bounded by capacity");
    }

    #[test]
    fn megaflow_wildcard_hit() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        // Megaflow matching only on nw_dst.
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        mf.install(key(5), mask, 55);
        // Any key with the same nw_dst matches regardless of ports.
        let mut probe = key(5);
        probe.set_tp_dst(9999);
        let hit = mf.lookup(&probe).unwrap();
        assert_eq!(hit.actions, 55);
        assert_eq!(mf.hits, 1);
        assert!(mf.lookup(&key(6)).is_none());
        assert_eq!(mf.misses, 1);
    }

    #[test]
    fn megaflow_remove_returns_the_dead_entry() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let e = mf.install(key(5), mask, 1);
        assert!(Rc::ptr_eq(&mf.remove(e.ufid).unwrap(), &e));
        assert!(e.dead.get());
        assert!(mf.lookup(&key(5)).is_none());
        assert!(mf.remove(e.ufid).is_none(), "removed once");
        assert!(mf.is_empty());
    }

    #[test]
    fn emc_never_serves_dead_entries() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(1), FlowMask::EXACT, 9, 100);
        emc.insert(m(1), h(1), Rc::clone(&e));
        assert!(emc.lookup(&m(1), h(1)).is_some());
        // Revalidation removes the megaflow: the EMC alias must miss.
        assert!(mf.remove(e.ufid).is_some());
        assert!(
            emc.lookup(&m(1), h(1)).is_none(),
            "dead entry served from EMC"
        );
        assert!(emc.is_empty(), "dead slot reclaimed on lookup");
    }

    #[test]
    fn emc_purge_dead_reclaims_slots() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for i in 0..8u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            emc.insert(m(i), h(i), Rc::clone(&e));
            mf.remove(e.ufid); // marks it dead
        }
        assert_eq!(emc.purge_dead(), 8);
        assert!(emc.is_empty());
    }

    #[test]
    fn reinstall_kills_replaced_entry() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let old = mf.install_at(key(5), mask, 1, 10);
        let new = mf.install_at(key(5), mask, 2, 20);
        assert!(old.dead.get(), "replaced entry is dead");
        assert!(!new.dead.get());
        assert_eq!(mf.len(), 1, "replacement, not growth");
        assert_eq!(mf.lookup(&key(5)).unwrap().actions, 2);
    }

    #[test]
    fn entry_stats_accumulate() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(5), FlowMask::EXACT, 1, 50);
        assert_eq!(e.created_ns.get(), 50);
        assert_eq!(e.used_ns.get(), 50);
        e.note_use(100, 60);
        e.note_use(50, 75);
        assert_eq!(e.bytes.get(), 150);
        assert_eq!(e.used_ns.get(), 75);
    }

    #[test]
    fn smc_hit_verifies_masked_key() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let e = mf.install_at(key(5), mask, 55, 0);
        smc.insert(h(5), Rc::clone(&e));
        // The same full key hits via its signature.
        let hit = smc.lookup(&m(5), h(5)).expect("smc hit");
        assert_eq!(hit.actions, 55);
        assert_eq!(smc.hits, 1);
        // A different key (different signature and masked key) misses.
        assert!(smc.lookup(&m(6), h(6)).is_none());
        assert_eq!(smc.misses, 1);
    }

    #[test]
    fn smc_never_serves_dead_entries() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(1), FlowMask::EXACT, 9, 100);
        smc.insert(h(1), Rc::clone(&e));
        assert!(smc.lookup(&m(1), h(1)).is_some());
        // Revalidation removes the megaflow: the SMC alias must miss
        // and the slot is reclaimed in place.
        assert!(mf.remove(e.ufid).is_some());
        assert!(
            smc.lookup(&m(1), h(1)).is_none(),
            "dead entry served from SMC"
        );
        assert!(smc.is_empty(), "dead slot reclaimed on lookup");
    }

    #[test]
    fn smc_purge_dead_and_flush() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mut ufids = Vec::new();
        for i in 0..8u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            ufids.push(e.ufid);
            smc.insert(h(i), e);
        }
        assert_eq!(smc.len(), 8);
        for ufid in ufids {
            mf.remove(ufid); // marks it dead
        }
        assert_eq!(smc.purge_dead(), 8);
        assert!(smc.is_empty());
        let e = mf.install_at(key(9), FlowMask::EXACT, 9, 0);
        smc.insert(h(9), e);
        smc.flush();
        assert!(smc.is_empty());
        assert!(smc.lookup(&m(9), h(9)).is_none());
    }

    #[test]
    fn smc_bounded_by_associativity() {
        // Every insert lands in a 4-way bucket of a 2-bucket SMC: the
        // occupancy can never exceed buckets * ways.
        let mut smc: Smc<u32> = Smc::with_buckets(2);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for i in 0..64u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            smc.insert(h(i), e);
        }
        assert!(smc.len() <= 2 * SMC_WAYS, "bounded by geometry");
    }

    #[test]
    fn emc_flush() {
        let mut emc: Emc<u32> = Emc::with_capacity(16);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        emc.insert(m(1), h(1), e);
        emc.flush();
        assert!(emc.is_empty());
        assert!(emc.lookup(&m(1), h(1)).is_none());
    }
}
