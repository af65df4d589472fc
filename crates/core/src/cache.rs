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
//! 3. **Megaflow cache** — the dpcls: a tuple-space-search table over
//!    the wildcarded entries produced by slow-path translation. Its
//!    subtables hold the entries themselves, one pointer per flow, and
//!    [`MegaflowCache::lookup_bulk`] probes a whole burst against each
//!    subtable in wide lanes.
//! 4. **Upcall** — the full OpenFlow pipeline (`ofproto`), which installs a
//!    new megaflow.
//!
//! Note that level 2 is exactly the structure the kernel maintainers
//! rejected as an eBPF map type (§2.2.2 footnote), which is why the eBPF
//! datapath couldn't have it.

use crate::classifier::DEFAULT_RANK_INTERVAL;
use crate::revalidator::{FlowCounters, Ufid, UfidMap, Ukey};
use ovs_packet::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
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

    /// Count a hit on `e` without probing: `e` is what a lookup of the
    /// same key just returned, and nothing touched the cache since.
    /// Bumps exactly what that lookup bumps.
    pub fn repeat_hit(&mut self, e: Rc<MegaflowEntry<A>>) -> Rc<MegaflowEntry<A>> {
        self.hits += 1;
        e.hits.set(e.hits.get() + 1);
        e
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

/// Default bulk-probe lane width: AVX-512 compares eight 64-bit
/// signatures per instruction, so upstream's vectorized dpcls probes
/// eight keys per subtable pass.
const DEFAULT_LANE_WIDTH: usize = 8;

/// A megaflow as its subtable holds it: the entry's own `Rc`, hashed and
/// compared by its masked key, so a probe finds it by the masked packet
/// miniflow and the subtable keeps one pointer per flow. The key is
/// stable in the set: hashing and equality read only `mini_key`, which
/// no holder of the shared entry can change, never the entry's `Cell`
/// counters. (Clippy's `mutable_key_type` cannot see that, and flags a
/// local binding typed as a set of these; the code binds the subtable
/// instead.)
#[derive(Debug)]
struct SubtableFlow<A>(Rc<MegaflowEntry<A>>);

impl<A> Hash for SubtableFlow<A> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Hash::hash(&self.0.mini_key, state);
    }
}

impl<A> PartialEq for SubtableFlow<A> {
    fn eq(&self, other: &Self) -> bool {
        self.0.mini_key == other.0.mini_key
    }
}

impl<A> Eq for SubtableFlow<A> {}

impl<A> Borrow<Miniflow> for SubtableFlow<A> {
    fn borrow(&self) -> &Miniflow {
        &self.0.mini_key
    }
}

/// One dpcls subtable: the flows installed under one mask. The set keeps
/// std's keyed `RandomState`, because its keys come from packets.
#[derive(Debug)]
struct Subtable<A> {
    mini_mask: MiniMask,
    flows: HashSet<SubtableFlow<A>>,
    /// Lookups this subtable answered (the ranking key).
    hits: u64,
}

/// One dpcls subtable's entry in the ranked probe vector, as dumped by
/// `dpif-netdev/subtable-ranking`.
#[derive(Debug, Clone, Copy)]
pub struct SubtableInfo {
    /// The subtable's wildcard mask.
    pub mask: FlowMask,
    /// Lookup hits (the ranking key).
    pub hits: u64,
    /// Flows installed under this mask.
    pub rules: usize,
}

/// The megaflow cache (upstream's `dpcls`): a priority-free
/// tuple-space-search table of [`MegaflowEntry`]s, one subtable per mask.
/// Every entry has priority 0 and installed entries are disjoint, so the
/// first match in ranked order is *the* match.
#[derive(Debug)]
pub struct MegaflowCache<A> {
    /// The subtables in probe order: sorted by hit count (stable) after
    /// every insert and every [`DEFAULT_RANK_INTERVAL`] lookups.
    subtables: Vec<Subtable<A>>,
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
    /// Lookups since the last re-rank.
    since_rank: u64,
    subtables_probed: u64,
    /// Keys probed per bulk step.
    lane_width: usize,
    lane_steps: u64,
    lane_keys: u64,
    /// The bulk probe's still-unmatched key indices, kept between
    /// lookups so a warm probe allocates nothing.
    remaining: Vec<usize>,
}

impl<A> MegaflowCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            subtables: Vec::new(),
            installed: UfidMap::default(),
            hits: 0,
            misses: 0,
            generation: 0,
            since_rank: 0,
            subtables_probed: 0,
            lane_width: DEFAULT_LANE_WIDTH,
            lane_steps: 0,
            lane_keys: 0,
            remaining: Vec::new(),
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

    /// Flows in the subtables, summed: equal to [`Self::len`] unless the
    /// index and the subtables drifted apart.
    pub(crate) fn subtable_flows(&self) -> usize {
        self.subtables.iter().map(|s| s.flows.len()).sum()
    }

    /// Distinct masks (subtables probed per miss).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Subtables probed so far (work metric).
    pub fn subtables_probed(&self) -> u64 {
        self.subtables_probed
    }

    /// Wide-lane bulk steps executed so far (the bulk-probe work metric:
    /// one step = one ≤`lane_width`-key signature pass over a subtable).
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
    }

    /// Keys carried through bulk steps (occupancy numerator: a fully
    /// packed run has `lane_keys == lane_steps * lane_width`).
    pub fn lane_keys(&self) -> u64 {
        self.lane_keys
    }

    /// Keys probed per bulk step.
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// Set the bulk-probe lane width (1 = scalar-equivalent probing).
    pub fn set_lane_width(&mut self, lane: usize) {
        self.lane_width = lane.max(1);
    }

    /// Snapshot of the dpcls subtables in probe (rank) order, for
    /// `dpif-netdev/subtable-ranking`.
    pub fn subtable_info(&self) -> Vec<SubtableInfo> {
        self.subtables
            .iter()
            .map(|s| SubtableInfo {
                mask: s.mini_mask.expand(),
                hits: s.hits,
                rules: s.flows.len(),
            })
            .collect()
    }

    /// Sort the subtables by hit count. Stable, so re-sorting without new
    /// hits is a no-op.
    fn sort_subtables(&mut self) {
        self.subtables.sort_by_key(|s| std::cmp::Reverse(s.hits));
    }

    /// Count `n` lookups and re-rank once they reach the interval. Runs
    /// before a probe walks the subtables, so their order holds for the
    /// rest of the lookup.
    fn count_lookups(&mut self, n: u64) {
        self.since_rank += n;
        if self.since_rank >= DEFAULT_RANK_INTERVAL {
            self.since_rank = 0;
            self.sort_subtables();
        }
    }

    /// Look up a full key (slow path / diagnostics).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<Rc<MegaflowEntry<A>>> {
        self.lookup_mini(&Miniflow::from_key(key))
    }

    /// Look up one sparse key: the subtables in rank order until the
    /// first whose set holds the key under its mask.
    pub fn lookup_mini(&mut self, key: &Miniflow) -> Option<Rc<MegaflowEntry<A>>> {
        self.count_lookups(1);
        let mut found = None;
        for st in &mut self.subtables {
            self.subtables_probed += 1;
            if let Some(f) = st.flows.get(&st.mini_mask.apply(key)) {
                st.hits += 1;
                found = Some(Rc::clone(&f.0));
                break;
            }
        }
        match found {
            Some(e) => {
                self.hits += 1;
                e.hits.set(e.hits.get() + 1);
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Probe a whole burst of sparse keys in wide lanes: per subtable,
    /// the still-unmatched keys are masked, hashed, and compared in
    /// groups of [`Self::lane_width`] ([`Self::lane_steps`] counts the
    /// groups), and a key that matches leaves the remaining set —
    /// upstream `dpcls_lookup`'s `keys_map` walk over vectorized subtable
    /// probes. First match in ranked order is the match, because every
    /// entry has priority 0 and installed entries are disjoint.
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
        self.count_lookups(keys.len() as u64);
        let lane = self.lane_width;
        let Self {
            subtables,
            hits,
            subtables_probed,
            lane_steps,
            lane_keys,
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
            *subtables_probed += n;
            *lane_keys += n;
            *lane_steps += remaining.len().div_ceil(lane) as u64;
            let Subtable {
                mini_mask,
                flows,
                hits: st_hits,
            } = st;
            remaining.retain(|&ki| match flows.get(&mini_mask.apply(&keys[ki])) {
                Some(f) => {
                    *st_hits += 1;
                    *hits += 1;
                    f.0.hits.set(f.0.hits.get() + 1);
                    results[ki] = Some(Rc::clone(&f.0));
                    false
                }
                None => true,
            });
        }
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

    /// Install a built entry, whose key is masked by its mask.
    /// Reinstalling over an existing masked key (the same UFID, whatever
    /// the mask) kills the old entry: any EMC reference to it must not
    /// survive the replacement.
    pub(crate) fn insert(&mut self, entry: MegaflowEntry<A>) -> Rc<MegaflowEntry<A>> {
        debug_assert_eq!(entry.mini_key, entry.mini_mask.apply(&entry.mini_key));
        self.generation += 1;
        let entry = Rc::new(entry);
        if let Some(old) = self.installed.insert(entry.ufid, Rc::clone(&entry)) {
            old.dead.set(true);
            self.unlink(&old);
        }
        let i = match self
            .subtables
            .iter()
            .position(|s| s.mini_mask == entry.mini_mask)
        {
            Some(i) => i,
            None => {
                self.subtables.push(Subtable {
                    mini_mask: entry.mini_mask,
                    flows: HashSet::new(),
                    hits: 0,
                });
                self.subtables.len() - 1
            }
        };
        let fresh = self.subtables[i]
            .flows
            .insert(SubtableFlow(Rc::clone(&entry)));
        debug_assert!(fresh, "a masked key is installed once");
        self.sort_subtables();
        entry
    }

    /// Unlink an entry from its subtable by its own masked key, dropping
    /// the subtable when it empties.
    fn unlink(&mut self, e: &MegaflowEntry<A>) {
        let Some(i) = self
            .subtables
            .iter()
            .position(|s| s.mini_mask == e.mini_mask)
        else {
            return;
        };
        let st = &mut self.subtables[i];
        st.flows.remove(&e.mini_key);
        if st.flows.is_empty() {
            self.subtables.remove(i);
        }
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
        self.unlink(&e);
        Some(e)
    }

    /// Iterate over installed megaflows in place: subtable by subtable in
    /// rank order, each subtable's flows in its set's order.
    pub fn iter(&self) -> impl Iterator<Item = &Rc<MegaflowEntry<A>>> + '_ {
        self.subtables
            .iter()
            .flat_map(|s| s.flows.iter().map(|f| &f.0))
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

    fn dst(ip: [u8; 4]) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4(ip);
        k
    }

    fn prefix(plen: u8) -> FlowMask {
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(plen);
        mask
    }

    fn actions(results: &[Option<Rc<MegaflowEntry<u32>>>]) -> Vec<Option<u32>> {
        results
            .iter()
            .map(|r| r.as_ref().map(|e| e.actions))
            .collect()
    }

    #[test]
    fn bulk_lookup_matches_scalar() {
        // Two subtables (/16 and /8), a burst mixing hits in each plus
        // misses: the bulk result must equal key-by-key scalar lookups.
        let build = || {
            let mut mf: MegaflowCache<u32> = MegaflowCache::new();
            mf.install(dst([10, 1, 0, 0]), prefix(16), 200);
            mf.install(dst([10, 0, 0, 0]), prefix(8), 100);
            mf
        };
        let minis: Vec<Miniflow> = [
            dst([10, 1, 2, 3]), // /16
            dst([10, 9, 9, 9]), // /8
            dst([99, 0, 0, 1]), // miss
            dst([10, 1, 0, 7]), // /16
        ]
        .iter()
        .map(Miniflow::from_key)
        .collect();
        let mut scalar_mf = build();
        let scalar: Vec<Option<u32>> = minis
            .iter()
            .map(|k| scalar_mf.lookup_mini(k).map(|e| e.actions))
            .collect();
        let mut mf = build();
        let mut results = Vec::new();
        mf.lookup_bulk(&minis, &mut results);
        assert_eq!(actions(&results), scalar);
        assert_eq!(scalar, vec![Some(200), Some(100), None, Some(200)]);
        assert_eq!(
            (mf.hits, mf.misses),
            (3, 0),
            "a bulk probe counts hits only"
        );
    }

    #[test]
    fn bulk_lane_accounting() {
        // One subtable, lane width 8: a 20-key burst takes ceil(20/8) = 3
        // steps and carries 20 keys. A matched key leaves the remaining
        // set, so a second subtable only sees the misses.
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        mf.set_lane_width(8);
        for i in 1..=4u8 {
            mf.install(dst([10, 0, 0, i]), prefix(32), u32::from(i));
        }
        let minis: Vec<Miniflow> = (0..20u8)
            .map(|i| Miniflow::from_key(&dst([10, 0, 0, i])))
            .collect();
        let mut results = Vec::new();
        mf.lookup_bulk(&minis, &mut results);
        assert_eq!(results.iter().flatten().count(), 4);
        assert_eq!(mf.lane_steps(), 3);
        assert_eq!(mf.lane_keys(), 20);
        assert_eq!(mf.subtables_probed(), 20);

        // Add a second subtable (/8 catch-all): the 16 keys unmatched by
        // the /32 subtable carry over, 2 more steps.
        mf.install(dst([10, 0, 0, 0]), prefix(8), 999);
        let (steps, keys) = (mf.lane_steps(), mf.lane_keys());
        mf.lookup_bulk(&minis, &mut results);
        assert_eq!(results.iter().flatten().count(), minis.len());
        // Ranked order puts the hot /32 subtable first (4 prior hits).
        assert_eq!(mf.subtable_info()[0].hits, 4 + 4);
        assert_eq!(mf.lane_steps() - steps, 3 + 2);
        assert_eq!(mf.lane_keys() - keys, 20 + 16);
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
