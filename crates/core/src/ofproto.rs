//! The OpenFlow-style pipeline and slow-path translation.
//!
//! `ofproto` holds the multi-table rule set the controller (NSX)
//! installs. The datapath never consults it per packet; instead, a cache
//! miss **upcalls** here, the pipeline is traversed once
//! ([`Ofproto::translate`]), and the traversal is folded into a single
//! megaflow: the final action list plus the union of every mask the
//! traversal examined. Connection tracking is a freeze point: `ct()`
//! recirculates, so a packet that hits the firewall passes through the
//! datapath multiple times (§5.1 describes three passes in the NSX
//! pipeline).
//!
//! Each table is a [`Classifier`] over [`RuleEntry`] handles: the entry
//! holds the rule, and the classifier files only its priority and handle
//! under its subtable's mask and masked key, so no rule carries a second
//! copy of its key and mask.

use crate::classifier::Classifier;
use crate::dpif::{DpAction, PortNo};
use ovs_packet::flow::fields;
use ovs_packet::{FlowKey, FlowMask, MacAddr, Miniflow};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Maximum tables traversed in one translation (loop guard).
const MAX_TABLE_HOPS: usize = 64;

thread_local! {
    /// The last table version handed out. Every [`Ofproto`] on the thread
    /// draws from this one counter, so a table swapped in whole never
    /// carries a version some ukey already checked another table at. An
    /// `Ofproto` holds `Rc`s and so never leaves its thread.
    static LAST_VERSION: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A table version no [`Ofproto`] on this thread has had before.
fn next_version() -> u64 {
    LAST_VERSION.with(|v| {
        v.set(v.get() + 1);
        v.get()
    })
}

/// An OpenFlow action.
#[derive(Debug, Clone, PartialEq)]
pub enum OfAction {
    /// Output to a datapath port.
    Output(PortNo),
    /// Continue matching at another table.
    Goto(u8),
    /// Set tunnel id and remote endpoint for a later tunnel-port output.
    SetTunnel { id: u64, dst: [u8; 4] },
    /// Write the pipeline metadata register.
    SetMetadata(u64),
    /// Rewrite the Ethernet source address.
    SetEthSrc(MacAddr),
    /// Rewrite the Ethernet destination address.
    SetEthDst(MacAddr),
    /// Push an 802.1Q tag.
    PushVlan(u16),
    /// Pop the 802.1Q tag.
    PopVlan,
    /// Send through conntrack in `zone` (optionally committing with a NAT
    /// mapping), then resume the pipeline at `resume_table` (via
    /// recirculation).
    Ct {
        zone: u16,
        commit: bool,
        resume_table: u8,
        nat: Option<ovs_ct::NatSpec>,
    },
    /// Rate-limit through a meter.
    Meter(u32),
    /// Hand the packet to NF service chain `chain_id` (ovs-nfv).
    /// Terminal: the chain's verdicts take over packet fate.
    NfChain(u32),
    /// Drop explicitly.
    Drop,
}

/// An OpenFlow rule.
#[derive(Debug, Clone, PartialEq)]
pub struct OfRule {
    pub table: u8,
    pub priority: i32,
    pub key: FlowKey,
    pub mask: FlowMask,
    pub actions: Vec<OfAction>,
    /// Controller bookkeeping id.
    pub cookie: u64,
}

/// An installed rule plus the stats the revalidator pushes back into it
/// (`n_packets`/`n_bytes`, what `ovs-ofctl dump-flows` reports). OVS
/// calls this `rule_dpif`; stats flow up from the caches via
/// `xlate_push_stats`, never down.
#[derive(Debug, PartialEq)]
pub struct RuleEntry {
    pub rule: OfRule,
    /// Packets attributed to this rule (upcalled + cache-pushed).
    pub n_packets: std::cell::Cell<u64>,
    /// Bytes attributed to this rule.
    pub n_bytes: std::cell::Cell<u64>,
}

impl RuleEntry {
    /// Credit `packets`/`bytes` to this rule's OpenFlow stats.
    pub fn credit(&self, packets: u64, bytes: u64) {
        self.n_packets.set(self.n_packets.get() + packets);
        self.n_bytes.set(self.n_bytes.get() + bytes);
    }
}

/// The outcome of a slow-path traversal: the megaflow to install.
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// Datapath actions (empty = drop).
    pub actions: Vec<DpAction>,
    /// Accumulated wildcards: every field the traversal looked at.
    pub mask: FlowMask,
    /// Tables visited.
    pub tables_visited: u32,
    /// Every rule the traversal matched, in match order — the xlate
    /// cache that stats pushback credits (each rule on the path sees
    /// every packet the megaflow forwards).
    pub rules: Vec<Rc<RuleEntry>>,
}

/// Continuation state for a recirculation id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResumeCtx {
    table: u8,
    metadata: u64,
}

/// Translation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfprotoStats {
    pub translations: u64,
    pub table_lookups: u64,
}

/// The OpenFlow switch model.
pub struct Ofproto {
    /// Table id → its rules, each held once as the classifier's value.
    tables: BTreeMap<u8, Classifier<Rc<RuleEntry>>>,
    /// Changes whenever the tables do; see [`Ofproto::version`].
    version: u64,
    recirc: HashMap<u32, ResumeCtx>,
    next_recirc_id: u32,
    /// Counters.
    pub stats: OfprotoStats,
}

impl Default for Ofproto {
    fn default() -> Self {
        Self::new()
    }
}

impl Ofproto {
    /// An empty pipeline (all misses drop, as OpenFlow 1.3+ default).
    pub fn new() -> Self {
        Self {
            tables: BTreeMap::new(),
            version: next_version(),
            recirc: HashMap::new(),
            next_recirc_id: 1,
            stats: OfprotoStats::default(),
        }
    }

    /// The version of the rule tables (OVS's `reval_seq`). A translation
    /// reads only the tables and the key, so a flow translated at this
    /// version translates the same way until the version changes.
    /// Versions are unique across every `Ofproto` on the thread.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Install a rule (`ovs-ofctl add-flow`).
    pub fn add_rule(&mut self, rule: OfRule) {
        self.version = next_version();
        let table = self.tables.entry(rule.table).or_default();
        let (key, mask, priority) = (rule.key, rule.mask, rule.priority);
        let entry = Rc::new(RuleEntry {
            rule,
            n_packets: std::cell::Cell::new(0),
            n_bytes: std::cell::Cell::new(0),
        });
        table.insert(&key, mask, priority, entry);
    }

    /// Iterate every installed rule, table by table (for `ovs-ofctl
    /// dump-flows`).
    pub fn iter_rules(&self) -> impl Iterator<Item = &Rc<RuleEntry>> + '_ {
        self.tables.values().flat_map(Classifier::iter)
    }

    /// Total rules across tables.
    pub fn rule_count(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Number of populated tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Count the distinct named match fields used across all rules —
    /// Table 3's "matching fields among all rules".
    pub fn distinct_match_fields(&self) -> usize {
        let mut total = FlowMask::EMPTY;
        for t in self.tables.values() {
            total.unite(&t.total_mask());
        }
        fields::ALL
            .iter()
            .filter(|f| {
                let fm = FlowMask::of_fields(&[f]);
                // The field counts if any of its bits are significant
                // somewhere and it is not wholly shadowed: we count a
                // field when ALL its bits appear (the generator matches
                // whole fields).
                fm.subset_of(&total)
            })
            .count()
    }

    /// Translate one flow through the pipeline from table 0 (or the
    /// recirculation continuation if `key.recirc_id() != 0`).
    pub fn translate(&mut self, key: &FlowKey) -> Translation {
        self.translate_traced(key, None)
    }

    /// [`translate`](Self::translate), recording each table decision into
    /// an `ofproto/trace` context when one is attached.
    pub fn translate_traced(
        &mut self,
        key: &FlowKey,
        mut trace: Option<&mut ovs_obs::TraceCtx>,
    ) -> Translation {
        self.stats.translations += 1;
        let mut wc = FlowMask::of_fields(&[&fields::IN_PORT, &fields::RECIRC_ID]);
        let mut actions = Vec::new();
        let mut matched: Vec<Rc<RuleEntry>> = Vec::new();
        let mut work_key = *key;

        let mut table = if key.recirc_id() != 0 {
            match self.recirc.get(&key.recirc_id()) {
                Some(ctx) => {
                    work_key.set_metadata(ctx.metadata);
                    if let Some(t) = trace.as_deref_mut() {
                        t.note(format!(
                            "resuming at table {} (recirc_id 0x{:x}, metadata 0x{:x})",
                            ctx.table,
                            key.recirc_id(),
                            ctx.metadata
                        ));
                    }
                    ctx.table
                }
                None => {
                    // Stale recirc id: drop.
                    if let Some(t) = trace.as_deref_mut() {
                        t.note(format!("stale recirc_id 0x{:x}: drop", key.recirc_id()));
                    }
                    return Translation {
                        actions,
                        mask: wc,
                        tables_visited: 0,
                        rules: matched,
                    };
                }
            }
        } else {
            0
        };

        let mut visited = 0u32;
        for _hop in 0..MAX_TABLE_HOPS {
            visited += 1;
            self.stats.table_lookups += 1;
            let Some(cls) = self.tables.get_mut(&table) else {
                // Empty table: miss -> drop. Nothing here could have
                // matched anything, so no extra wildcards.
                if let Some(t) = trace.as_deref_mut() {
                    t.note(format!("table {table}: empty, miss -> drop"));
                }
                break;
            };
            // The probe unites every subtable it examines into `wc`: the
            // winner's on a hit, and on a miss every subtable, so the
            // megaflow is as specific as anything that could have matched.
            let mf = Miniflow::from_key(&work_key);
            let Some((_, entry)) = cls.lookup_mini(&mf, Some(&mut wc)) else {
                if let Some(t) = trace.as_deref_mut() {
                    t.note(format!("table {table}: no match -> drop"));
                }
                break;
            };
            let entry = Rc::clone(entry);
            matched.push(Rc::clone(&entry));
            let rule = &entry.rule;
            if let Some(t) = trace.as_deref_mut() {
                t.note(format!(
                    "table {table}: matched priority {} cookie 0x{:x}, actions {:?}",
                    rule.priority, rule.cookie, rule.actions
                ));
            }

            let mut next_table: Option<u8> = None;
            for act in &rule.actions {
                match act {
                    OfAction::Output(p) => actions.push(DpAction::Output(*p)),
                    OfAction::Goto(t) => next_table = Some(*t),
                    OfAction::SetTunnel { id, dst } => {
                        actions.push(DpAction::SetTunnel { id: *id, dst: *dst })
                    }
                    OfAction::SetMetadata(v) => {
                        work_key.set_metadata(*v);
                        wc.set_field(&fields::METADATA);
                    }
                    OfAction::SetEthSrc(m) => actions.push(DpAction::SetEthSrc(*m)),
                    OfAction::SetEthDst(m) => actions.push(DpAction::SetEthDst(*m)),
                    OfAction::PushVlan(tci) => actions.push(DpAction::PushVlan(*tci)),
                    OfAction::PopVlan => actions.push(DpAction::PopVlan),
                    OfAction::Meter(id) => actions.push(DpAction::Meter(*id)),
                    OfAction::Ct {
                        zone,
                        commit,
                        resume_table,
                        nat,
                    } => {
                        // Freeze: conntrack + recirculate; translation of
                        // the rest happens on the next upcall.
                        let rid = self.alloc_recirc(*resume_table, work_key.metadata());
                        if let Some(t) = trace.as_deref_mut() {
                            t.note(format!(
                                "ct(zone={zone}): freeze, resume at table {resume_table} \
                                 via recirc(0x{rid:x})"
                            ));
                        }
                        actions.push(DpAction::Ct {
                            zone: *zone,
                            commit: *commit,
                            nat: *nat,
                        });
                        actions.push(DpAction::Recirc(rid));
                        return Translation {
                            actions,
                            mask: wc,
                            tables_visited: visited,
                            rules: matched,
                        };
                    }
                    OfAction::NfChain(id) => {
                        // Terminal like Drop: once a packet enters a
                        // service chain, the chain's verdicts (forward /
                        // drop / steer) decide what happens next.
                        if let Some(t) = trace.as_deref_mut() {
                            t.note(format!("table {table}: enter nf chain {id}"));
                        }
                        actions.push(DpAction::NfChain(*id));
                        return Translation {
                            actions,
                            mask: wc,
                            tables_visited: visited,
                            rules: matched,
                        };
                    }
                    OfAction::Drop => {
                        if let Some(t) = trace.as_deref_mut() {
                            t.note(format!("table {table}: explicit drop"));
                        }
                        return Translation {
                            actions: Vec::new(),
                            mask: wc,
                            tables_visited: visited,
                            rules: matched,
                        };
                    }
                }
            }
            match next_table {
                Some(t) => table = t,
                None => break,
            }
        }
        Translation {
            actions,
            mask: wc,
            tables_visited: visited,
            rules: matched,
        }
    }

    fn alloc_recirc(&mut self, table: u8, metadata: u64) -> u32 {
        // Reuse an existing id for the same continuation so megaflows
        // stay shared.
        if let Some((id, _)) = self
            .recirc
            .iter()
            .find(|(_, c)| c.table == table && c.metadata == metadata)
        {
            return *id;
        }
        let id = self.next_recirc_id;
        self.next_recirc_id += 1;
        self.recirc.insert(id, ResumeCtx { table, metadata });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::flow::fields::{IN_PORT, NW_DST, TP_DST};

    fn key_on_port(p: u32) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_in_port(p);
        k.set_eth_type(ovs_packet::EtherType::Ipv4);
        k.set_nw_dst_v4([10, 0, 0, 2]);
        k.set_tp_dst(80);
        k
    }

    fn simple_rule(table: u8, prio: i32, port: u32, actions: Vec<OfAction>) -> OfRule {
        let mut key = FlowKey::default();
        key.set_in_port(port);
        OfRule {
            table,
            priority: prio,
            key,
            mask: FlowMask::of_fields(&[&IN_PORT]),
            actions,
            cookie: 0,
        }
    }

    #[test]
    fn single_table_output() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(0, 10, 1, vec![OfAction::Output(2)]));
        let t = of.translate(&key_on_port(1));
        assert_eq!(t.actions, vec![DpAction::Output(2)]);
        assert_eq!(t.tables_visited, 1);
        // in_port examined -> wildcards include it.
        assert!(FlowMask::of_fields(&[&IN_PORT]).subset_of(&t.mask));
    }

    #[test]
    fn miss_drops_with_conservative_mask() {
        let mut of = Ofproto::new();
        // A rule matching tp_dst in table 0; our packet misses it.
        let mut key = FlowKey::default();
        key.set_tp_dst(443);
        of.add_rule(OfRule {
            table: 0,
            priority: 5,
            key,
            mask: FlowMask::of_fields(&[&TP_DST]),
            actions: vec![OfAction::Output(9)],
            cookie: 0,
        });
        let t = of.translate(&key_on_port(1));
        assert!(t.actions.is_empty(), "miss drops");
        // The megaflow must match on tp_dst so port-443 traffic doesn't
        // share the drop flow.
        assert!(FlowMask::of_fields(&[&TP_DST]).subset_of(&t.mask));
    }

    #[test]
    fn goto_chains_tables_and_unions_masks() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(0, 10, 1, vec![OfAction::Goto(5)]));
        let mut k5 = FlowKey::default();
        k5.set_nw_dst_v4([10, 0, 0, 2]);
        of.add_rule(OfRule {
            table: 5,
            priority: 1,
            key: k5,
            mask: FlowMask::of_fields(&[&NW_DST]),
            actions: vec![OfAction::Output(3)],
            cookie: 0,
        });
        let t = of.translate(&key_on_port(1));
        assert_eq!(t.actions, vec![DpAction::Output(3)]);
        assert_eq!(t.tables_visited, 2);
        assert!(FlowMask::of_fields(&[&IN_PORT, &NW_DST]).subset_of(&t.mask));
    }

    #[test]
    fn ct_freezes_translation_and_resume_continues() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(
            0,
            10,
            1,
            vec![OfAction::Ct {
                zone: 7,
                commit: true,
                resume_table: 20,
                nat: None,
            }],
        ));
        of.add_rule(OfRule {
            table: 20,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Output(4)],
            cookie: 0,
        });
        let t1 = of.translate(&key_on_port(1));
        let [DpAction::Ct {
            zone: 7,
            commit: true,
            nat: None,
        }, DpAction::Recirc(rid)] = t1.actions[..]
        else {
            panic!("expected ct+recirc, got {:?}", t1.actions);
        };
        // Second pass: recirculated key resumes at table 20.
        let mut k2 = key_on_port(1);
        k2.set_recirc_id(rid);
        let t2 = of.translate(&k2);
        assert_eq!(t2.actions, vec![DpAction::Output(4)]);
    }

    #[test]
    fn recirc_ids_are_shared_for_same_continuation() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(
            0,
            10,
            1,
            vec![OfAction::Ct {
                zone: 1,
                commit: false,
                resume_table: 9,
                nat: None,
            }],
        ));
        let t1 = of.translate(&key_on_port(1));
        let t2 = of.translate(&key_on_port(1));
        assert_eq!(t1.actions, t2.actions, "same continuation, same recirc id");
    }

    #[test]
    fn metadata_steers_later_tables() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(
            0,
            10,
            1,
            vec![OfAction::SetMetadata(0xab), OfAction::Goto(1)],
        ));
        let mut kmeta = FlowKey::default();
        kmeta.set_metadata(0xab);
        of.add_rule(OfRule {
            table: 1,
            priority: 1,
            key: kmeta,
            mask: FlowMask::of_fields(&[&fields::METADATA]),
            actions: vec![OfAction::Output(8)],
            cookie: 0,
        });
        let t = of.translate(&key_on_port(1));
        assert_eq!(t.actions, vec![DpAction::Output(8)]);
    }

    #[test]
    fn explicit_drop_clears_actions() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(
            0,
            10,
            1,
            vec![OfAction::Output(2), OfAction::Drop],
        ));
        let t = of.translate(&key_on_port(1));
        assert!(t.actions.is_empty());
    }

    #[test]
    fn stale_recirc_id_drops() {
        let mut of = Ofproto::new();
        let mut k = key_on_port(1);
        k.set_recirc_id(999);
        let t = of.translate(&k);
        assert!(t.actions.is_empty());
    }

    #[test]
    fn stats_and_counts() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(0, 1, 1, vec![OfAction::Output(1)]));
        of.add_rule(simple_rule(3, 1, 2, vec![OfAction::Output(1)]));
        assert_eq!(of.rule_count(), 2);
        assert_eq!(of.table_count(), 2);
        of.translate(&key_on_port(1));
        assert_eq!(of.stats.translations, 1);
        assert!(of.distinct_match_fields() >= 1);
    }

    #[test]
    fn translation_records_matched_rules_for_stats_pushback() {
        let mut of = Ofproto::new();
        of.add_rule(simple_rule(0, 10, 1, vec![OfAction::Goto(5)]));
        let mut k5 = FlowKey::default();
        k5.set_nw_dst_v4([10, 0, 0, 2]);
        of.add_rule(OfRule {
            table: 5,
            priority: 1,
            key: k5,
            mask: FlowMask::of_fields(&[&NW_DST]),
            actions: vec![OfAction::Output(3)],
            cookie: 0,
        });
        let t = of.translate(&key_on_port(1));
        assert_eq!(t.rules.len(), 2, "every rule on the path is recorded");
        for r in &t.rules {
            r.credit(7, 700);
        }
        let pkts: Vec<u64> = of.iter_rules().map(|r| r.n_packets.get()).collect();
        assert_eq!(pkts, vec![7, 7], "both rules credited");
        let bytes: u64 = of.iter_rules().map(|r| r.n_bytes.get()).sum();
        assert_eq!(bytes, 1400);
    }

    #[test]
    fn table_loop_is_bounded() {
        let mut of = Ofproto::new();
        // Table 0 -> table 1 -> table 0 forever.
        of.add_rule(simple_rule(0, 1, 1, vec![OfAction::Goto(1)]));
        of.add_rule(OfRule {
            table: 1,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Goto(0)],
            cookie: 0,
        });
        let t = of.translate(&key_on_port(1));
        assert!(t.tables_visited as usize <= MAX_TABLE_HOPS);
    }
}
