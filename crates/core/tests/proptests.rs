//! Property tests for the classifier, translation and caches: the
//! classifier and the megaflow cache's dpcls must agree with a
//! brute-force linear scan on every lookup, a translation's mask must
//! cover everything that decided it, and cache install/lookup must be
//! consistent.

use ovs_core::cache::{MegaflowCache, MegaflowEntry};
use ovs_core::classifier::Classifier;
use ovs_core::meter::Meter;
use ovs_core::ofproto::{OfAction, OfRule, Ofproto};
use ovs_packet::flow::{fields, FlowKey, FlowMask, Miniflow, WORDS};
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;

/// A classifier rule as the reference scan sees it: match (key under
/// mask), priority, and value.
#[derive(Debug, Clone)]
struct Rule {
    key: FlowKey,
    mask: FlowMask,
    priority: i32,
    value: u32,
}

/// A generated rule: masks restricted to a few plausible shapes so that
/// rules actually overlap with probe keys.
fn arb_rule() -> impl Strategy<Value = Rule> {
    (
        0u8..4,           // mask shape
        any::<[u8; 4]>(), // dst ip
        any::<u16>(),     // port
        0i32..100,        // priority
        any::<u32>(),     // value
        0u8..33,          // prefix length
    )
        .prop_map(|(shape, ip, port, priority, value, plen)| {
            let mut key = FlowKey::default();
            let mut mask = FlowMask::EMPTY;
            match shape {
                0 => {
                    key.set_nw_dst_v4(ip);
                    mask.set_nw_dst_v4_prefix(plen);
                }
                1 => {
                    key.set_tp_dst(port);
                    mask.set_field(&ovs_packet::flow::fields::TP_DST);
                }
                2 => {
                    key.set_nw_dst_v4(ip);
                    key.set_tp_dst(port);
                    mask.set_nw_dst_v4_prefix(plen);
                    mask.set_field(&ovs_packet::flow::fields::TP_DST);
                }
                _ => { /* match-all */ }
            }
            Rule {
                key,
                mask,
                priority,
                value,
            }
        })
}

fn arb_probe() -> impl Strategy<Value = FlowKey> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| {
        let mut k = FlowKey::default();
        // Cluster probes into a small space so rules sometimes match.
        k.set_nw_dst_v4([10, ip[1] % 4, ip[2] % 4, ip[3] % 8]);
        k.set_tp_dst(port % 16);
        k
    })
}

/// The four masks the dpcls property installs under. Each matches
/// `in_port`, so flows on different ports never overlap; an `M0` key
/// with `tp_dst` 0 is an `M1` key too, and an `M1` key ending in .0 is
/// an `M2` key too.
fn dpcls_masks() -> [FlowMask; 4] {
    let port = FlowMask::of_fields(&[&fields::IN_PORT]);
    let (mut m0, mut m1, mut m2, mut m3) = (port, port, port, port);
    m0.set_nw_dst_v4_prefix(32);
    m0.set_field(&fields::TP_DST);
    m1.set_nw_dst_v4_prefix(32);
    m2.set_nw_dst_v4_prefix(24);
    m3.set_field(&fields::TP_DST);
    [m0, m1, m2, m3]
}

/// A table-0 rule of the translation property: it matches `in_port`, an
/// `nw_dst` prefix or `tp_dst`, and outputs, drops, or goes to table 1,
/// optionally setting `metadata` first.
fn arb_table0_rule() -> impl Strategy<Value = OfRule> {
    (
        0u8..3,             // match shape
        (1u32..4, 0u16..4), // in_port, tp_dst
        (0u8..4, 0u8..4),   // nw_dst 10.0.c.d
        22u8..33,           // nw_dst prefix length
        0i32..1000,         // priority
        0u8..3,             // output, drop, goto table 1
        prop::bool::ANY,    // set metadata first
        (0u64..3, 1u32..8), // metadata value, output port
    )
        .prop_map(
            |(shape, (port, tp), (c, d), plen, priority, act, set_meta, (meta, out))| {
                let mut key = FlowKey::default();
                let mut mask = FlowMask::EMPTY;
                match shape {
                    0 => {
                        key.set_in_port(port);
                        mask.set_field(&fields::IN_PORT);
                    }
                    1 => {
                        key.set_nw_dst_v4([10, 0, c, d]);
                        mask.set_nw_dst_v4_prefix(plen);
                    }
                    _ => {
                        key.set_tp_dst(tp);
                        mask.set_field(&fields::TP_DST);
                    }
                }
                let mut actions = Vec::new();
                if set_meta {
                    actions.push(OfAction::SetMetadata(meta));
                }
                actions.push(match act {
                    0 => OfAction::Output(out),
                    1 => OfAction::Drop,
                    _ => OfAction::Goto(1),
                });
                OfRule {
                    table: 0,
                    priority,
                    key,
                    mask,
                    actions,
                    cookie: 0,
                }
            },
        )
}

/// A table-1 rule of the translation property: it matches `metadata`,
/// `tp_src` or an `nw_src` prefix, and outputs or drops.
fn arb_table1_rule() -> impl Strategy<Value = OfRule> {
    (
        0u8..3,             // match shape
        (0u64..3, 0u16..4), // metadata, tp_src
        (0u8..4, 0u8..4),   // nw_src 10.1.c.d
        22u8..33,           // nw_src prefix length
        0i32..1000,         // priority
        prop::bool::ANY,    // drop instead of output
        1u32..8,            // output port
    )
        .prop_map(|(shape, (meta, tp), (c, d), plen, priority, drop, out)| {
            let mut key = FlowKey::default();
            let mut mask = FlowMask::EMPTY;
            match shape {
                0 => {
                    key.set_metadata(meta);
                    mask.set_field(&fields::METADATA);
                }
                1 => {
                    key.set_tp_src(tp);
                    mask.set_field(&fields::TP_SRC);
                }
                _ => {
                    key.set_nw_src_v4([10, 1, c, d]);
                    mask.set_nw_src_v4_prefix(plen);
                }
            }
            let action = if drop {
                OfAction::Drop
            } else {
                OfAction::Output(out)
            };
            OfRule {
                table: 1,
                priority,
                key,
                mask,
                actions: vec![action],
                cookie: 0,
            }
        })
}

/// A key for the translation property: random bits everywhere, the
/// fields the pipeline matches drawn from the rules' small domains, and
/// `recirc_id` 0 so translation starts at table 0.
fn arb_pipeline_key() -> impl Strategy<Value = FlowKey> {
    (
        proptest::array::uniform12(any::<u64>()),
        (1u32..4, 0u16..4, 0u16..4, 0u64..3),
        proptest::array::uniform4(0u8..4),
    )
        .prop_map(|(words, (port, tp_dst, tp_src, meta), [a, b, c, d])| {
            let mut k = FlowKey::from_words(words);
            k.set_recirc_id(0);
            k.set_in_port(port);
            k.set_tp_dst(tp_dst);
            k.set_tp_src(tp_src);
            k.set_metadata(meta);
            k.set_nw_dst_v4([10, 0, a, b]);
            k.set_nw_src_v4([10, 1, c, d]);
            k
        })
}

fn dpcls_key(in_port: u32, c: u8, d: u8, tp_dst: u16) -> FlowKey {
    let mut k = FlowKey::default();
    k.set_in_port(in_port);
    k.set_nw_dst_v4([10, 0, c, d]);
    k.set_tp_dst(tp_dst);
    k
}

/// Brute force: the highest-priority rule whose masked key matches.
fn linear_scan<'a>(rules: &'a [Rule], key: &FlowKey) -> Option<&'a Rule> {
    rules
        .iter()
        .filter(|r| key.matches(&r.key, &r.mask))
        .max_by_key(|r| r.priority)
}

proptest! {
    #[test]
    fn classifier_agrees_with_linear_scan(
        rules in proptest::collection::vec(arb_rule(), 0..40),
        probes in proptest::collection::vec(arb_probe(), 1..20),
    ) {
        let mut cls = Classifier::new();
        // Deduplicate (key,mask,priority) collisions the same way the
        // classifier does (last insert wins) by inserting in order.
        for r in &rules {
            cls.insert(&r.key, r.mask, r.priority, r.value);
        }
        // Build the reference WITHOUT duplicate (masked-key, mask, prio)
        // entries: keep the last.
        let mut dedup: Vec<Rule> = Vec::new();
        for r in &rules {
            let masked = r.key.masked(&r.mask);
            if let Some(existing) = dedup.iter_mut().find(|e| {
                e.mask == r.mask && e.priority == r.priority && e.key.masked(&e.mask) == masked
            }) {
                *existing = r.clone();
            } else {
                dedup.push(r.clone());
            }
        }
        for p in &probes {
            let got = cls.lookup(p).map(|(priority, _)| priority);
            let want = linear_scan(&dedup, p).map(|r| r.priority);
            // Priorities must agree (values may differ among equal-priority
            // matches, which is unspecified in OVS too).
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn translation_mask_covers_everything_that_decided_it(
        table0 in proptest::collection::vec(arb_table0_rule(), 1..10),
        table1 in proptest::collection::vec(arb_table1_rule(), 0..10),
        keys in proptest::collection::vec(arb_pipeline_key(), 1..8),
        noise in proptest::array::uniform4(proptest::array::uniform12(any::<u64>())),
    ) {
        let mut of = Ofproto::new();
        // OVS leaves overlapping equal-priority rules unspecified, so each
        // table keeps the first rule of each priority.
        for rules in [table0, table1] {
            let mut seen = HashSet::new();
            for r in rules.into_iter().filter(|r| seen.insert(r.priority)) {
                of.add_rule(r);
            }
        }
        for key in &keys {
            let t = of.translate(key);
            for r in &t.rules {
                prop_assert!(r.rule.mask.subset_of(&t.mask), "matched rule {:?}", r.rule);
            }
            // A key that agrees with `key` under the mask and carries
            // random bits everywhere else takes the same path.
            let (k, m) = (key.words(), t.mask.words());
            for bits in &noise {
                let other = FlowKey::from_words(std::array::from_fn(|i| {
                    (k[i] & m[i]) | (bits[i] & !m[i])
                }));
                let u = of.translate(&other);
                prop_assert_eq!(&u.actions, &t.actions, "key {:?}", other);
                prop_assert_eq!(u.rules.len(), t.rules.len());
                for (a, b) in u.rules.iter().zip(&t.rules) {
                    prop_assert!(Rc::ptr_eq(a, b), "key {:?} matched {:?}", other, a.rule);
                }
            }
        }
    }

    #[test]
    fn megaflow_lookup_finds_what_was_installed(
        ips in proptest::collection::vec(any::<[u8; 4]>(), 1..30),
    ) {
        let mut mf: MegaflowCache<usize> = MegaflowCache::new();
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(32);
        for (i, ip) in ips.iter().enumerate() {
            let mut k = FlowKey::default();
            k.set_nw_dst_v4(*ip);
            mf.install(k, mask, i);
        }
        for ip in &ips {
            let mut k = FlowKey::default();
            k.set_nw_dst_v4(*ip);
            // Wildcarded fields must not affect the hit.
            k.set_tp_src(9999);
            prop_assert!(mf.lookup(&k).is_some());
        }
    }

    #[test]
    fn dpcls_agrees_with_linear_scan(
        // (install unless 3, mask, in_port, 3rd octet, 4th octet,
        // tp_dst, which live flow a removal takes)
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 1u32..3, 0u8..2, 0u8..3, 0u16..3, any::<usize>()),
            1..48,
        ),
    ) {
        let masks = dpcls_masks();
        // Every key the installs can match, plus a port with no flows.
        let mut probes = Vec::new();
        for port in 1..=3 {
            for c in 0..2 {
                for d in 0..3 {
                    for tp in 0..3 {
                        probes.push(dpcls_key(port, c, d, tp));
                    }
                }
            }
        }
        let minis: Vec<Miniflow> = probes.iter().map(Miniflow::from_key).collect();
        let mut mf: MegaflowCache<usize> = MegaflowCache::new();
        let mut live: Vec<Rc<MegaflowEntry<usize>>> = Vec::new();
        let mut gone: Vec<Rc<MegaflowEntry<usize>>> = Vec::new();
        let mut results = Vec::new();
        for (step, &(op, m, port, c, d, tp, victim)) in ops.iter().enumerate() {
            if op < 3 {
                let mask = masks[m];
                let key = dpcls_key(port, c, d, tp).masked(&mask);
                // The same masked key under any mask is replaced. The
                // datapath never installs overlapping flows, so neither
                // does this: an install that would overlap is skipped.
                let replaced = live.iter().position(|e| e.key == key);
                let overlaps = live
                    .iter()
                    .enumerate()
                    .any(|(i, e)| Some(i) != replaced && e.key.masked(&mask) == key.masked(&e.mask));
                if overlaps {
                    continue;
                }
                let e = mf.install(key, mask, step);
                if let Some(i) = replaced {
                    gone.push(live.swap_remove(i));
                }
                live.push(e);
            } else if !live.is_empty() {
                let e = live.swap_remove(victim % live.len());
                let removed = mf.remove(e.ufid).expect("a live flow is installed");
                prop_assert!(Rc::ptr_eq(&removed, &e));
                prop_assert!(mf.remove(e.ufid).is_none(), "removed once");
                gone.push(e);
            }

            mf.lookup_bulk(&minis, &mut results);
            for (i, p) in probes.iter().enumerate() {
                let mut hits = live.iter().filter(|e| p.matches(&e.key, &e.mask));
                let want = hits.next().map(|e| e.actions);
                prop_assert!(hits.next().is_none(), "live flows overlap");
                prop_assert_eq!(results[i].as_ref().map(|e| e.actions), want);
                prop_assert_eq!(mf.lookup_mini(&minis[i]).map(|e| e.actions), want);
            }
            prop_assert_eq!(mf.len(), live.len());
            prop_assert_eq!(mf.iter().count(), live.len());
            for e in &live {
                prop_assert_eq!(mf.iter().filter(|w| Rc::ptr_eq(w, e)).count(), 1);
                prop_assert!(!e.dead.get());
            }
            let mut live_masks: Vec<FlowMask> = Vec::new();
            for e in &live {
                if !live_masks.contains(&e.mask) {
                    live_masks.push(e.mask);
                }
            }
            prop_assert_eq!(mf.subtable_count(), live_masks.len());
            for e in &gone {
                prop_assert!(e.dead.get(), "a removed or replaced flow is dead");
            }
        }
    }

    #[test]
    fn meter_never_exceeds_rate_plus_burst(
        rate_kbps in 1u64..10_000,
        burst_bits in 64u64..100_000,
        pkts in proptest::collection::vec((1u64..100, 64usize..1500), 1..200),
    ) {
        let mut m = Meter::new(rate_kbps * 1000, burst_bits);
        let mut now = 0u64;
        let mut passed_bits = 0u64;
        for (gap_us, len) in &pkts {
            now += gap_us * 1000;
            if m.offer(now, *len) {
                passed_bits += (*len as u64) * 8;
            }
        }
        // Conservation: passed bits <= rate * elapsed + burst.
        let budget = rate_kbps * 1000 * now / 1_000_000_000 + burst_bits + 1;
        prop_assert!(
            passed_bits <= budget,
            "passed {passed_bits} bits > budget {budget}"
        );
    }

    #[test]
    fn flow_mask_words_survive_masking(w in proptest::array::uniform12(any::<u64>())) {
        // Trivial but load-bearing: WORDS is the contract between the
        // classifier and the key layout.
        prop_assert_eq!(WORDS, 12);
        let k = FlowKey::from_words(w);
        prop_assert_eq!(k.masked(&FlowMask::EXACT), k);
        prop_assert_eq!(k.masked(&FlowMask::EMPTY), FlowKey::default());
    }
}
