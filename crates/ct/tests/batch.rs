//! The batch entry against one packet at a time: a stream of batches
//! through `CtTable::execute` on one table, and the same packets through
//! `process_full`, one call each, on a twin table, must agree verdict for
//! verdict and leave the same stats, occupancy, zone budgets and
//! connections after every batch.
//!
//! The streams repeat keys in runs (what the batch entry shares a probe
//! across) and interleave them, in both directions and through NAT
//! replies, with TCP flags, marks, zone limits, a tiny table with early
//! drop on and off, and timeouts short enough that connections expire
//! between batches.

use ovs_ct::{ConnKey, CtAction, CtConfig, CtPacket, CtTable, NatSpec};
use ovs_packet::tcp::flags;
use proptest::prelude::*;

/// SplitMix64: a whole stream from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

const TCP_FLAGS: [Option<u8>; 7] = [
    None,
    Some(flags::SYN),
    Some(flags::SYN | flags::ACK),
    Some(flags::ACK),
    Some(flags::FIN | flags::ACK),
    Some(flags::RST),
    Some(flags::PSH | flags::ACK),
];

const SNAT: NatSpec = NatSpec::Snat {
    ip: [192, 168, 0, 1],
    port: Some(40_000),
};
const DNAT: NatSpec = NatSpec::Dnat {
    ip: [10, 9, 9, 9],
    port: None,
};

/// The 5-tuple a reply to `orig` NATed by `nat` arrives with.
fn translated_reply(orig: &ConnKey, nat: NatSpec) -> ConnKey {
    let mut fwd = *orig;
    match nat {
        NatSpec::Snat { ip, port } => {
            fwd.src_ip = ip;
            if let Some(p) = port {
                fwd.src_port = p;
            }
        }
        NatSpec::Dnat { ip, port } => {
            fwd.dst_ip = ip;
            if let Some(p) = port {
                fwd.dst_port = p;
            }
        }
    }
    fwd.reversed()
}

/// A few connections' keys in both directions and their NATed replies.
fn key_pool(rng: &mut Rng) -> Vec<ConnKey> {
    let n = 2 + rng.below(4) as u8;
    let mut pool = Vec::new();
    for i in 0..n {
        let k = ConnKey {
            zone: rng.below(3) as u16,
            src_ip: [10, 0, 0, 1 + i],
            dst_ip: [10, 0, 1, 1 + rng.below(2) as u8],
            src_port: 1000 + u16::from(i),
            dst_port: rng.pick(&[53, 80]),
            proto: rng.pick(&[6, 6, 17, 1]),
        };
        pool.extend([
            k,
            k.reversed(),
            translated_reply(&k, SNAT),
            translated_reply(&k, DNAT),
        ]);
    }
    pool
}

fn table(rng: &mut Rng) -> (CtConfig, Option<usize>, Option<u64>) {
    let cfg = CtConfig {
        shards: rng.pick(&[1, 4, 64]),
        max_conns: rng.pick(&[2, 3, 6, 1 << 20]),
        pressure_pct: rng.pick(&[50, 90]),
        early_drop: rng.chance(50),
        tcp_loose: rng.chance(50),
    };
    let zone_limit = rng.chance(40).then(|| 1 + rng.below(3) as usize);
    let timeout = rng.chance(60).then(|| rng.pick(&[5u64, 20, 60]));
    (cfg, zone_limit, timeout)
}

fn build(cfg: CtConfig, zone_limit: Option<usize>, timeout: Option<u64>) -> CtTable {
    let mut ct = CtTable::with_config(cfg);
    if let Some(l) = zone_limit {
        ct.set_zone_limit(1, l);
    }
    if let Some(t) = timeout {
        ct.set_all_timeouts(t);
    }
    ct
}

/// One batch: runs of 1–6 packets of one key, or (a third of the time)
/// a fresh key per packet, so runs and interleavings both occur.
fn batch(rng: &mut Rng, pool: &[ConnKey]) -> Vec<CtPacket> {
    let len = 1 + rng.below(32) as usize;
    let interleave = rng.chance(33);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let key = rng.pick(pool);
        let run = if interleave { 1 } else { 1 + rng.below(6) };
        for _ in 0..run {
            // Within a run the flags may change, as they do across a
            // TCP handshake.
            let tcp_flags = if key.proto == 6 {
                rng.pick(&TCP_FLAGS)
            } else {
                None
            };
            out.push(CtPacket { key, tcp_flags });
        }
    }
    out
}

fn action(rng: &mut Rng) -> CtAction {
    let commit = rng.chance(60);
    CtAction {
        zone: rng.pick(&[0, 1, 1, 2]),
        commit,
        mark: rng.pick(&[None, Some(0), Some(7), Some(9)]),
        nat: if commit {
            rng.pick(&[None, None, Some(SNAT), Some(DNAT)])
        } else {
            None
        },
    }
}

proptest! {
    #[test]
    fn a_batch_tracks_exactly_as_one_packet_at_a_time(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let pool = key_pool(&mut rng);
        let (cfg, zone_limit, timeout) = table(&mut rng);
        let mut batched = build(cfg, zone_limit, timeout);
        let mut single = build(cfg, zone_limit, timeout);
        let mut now = 0u64;
        let mut verdicts = Vec::new();
        for round in 0..40 {
            let pkts = batch(&mut rng, &pool);
            let act = action(&mut rng);
            let pmd = rng.pick(&[None, Some(0), Some(1)]);
            verdicts.clear();
            batched.execute(&pkts, act, pmd, now, &mut verdicts);
            let one_by_one: Vec<_> = pkts
                .iter()
                .map(|p| single.process_full(p.key, act, p.tcp_flags, pmd, now))
                .collect();
            prop_assert_eq!(&verdicts, &one_by_one, "round {}: verdicts", round);
            prop_assert_eq!(batched.stats, single.stats, "round {}: stats", round);
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(batched.zone_rows(), single.zone_rows());
            prop_assert_eq!(batched.snapshot_conns(), single.snapshot_conns());
            prop_assert!(batched.accounting_ok());
            now += rng.pick(&[0, 0, 1, 4, 30]);
            if rng.chance(15) {
                prop_assert_eq!(batched.sweep_slice(now, 2), single.sweep_slice(now, 2));
            }
        }
        // The streams reached the paths the batch entry shortcuts.
        let s = batched.stats;
        prop_assert!(s.ops > 0 && s.hits + s.misses > 0);
    }
}

/// Across all seeds the streams cover every outcome a run can repeat or
/// stop at: hits both ways and through NAT, commits, refusals of every
/// kind, evictions, lazy expiry and established transitions.
#[test]
fn the_streams_cover_every_outcome() {
    let mut total = ovs_ct::CtStats::default();
    let mut nat_replies = 0u64;
    for seed in 0..64u64 {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let pool = key_pool(&mut rng);
        let (cfg, zone_limit, timeout) = table(&mut rng);
        let mut ct = build(cfg, zone_limit, timeout);
        let mut now = 0u64;
        let mut verdicts = Vec::new();
        for _ in 0..40 {
            let pkts = batch(&mut rng, &pool);
            let act = action(&mut rng);
            verdicts.clear();
            ct.execute(&pkts, act, Some(0), now, &mut verdicts);
            nat_replies += verdicts
                .iter()
                .filter(|v| {
                    v.nat.is_some() && v.state & ovs_packet::dp_packet::ct_state::REPLY != 0
                })
                .count() as u64;
            now += rng.pick(&[0, 0, 1, 4, 30]);
        }
        let s = ct.stats;
        total.hits += s.hits;
        total.commits += s.commits;
        total.established += s.established;
        total.zone_limit_drops += s.zone_limit_drops;
        total.full_drops += s.full_drops;
        total.invalid_drops += s.invalid_drops;
        total.early_drops += s.early_drops;
        total.evictions += s.evictions;
        total.expired += s.expired;
        total.affinity_hits += s.affinity_hits;
    }
    assert!(total.hits > 0 && total.commits > 0 && total.established > 0);
    assert!(total.zone_limit_drops > 0 && total.full_drops > 0 && total.invalid_drops > 0);
    assert!(total.early_drops > 0 && total.evictions > total.early_drops);
    assert!(total.expired > 0 && total.affinity_hits > 0);
    assert!(nat_replies > 0, "no NATed reply was tracked");
}
