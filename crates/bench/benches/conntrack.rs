//! Conntrack over a batch against one call per packet: a 32-packet
//! burst of committing `ct()` lookups of held connections, in runs of 1,
//! 4 and 32 packets per 5-tuple, through `CtTable::execute` (a run hashes
//! its shard once and probes once) and through `process_full` per
//! packet. The set-up asserts both give identical verdicts and
//! `CtStats` on twin tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::ct::{ConnKey, CtAction, CtPacket, CtTable};
use std::hint::black_box;

const BURST: usize = 32;
const FLOWS: u16 = 512;
const ZONE: u16 = 100;
const NOW: u64 = 1_000;

fn key(flow: u16) -> ConnKey {
    ConnKey {
        zone: ZONE,
        src_ip: [10, 0, (flow >> 8) as u8, flow as u8],
        dst_ip: [10, 1, 0, 2],
        src_port: 1024 + flow,
        dst_port: 4444,
        proto: 17,
    }
}

/// The DFW commit every established overlay packet passes.
const COMMIT: CtAction = CtAction {
    zone: ZONE,
    commit: true,
    mark: None,
    nat: None,
};

/// A table holding every flow's connection.
fn table() -> CtTable {
    let mut ct = CtTable::new();
    for f in 0..FLOWS {
        ct.process_full(key(f), COMMIT, None, Some(0), 0);
    }
    ct
}

/// One burst in runs of `run` packets per flow.
fn burst(run: usize) -> Vec<CtPacket> {
    (0..BURST)
        .map(|i| CtPacket {
            key: key((i / run) as u16 * 7 % FLOWS),
            tcp_flags: None,
        })
        .collect()
}

fn bench_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("conntrack");
    for run in [1usize, 4, 32] {
        let pkts = burst(run);
        // Twin tables, one burst each way: the same verdicts, the same
        // counters.
        let (mut batched, mut single) = (table(), table());
        let mut verdicts = Vec::with_capacity(BURST);
        batched.execute(&pkts, COMMIT, Some(0), NOW, &mut verdicts);
        let one_by_one: Vec<_> = pkts
            .iter()
            .map(|p| single.process_full(p.key, COMMIT, p.tcp_flags, Some(0), NOW))
            .collect();
        assert_eq!(verdicts, one_by_one, "runs of {run}: verdicts");
        assert_eq!(batched.stats, single.stats, "runs of {run}: CtStats");
        assert_eq!(
            batched.stats.hits, BURST as u64,
            "every packet hits a held connection"
        );

        g.bench_with_input(BenchmarkId::new("batch", run), &run, |b, _| {
            b.iter(|| {
                verdicts.clear();
                batched.execute(black_box(&pkts), COMMIT, Some(0), NOW, &mut verdicts);
                black_box(verdicts.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("per_packet", run), &run, |b, _| {
            b.iter(|| {
                for p in black_box(&pkts) {
                    black_box(single.process_full(p.key, COMMIT, p.tcp_flags, Some(0), NOW));
                }
            })
        });
    }
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_runs
}
criterion_main!(benches);
