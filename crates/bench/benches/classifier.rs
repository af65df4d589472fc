//! Tuple-space-search classifier scaling: lookup cost vs subtable count
//! and rule count — the structure behind the 1 vs 1,000 flow gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::classifier::Classifier;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use std::hint::black_box;

fn key(ip: [u8; 4], port: u16) -> FlowKey {
    let mut k = FlowKey::default();
    k.set_nw_dst_v4(ip);
    k.set_tp_dst(port);
    k
}

/// Build a classifier with `subtables` distinct masks × `per_table` rules.
fn build(subtables: usize, per_table: usize) -> Classifier<u32> {
    let mut c = Classifier::new();
    for s in 0..subtables {
        // Distinct masks: different destination prefix lengths plus a
        // port bit for variety.
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(8 + (s % 24) as u8);
        if s % 2 == 0 {
            mask.set_field(&fields::TP_DST);
        }
        for r in 0..per_table {
            c.insert(
                &key(
                    [10, (s % 250) as u8, (r >> 8) as u8, r as u8],
                    (r % 1000) as u16,
                ),
                mask,
                (s * 10) as i32,
                (s * per_table + r) as u32,
            );
        }
    }
    c
}

fn bench_subtable_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier/subtable_scaling");
    for subtables in [1usize, 4, 16, 40] {
        let mut cls = build(subtables, 256);
        let probe = key([10, 0, 0, 1], 80);
        g.bench_with_input(
            BenchmarkId::from_parameter(subtables),
            &subtables,
            |b, _| b.iter(|| black_box(cls.lookup(black_box(&probe)).is_some())),
        );
    }
    g.finish();
}

fn bench_rule_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier/rule_scaling");
    for rules in [100usize, 10_000, 100_000] {
        let mut cls = build(8, rules / 8);
        let probe = key([10, 3, 1, 7], 443);
        g.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, _| {
            b.iter(|| black_box(cls.lookup(black_box(&probe)).is_some()))
        });
    }
    g.finish();
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("classifier/insert_100k_then_clear", |b| {
        b.iter(|| {
            let cls = build(40, 2_500);
            black_box(cls.len())
        })
    });
}

/// Short measurement windows keep the full `cargo bench --workspace`
/// run to a few minutes; pass `--measurement-time` to override.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_subtable_scaling, bench_rule_scaling, bench_insert
}
criterion_main!(benches);
