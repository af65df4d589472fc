//! The EMC → megaflow → full-pipeline hierarchy ablation: real lookup
//! costs at each cache level, and the effect of working-set size — the
//! mechanism behind the paper's 1 vs 1,000 flow results — up to a full
//! EMC that 100,000 flows probe and almost always miss. That bench's
//! set-up asserts its hit and miss counts against a reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::cache::{Emc, MegaflowCache, EMC_ENTRIES};
use ovs_core::ofproto::Ofproto;
use ovs_packet::flow::{fields, FlowKey, FlowMask, Miniflow};
use std::hint::black_box;
use std::rc::Rc;

fn flow_key(i: u32) -> FlowKey {
    let mut k = FlowKey::default();
    k.set_in_port(0);
    k.set_nw_src_v4([10, (i >> 16) as u8, (i >> 8) as u8, i as u8]);
    k.set_nw_dst_v4([10, 1, (i >> 8) as u8, i as u8]);
    k.set_tp_src((1000 + i % 50_000) as u16);
    k.set_tp_dst(80);
    k
}

fn bench_levels(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_hierarchy/levels");

    // Level 1: EMC hit.
    let mut emc: Emc<u32> = Emc::new();
    let mut mf: MegaflowCache<u32> = MegaflowCache::new();
    let mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::NW_DST]);
    let entry = mf.install(flow_key(1), mask, 7);
    let mini = Miniflow::from_key(&flow_key(1));
    let hash = mini.hash();
    emc.insert(mini, hash, Rc::clone(&entry));
    g.bench_function("emc_hit", |b| {
        b.iter(|| black_box(emc.lookup(black_box(&mini), black_box(hash)).is_some()))
    });

    // Level 2: megaflow (dpcls) hit, probed with the sparse key.
    g.bench_function("megaflow_hit", |b| {
        b.iter(|| black_box(mf.lookup_mini(black_box(&mini)).is_some()))
    });

    // Level 3: full OpenFlow translation (the upcall slow path) with an
    // NSX-scale table set.
    let mut of = Ofproto::new();
    let cfg = ovs_nsx::ruleset::NsxConfig {
        target_rules: 20_000,
        ..Default::default()
    };
    let ports = ovs_nsx::ruleset::NsxPorts {
        vifs: (2..32).collect(),
        tunnel: 1,
        uplink: 0,
    };
    ovs_nsx::ruleset::install(&cfg, &ports, 1, 2, &mut of);
    let mut upcall_key = flow_key(1);
    upcall_key.set_in_port(2);
    upcall_key.set_eth_type(ovs_packet::EtherType::Ipv4);
    g.bench_function("upcall_translation_20k_rules", |b| {
        b.iter(|| black_box(of.translate(black_box(&upcall_key)).tables_visited))
    });

    g.finish();
}

fn bench_working_set(c: &mut Criterion) {
    // EMC hit cost as the cached flow count grows: the cache-pressure
    // mechanism the simulation charges for 1,000-flow workloads.
    let mut g = c.benchmark_group("cache_hierarchy/emc_working_set");
    for flows in [1u32, 100, 1000, 8000] {
        let mut emc: Emc<u32> = Emc::new();
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::NW_DST]);
        for i in 0..flows {
            let e = mf.install(flow_key(i), mask, i);
            let m = Miniflow::from_key(&flow_key(i));
            let h = m.hash();
            emc.insert(m, h, e);
        }
        let probes: Vec<(Miniflow, u64)> = (0..flows)
            .map(|i| {
                let m = Miniflow::from_key(&flow_key(i));
                let h = m.hash();
                (m, h)
            })
            .collect();
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, _| {
            b.iter(|| {
                i = (i + 1) % probes.len();
                let (m, h) = &probes[i];
                black_box(emc.lookup(black_box(m), black_box(*h)).is_some())
            })
        });
    }
    g.finish();
}

fn bench_emc_miss_wide(c: &mut Criterion) {
    // A full EMC probed in turn by 100,000 distinct flows, as
    // `overlay_wide`'s flows probe it: a key hits only while it is the
    // last one filed in its slot, so almost every probe misses.
    const FILLED: u32 = 4 * EMC_ENTRIES as u32;
    const PROBES: u32 = 100_000;
    let mut emc: Emc<u32> = Emc::new();
    let mut mf: MegaflowCache<u32> = MegaflowCache::new();
    let mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::NW_DST]);
    let entry = mf.install(flow_key(0), mask, 0);
    let probes: Vec<(Miniflow, u64)> = (0..PROBES)
        .map(|i| {
            let m = Miniflow::from_key(&flow_key(i));
            (m, m.hash())
        })
        .collect();
    // The reference: which key each slot holds, the last filed winning.
    let slot = |h: u64| h as usize % EMC_ENTRIES;
    let mut owner: Vec<Option<u32>> = vec![None; EMC_ENTRIES];
    for (i, (m, h)) in probes.iter().take(FILLED as usize).enumerate() {
        emc.insert(*m, *h, Rc::clone(&entry));
        owner[slot(*h)] = Some(i as u32);
    }
    assert_eq!(emc.len(), owner.iter().flatten().count());
    assert!(emc.len() > EMC_ENTRIES * 9 / 10, "the EMC is full");
    let want_hits = (0..PROBES)
        .filter(|&i| owner[slot(probes[i as usize].1)] == Some(i))
        .count() as u64;
    for (m, h) in &probes {
        emc.lookup(m, *h);
    }
    assert_eq!(
        (emc.hits, emc.misses),
        (want_hits, u64::from(PROBES) - want_hits)
    );
    let mut g = c.benchmark_group("cache_hierarchy/emc_miss_wide");
    let mut i = 0usize;
    g.bench_function("100k_flows", |b| {
        b.iter(|| {
            i = (i + 1) % probes.len();
            let (m, h) = &probes[i];
            black_box(emc.lookup(black_box(m), black_box(*h)).is_some())
        })
    });
    g.finish();
}

fn bench_megaflow_subtables(c: &mut Criterion) {
    // Megaflow lookup vs distinct-mask count (subtables probed on miss).
    let mut g = c.benchmark_group("cache_hierarchy/megaflow_subtables");
    for masks in [1usize, 4, 16] {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for m in 0..masks {
            let mut mask = FlowMask::of_fields(&[&fields::IN_PORT]);
            mask.set_nw_dst_v4_prefix(8 + m as u8);
            for i in 0..64u32 {
                let mut k = flow_key(i);
                k.set_nw_dst_v4([10 + m as u8, 1, 0, i as u8]);
                mf.install(k, mask, i);
            }
        }
        let probe = flow_key(9_999_999); // miss: probes every subtable
        g.bench_with_input(BenchmarkId::from_parameter(masks), &masks, |b, _| {
            b.iter(|| black_box(mf.lookup(black_box(&probe)).is_none()))
        });
    }
    g.finish();
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
    targets = bench_levels, bench_working_set, bench_emc_miss_wide, bench_megaflow_subtables
}
criterion_main!(benches);
