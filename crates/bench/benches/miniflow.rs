//! Miniflow fast-path microbenches: sparse extraction against full-key
//! extraction, the cached slot hash, and the wide-lane bulk dpcls probe
//! across lane widths — the host-CPU cost of the modeled AVX-512-style
//! signature compare loop. The bulk probe's set-up asserts its verdicts
//! equal per-key scalar lookups at every lane width.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::cache::{MegaflowCache, MegaflowEntry};
use ovs_packet::flow::{extract_flow_key, extract_miniflow, fields, FlowMask, Miniflow};
use ovs_packet::{builder, DpPacket, MacAddr};
use std::hint::black_box;
use std::rc::Rc;

fn frame(flow: u32) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 0, 1),
        MacAddr::new(2, 0, 0, 0, 0, 2),
        [10, (flow >> 8) as u8, flow as u8, 1],
        [10, 200, (flow % 7) as u8, 2],
        (1024 + flow % 50_000) as u16,
        4444,
        64,
    )
}

fn bench_extract(c: &mut Criterion) {
    // Sparse extraction vs the legacy full-key extraction on the same
    // 64-byte UDP frame — the per-packet fixed cost the dfc pays.
    let f = frame(7);
    let mut g = c.benchmark_group("miniflow/extract");
    g.bench_function("miniflow", |b| {
        let mut pkt = DpPacket::from_data(&f);
        b.iter(|| black_box(extract_miniflow(black_box(&mut pkt))))
    });
    g.bench_function("full_key", |b| {
        let mut pkt = DpPacket::from_data(&f);
        b.iter(|| black_box(extract_flow_key(black_box(&mut pkt))))
    });
    g.finish();
}

fn bench_hash(c: &mut Criterion) {
    // The extracted-slot hash cached in DpPacket and reused across
    // EMC/SMC/dpcls probes, against hashing the expanded key.
    let mut pkt = DpPacket::from_data(&frame(7));
    let mf = extract_miniflow(&mut pkt);
    let key = mf.expand();
    let mut g = c.benchmark_group("miniflow/hash");
    g.bench_function("sparse", |b| b.iter(|| black_box(black_box(&mf).hash())));
    g.bench_function("full_key", |b| b.iter(|| black_box(black_box(&key).hash())));
    g.finish();
}

/// A megaflow table with several distinct masks (so several subtables)
/// and one rule per benchmark flow under the widest mask.
fn table(n_flows: u32) -> MegaflowCache<u32> {
    let mut cache: MegaflowCache<u32> = MegaflowCache::new();
    let exact_5tuple = FlowMask::of_fields(&[
        &fields::IN_PORT,
        &fields::ETH_TYPE,
        &fields::NW_SRC,
        &fields::NW_DST,
        &fields::NW_PROTO,
        &fields::TP_SRC,
        &fields::TP_DST,
    ]);
    for flow in 0..n_flows {
        let mut pkt = DpPacket::from_data(&frame(flow));
        let key = extract_flow_key(&mut pkt);
        cache.install(key.masked(&exact_5tuple), exact_5tuple, flow);
    }
    // Two more subtables with disjoint masks so every probe walks a
    // multi-subtable classifier, as a real megaflow table does.
    for (i, f) in [&fields::NW_DST, &fields::NW_SRC].into_iter().enumerate() {
        let mask = FlowMask::of_fields(&[&fields::ETH_TYPE, f]);
        let mut pkt = DpPacket::from_data(&frame(60_000 + i as u32));
        let key = extract_flow_key(&mut pkt);
        cache.install(key.masked(&mask), mask, 60_000 + i as u32);
    }
    cache
}

fn bench_bulk_probe(c: &mut Criterion) {
    // One 32-key burst through lookup_bulk, sweeping the lane width —
    // wider lanes mean fewer signature-compare steps per subtable.
    const BURST: u32 = 32;
    let keys: Vec<Miniflow> = (0..BURST)
        .map(|flow| {
            let mut pkt = DpPacket::from_data(&frame(flow));
            extract_miniflow(&mut pkt)
        })
        .collect();
    let verdicts = |hits: &[Option<Rc<MegaflowEntry<u32>>>]| -> Vec<Option<u32>> {
        hits.iter().map(|h| h.as_ref().map(|e| e.actions)).collect()
    };
    let mut g = c.benchmark_group("miniflow/bulk_probe_burst32");
    for lane in [1usize, 4, 8, 16] {
        let mut cache = table(512);
        cache.set_lane_width(lane);
        // At every lane width the bulk verdicts equal per-key scalar
        // lookups on a twin table, and every key of the burst hits.
        let mut hits = Vec::new();
        cache.lookup_bulk(&keys, &mut hits);
        let mut twin = table(512);
        let scalar: Vec<_> = keys.iter().map(|k| twin.lookup_mini(k)).collect();
        assert_eq!(verdicts(&hits), verdicts(&scalar), "lane width {lane}");
        assert!(
            scalar.iter().all(Option::is_some),
            "every burst key has a flow"
        );
        g.bench_with_input(BenchmarkId::from_parameter(lane), &lane, |b, _| {
            b.iter(|| {
                cache.lookup_bulk(black_box(&keys), &mut hits);
                black_box(hits.iter().flatten().count())
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
    targets = bench_extract, bench_hash, bench_bulk_probe
}
criterion_main!(benches);
