//! Miniflow fast-path microbenches: sparse extraction against full-key
//! extraction (and extraction from a descriptor's kept parse), the
//! cached slot hash, and the wide-lane bulk dpcls probe across lane
//! widths — the host-CPU cost of the modeled AVX-512-style signature
//! compare loop — and over a 100,000-flow subtable whose probes miss
//! the CPU caches. Each bulk probe's set-up asserts its verdicts equal
//! per-key scalar lookups on a twin table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::cache::{MegaflowCache, MegaflowEntry};
use ovs_packet::flow::{extract_flow_key, extract_miniflow, fields, FlowMask, Miniflow};
use ovs_packet::{builder, DpPacket, MacAddr};
use std::hint::black_box;
use std::rc::Rc;

fn frame(flow: u32) -> Vec<u8> {
    udp_frame(
        [10, (flow >> 8) as u8, flow as u8, 1],
        [10, 200, (flow % 7) as u8, 2],
        (1024 + flow % 50_000) as u16,
    )
}

fn udp_frame(src: [u8; 4], dst: [u8; 4], src_port: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 0, 1),
        MacAddr::new(2, 0, 0, 0, 0, 2),
        src,
        dst,
        src_port,
        4444,
        64,
    )
}

/// The extracted key of a frame.
fn key_of(frame: &[u8]) -> Miniflow {
    extract_miniflow(&mut DpPacket::from_data(frame))
}

/// Every field the exact 5-tuple megaflows match.
fn exact_5tuple() -> FlowMask {
    FlowMask::of_fields(&[
        &fields::IN_PORT,
        &fields::ETH_TYPE,
        &fields::NW_SRC,
        &fields::NW_DST,
        &fields::NW_PROTO,
        &fields::TP_SRC,
        &fields::TP_DST,
    ])
}

fn verdicts(hits: &[Option<Rc<MegaflowEntry<u32>>>]) -> Vec<Option<u32>> {
    hits.iter().map(|h| h.as_ref().map(|e| e.actions)).collect()
}

fn bench_extract(c: &mut Criterion) {
    // Sparse extraction vs the legacy full-key extraction on the same
    // 64-byte UDP frame — the per-packet fixed cost the dfc pays. A
    // descriptor keeps the parse of its bytes, so these two touch the
    // bytes (which drops it) every iteration and time a parse; `cached`
    // times the later extractions of an unchanged packet (a
    // recirculation pass).
    let f = frame(7);
    let mut g = c.benchmark_group("miniflow/extract");
    g.bench_function("miniflow", |b| {
        let mut pkt = DpPacket::from_data(&f);
        b.iter(|| {
            black_box(pkt.data_mut());
            black_box(extract_miniflow(black_box(&mut pkt)))
        })
    });
    g.bench_function("full_key", |b| {
        let mut pkt = DpPacket::from_data(&f);
        b.iter(|| {
            black_box(pkt.data_mut());
            black_box(extract_flow_key(black_box(&mut pkt)))
        })
    });
    g.bench_function("cached", |b| {
        let mut pkt = DpPacket::from_data(&f);
        b.iter(|| black_box(extract_miniflow(black_box(&mut pkt))))
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
    let exact_5tuple = exact_5tuple();
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
    let keys: Vec<Miniflow> = (0..BURST).map(|flow| key_of(&frame(flow))).collect();
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

/// Flows in the wide bench's big subtable, as many as `overlay_wide`
/// keeps.
const WIDE_FLOWS: u32 = 100_000;

/// The source address, destination and source port of wide flow `flow`:
/// 100,000 distinct 5-tuples.
fn wide_frame(flow: u32) -> Vec<u8> {
    udp_frame(
        [10, (flow >> 16) as u8, (flow >> 8) as u8, flow as u8],
        [10, 200, 0, 2],
        (1024 + flow % 50_000) as u16,
    )
}

/// The two one-flow subtables' keys: one destination no wide flow has,
/// and one source and destination no wide flow has.
fn narrow_frames() -> [Vec<u8>; 2] {
    [
        udp_frame([10, 0, 0, 1], [10, 201, 0, 2], 1024),
        udp_frame([192, 168, 0, 1], [10, 202, 0, 2], 1024),
    ]
}

/// One subtable of [`WIDE_FLOWS`] exact 5-tuple flows and two one-flow
/// subtables, every flow disjoint from every other.
fn wide_table() -> MegaflowCache<u32> {
    let mut cache: MegaflowCache<u32> = MegaflowCache::new();
    let exact_5tuple = exact_5tuple();
    for flow in 0..WIDE_FLOWS {
        let key = key_of(&wide_frame(flow)).expand();
        cache.install(key.masked(&exact_5tuple), exact_5tuple, flow);
    }
    let narrow = [
        FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_DST]),
        FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_SRC, &fields::NW_DST]),
    ];
    for (i, (f, mask)) in narrow_frames().iter().zip(narrow).enumerate() {
        let key = key_of(f).expand();
        cache.install(key.masked(&mask), mask, WIDE_FLOWS + i as u32);
    }
    cache
}

fn bench_bulk_probe_wide(c: &mut Criterion) {
    // Bursts of 32 distinct keys, 30 of them the next wide flows in turn
    // and one for each one-flow subtable: each burst probes keys the
    // last few thousand bursts did not touch, so the big subtable's
    // probes miss the CPU caches, as `overlay_wide`'s do.
    const WIDE_PER_BURST: u32 = 30;
    let narrow = narrow_frames().map(|f| key_of(&f));
    let bursts: Vec<Vec<Miniflow>> = (0..WIDE_FLOWS.div_ceil(WIDE_PER_BURST))
        .map(|b| {
            let wide = (0..WIDE_PER_BURST).map(|i| (b * WIDE_PER_BURST + i) % WIDE_FLOWS);
            let mut keys: Vec<Miniflow> = wide.map(|f| key_of(&wide_frame(f))).collect();
            keys.extend(narrow);
            keys
        })
        .collect();
    let mut cache = wide_table();
    assert_eq!(
        (cache.len(), cache.subtable_count()),
        (WIDE_FLOWS as usize + 2, 3)
    );
    // Every burst's bulk verdicts equal per-key scalar lookups on a twin
    // table, and every key finds its flow.
    let mut twin = wide_table();
    let mut hits = Vec::new();
    for keys in &bursts {
        cache.lookup_bulk(keys, &mut hits);
        let scalar: Vec<_> = keys.iter().map(|k| twin.lookup_mini(k)).collect();
        assert_eq!(verdicts(&hits), verdicts(&scalar));
        assert!(
            scalar.iter().all(Option::is_some),
            "every burst key has a flow"
        );
    }
    drop(twin);
    let mut g = c.benchmark_group("miniflow/bulk_probe_wide");
    let mut next = 0;
    g.bench_function("burst32", |b| {
        b.iter(|| {
            next = (next + 1) % bursts.len();
            cache.lookup_bulk(black_box(&bursts[next]), &mut hits);
            black_box(hits.iter().flatten().count())
        })
    });
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
    targets = bench_extract, bench_hash, bench_bulk_probe, bench_bulk_probe_wide
}
criterion_main!(benches);
