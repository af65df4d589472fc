//! Packet parsing and flow extraction: the per-packet fixed work every
//! datapath pays (miniflow extraction, checksum verification, rxhash).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovs_packet::flow::extract_flow_key;
use ovs_packet::{builder, checksum, DpPacket, MacAddr};
use std::hint::black_box;

fn frame(len: usize) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 0, 1),
        MacAddr::new(2, 0, 0, 0, 0, 2),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        1000,
        2000,
        len,
    )
}

fn bench_extract(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet/extract_flow_key");
    for len in [64usize, 512, 1518] {
        let f = frame(len);
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            let mut pkt = DpPacket::from_data(&f);
            b.iter(|| {
                // Touching the bytes drops the descriptor's kept parse,
                // so every iteration parses.
                black_box(pkt.data_mut());
                black_box(extract_flow_key(black_box(&mut pkt)).hash())
            })
        });
    }
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    // The O5 question in wall-clock terms: what does a software checksum
    // cost per frame size?
    let mut g = c.benchmark_group("packet/sw_checksum");
    for len in [64usize, 512, 1518] {
        let f = frame(len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| black_box(checksum::checksum(black_box(&f))))
        });
    }
    g.finish();
}

fn bench_rss_hash(c: &mut Criterion) {
    // The software rxhash AF_XDP computes per packet (§5.5).
    let f = frame(64);
    let mut pkt = DpPacket::from_data(&f);
    let key = extract_flow_key(&mut pkt);
    c.bench_function("packet/sw_rxhash", |b| {
        b.iter(|| black_box(black_box(&key).rss_hash()))
    });
}

fn bench_geneve_encap(c: &mut Criterion) {
    let inner = frame(1460);
    c.bench_function("packet/geneve_encap_1460B", |b| {
        b.iter(|| {
            black_box(builder::geneve_encap(
                MacAddr::new(4, 0, 0, 0, 0, 1),
                MacAddr::new(4, 0, 0, 0, 0, 2),
                [172, 16, 0, 1],
                [172, 16, 0, 2],
                40_000,
                5001,
                black_box(&inner),
            ))
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
    targets = bench_extract, bench_checksum, bench_rss_hash, bench_geneve_encap
}
criterion_main!(benches);
