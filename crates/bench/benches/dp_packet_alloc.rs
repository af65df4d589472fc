//! The O4 ablation for real: reused dp_packet metadata from a warm pool
//! vs a fresh allocation per packet.

use criterion::{criterion_group, criterion_main, Criterion};
use ovs_ring::DpPacketPool;
use std::hint::black_box;

const FRAME: [u8; 64] = [0x5a; 64];

fn bench_prealloc_vs_fresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_packet_alloc");

    g.bench_function("preallocated_pool (O4)", |b| {
        let mut pool = DpPacketPool::new(64, 2048);
        let warm = pool.take();
        pool.put(warm);
        b.iter(|| {
            let mut p = pool.take();
            p.set_data(black_box(&FRAME));
            p.in_port = 3;
            let len = p.len();
            pool.put(p);
            black_box(len)
        })
    });

    g.bench_function("fresh_alloc_per_packet (pre-O4)", |b| {
        let mut pool = DpPacketPool::new(0, 2048);
        b.iter(|| {
            let mut p = pool.take();
            p.set_data(black_box(&FRAME));
            p.in_port = 3;
            let len = p.len();
            drop(p); // dropped, not recycled — the pre-O4 behaviour
            black_box(len)
        })
    });

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
    targets = bench_prealloc_vs_fresh
}
criterion_main!(benches);
