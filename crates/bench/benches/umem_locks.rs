//! The O2/O3 ablation for real: umem-pool alloc/free cost per packet
//! under the three locking strategies (mutex per packet, spinlock per
//! packet, spinlock per batch), uncontended and contended. The batched
//! form measured here is what `XskSocket` runs from O3 up: its rx, tx
//! and refill paths each free a batch under one lock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_ring::{LockStrategy, UmemPool};
use std::hint::black_box;
use std::sync::Arc;

const BATCH: usize = 32;

fn bench_uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("umem_locks/uncontended_batch32");
    for strategy in [
        LockStrategy::MutexPerPacket,
        LockStrategy::SpinlockPerPacket,
        LockStrategy::SpinlockBatched,
    ] {
        let pool = UmemPool::new(4096, strategy);
        let mut scratch = Vec::with_capacity(BATCH);
        g.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, _| {
                b.iter(|| {
                    scratch.clear();
                    let n = pool.alloc_batch(black_box(&mut scratch), BATCH);
                    pool.free_batch(&scratch[..n]);
                    black_box(n)
                })
            },
        );
    }
    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    // Two background threads hammer the pool while we measure — the
    // situation where the paper's mutex burned 5% CPU.
    let mut g = c.benchmark_group("umem_locks/contended_2_threads");
    g.sample_size(30);
    for strategy in [
        LockStrategy::MutexPerPacket,
        LockStrategy::SpinlockPerPacket,
        LockStrategy::SpinlockBatched,
    ] {
        let pool = Arc::new(UmemPool::new(8192, strategy));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut workers = Vec::new();
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                let mut scratch = Vec::with_capacity(BATCH);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    scratch.clear();
                    let n = pool.alloc_batch(&mut scratch, BATCH);
                    pool.free_batch(&scratch[..n]);
                }
            }));
        }
        let mut scratch = Vec::with_capacity(BATCH);
        g.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, _| {
                b.iter(|| {
                    scratch.clear();
                    let n = pool.alloc_batch(black_box(&mut scratch), BATCH);
                    pool.free_batch(&scratch[..n]);
                    black_box(n)
                })
            },
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
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
    targets = bench_uncontended, bench_contended
}
criterion_main!(benches);
