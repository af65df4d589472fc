//! Wall-clock cost of the two-phase batched receive path:
//! `process_burst` with and without the SMC tier, at bursts of 1, 8 and
//! 32, each driving the full NSX pipeline (DFW conntrack ×2
//! recirculations plus Geneve encap). Complements the simulated-cycle
//! ablation in `repro --fastpath`: criterion measures what the *host*
//! pays to classify, batch, and flush; the simulation measures what the
//! modelled PMD core pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_tgen::scenarios::{run_fastpath, FastpathMode};
use std::hint::black_box;

fn bench_fastpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("fastpath");
    // One run_fastpath call builds the NSX host, warms 64 flows, and
    // pushes 512 frames through the pipeline — sized so an iteration
    // stays in the low milliseconds.
    g.sample_size(10);
    for burst in [1usize, 8, 32] {
        for mode in [FastpathMode::Batched, FastpathMode::BatchedSmc] {
            g.bench_with_input(
                BenchmarkId::new(mode.label(), burst),
                &(mode, burst),
                |b, &(mode, burst)| {
                    b.iter(|| black_box(run_fastpath(mode, burst, 64, 512).ns_per_pkt))
                },
            );
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
    targets = bench_fastpath
}
criterion_main!(benches);
