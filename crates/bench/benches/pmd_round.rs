//! One idle PMD round: `Host::pump` when no rxq has anything to
//! receive. The paper's O1 gives each queue a PMD thread that spins over
//! its rxqs, where polling an empty rxq costs one failed ring read; this
//! is what the switch pays per round on top of that, on the wall clock
//! only (an empty poll charges nothing to the virtual one). The groups:
//!
//! - `pmd_round/idle/6`: an `nsx_small` host, 2 VMs: the uplink, the
//!   tunnel and 4 vifs;
//! - `pmd_round/idle/32`: an `nsx_default` host, 15 VMs, with an
//!   800-rule set: the uplink, the tunnel and 30 vifs.
//!
//! Set-up checks that an idle pump leaves `DpifStats` unchanged and adds
//! one `pmd-perf-show` iteration per rxq.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_afxdp::OptLevel;
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, VmAttachment};
use std::hint::black_box;

const AFXDP_O5: DatapathKind = DatapathKind::UserspaceAfxdp {
    opt: OptLevel::O5,
    interrupt_mode: false,
};

/// `pmd-perf-show`'s iteration count over all PMD threads.
fn iterations(h: &mut Host) -> u64 {
    let perf = h.appctl("dpif-netdev/pmd-perf-show", &[]).unwrap();
    let all = perf
        .split("all pmd threads:")
        .nth(1)
        .expect("summary block");
    let n = all.split("iterations: ").nth(1).expect("iterations field");
    n.split_whitespace().next().unwrap().parse().unwrap()
}

/// A host with `rxqs` rxqs, pumped once so every lazily built structure
/// exists, and checked to pump idle as described above.
fn idle_host(rxqs: usize) -> Host {
    let cfg = if rxqs == 6 {
        HostConfig::nsx_small(1, AFXDP_O5, VmAttachment::VhostUser)
    } else {
        let mut cfg = HostConfig::nsx_default(1, AFXDP_O5, VmAttachment::VhostUser);
        cfg.nsx.target_rules = 800;
        cfg
    };
    let mut h = Host::build(&cfg);
    let polled: usize = h
        .pmds
        .as_ref()
        .expect("userspace host has a scheduler")
        .pmds()
        .iter()
        .map(|p| p.rxqs().len())
        .sum();
    assert_eq!(polled, rxqs);
    assert_eq!(h.pump(), 0, "nothing to move");
    let stats = |h: &Host| h.dp.as_ref().expect("userspace datapath").stats;
    let (before, iters) = (stats(&h), iterations(&mut h));
    assert_eq!(h.pump(), 0, "nothing to move");
    assert_eq!(stats(&h), before, "an idle pump moved a counter");
    assert_eq!(iterations(&mut h) - iters, rxqs as u64);
    h
}

fn bench_idle(c: &mut Criterion) {
    let mut g = c.benchmark_group("pmd_round/idle");
    for rxqs in [6usize, 32] {
        let mut h = idle_host(rxqs);
        g.bench_with_input(BenchmarkId::from_parameter(rxqs), &rxqs, |b, _| {
            b.iter(|| black_box(h.pump()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_idle);
criterion_main!(benches);
