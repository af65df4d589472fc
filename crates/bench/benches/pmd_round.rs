//! What a PMD round costs the switch on the wall clock. The paper's O1
//! gives each queue a PMD thread that spins over its rxqs, where polling
//! an empty rxq costs one failed ring read; `pmd_round/idle` is what the
//! switch pays per round on top of that (an empty poll charges nothing
//! to the virtual clock), and `pmd_round/overlay_burst32` what a round
//! that moves a burst pays per packet. The groups:
//!
//! - `pmd_round/idle/6`: an `nsx_small` host, 2 VMs: the uplink, the
//!   tunnel and 4 vifs;
//! - `pmd_round/idle/32`: an `nsx_default` host, 15 VMs, with an
//!   800-rule set: the uplink, the tunnel and 30 vifs;
//! - `pmd_round/overlay_burst32`: one warm 32-frame burst from VM 0 on
//!   host 1 to a sink VM on host 2 through `HostPair::shuttle`
//!   (`nsx_small` hosts), in runs of 4 frames over 512 flows, as in
//!   `tests/alloc_budget.rs`. Frames are built outside the timed
//!   routine.
//!
//! Set-up checks that an idle pump leaves `DpifStats` unchanged and adds
//! one `pmd-perf-show` iteration per rxq, and that after warm-up every
//! frame of a burst reaches the sink and neither datapath's descriptor
//! pool allocates.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ovs_afxdp::OptLevel;
use ovs_kernel::guest::GuestRole;
use ovs_nsx::ruleset;
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_packet::builder;
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

/// Frames per burst.
const BURST: usize = 32;
/// Consecutive frames per flow.
const RUN_LEN: usize = 4;
/// Distinct flows (UDP source ports).
const FLOWS: usize = 512;
/// Bursts of warm-up, and of the check after it: two passes over the
/// flows.
const WARM: usize = 2 * FLOWS * RUN_LEN / BURST;

/// The frames of burst `b`, VM 0 on host 1 to VM 0 on host 2.
fn burst_frames(b: usize) -> Vec<Vec<u8>> {
    (b * BURST..(b + 1) * BURST)
        .map(|seq| {
            builder::udp_ipv4_frame(
                ruleset::vm_mac(1, 0, 0),
                ruleset::vm_mac(2, 0, 0),
                ruleset::vm_ip(1, 0, 0),
                ruleset::vm_ip(2, 0, 0),
                (5000 + (seq / RUN_LEN) % FLOWS) as u16,
                4444,
                64,
            )
        })
        .collect()
}

/// Offer one burst at VM 0 on host 1, shuttle it across, and step both
/// virtual clocks by 1 ms.
fn send(pair: &mut HostPair, frames: Vec<Vec<u8>>) -> usize {
    let sender = pair.h1.guest_of_vif[0];
    pair.h1.kernel.guests[sender].tx_ring.extend(frames);
    let moved = pair.shuttle();
    pair.advance(1_000_000);
    moved
}

/// A warmed pair, checked as described above; returns it with the
/// number of the next burst.
fn overlay_pair() -> (HostPair, usize) {
    let mut pair = HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_small(id, AFXDP_O5, VmAttachment::VhostUser);
        if id == 2 {
            cfg.guest_role = GuestRole::Sink;
        }
        cfg
    });
    let fresh = |p: &HostPair| {
        [&p.h1, &p.h2].map(|h| {
            let dp = h.dp.as_ref().expect("userspace datapath");
            dp.packet_pool().fresh_allocs
        })
    };
    let sink = pair.h2.guest_of_vif[0];
    for b in 0..WARM {
        send(&mut pair, burst_frames(b));
    }
    let (warm, sunk) = (fresh(&pair), pair.h2.kernel.guests[sink].rx_count);
    for b in WARM..2 * WARM {
        send(&mut pair, burst_frames(b));
    }
    let got = pair.h2.kernel.guests[sink].rx_count - sunk;
    assert_eq!(got, (WARM * BURST) as u64, "frames missed the sink");
    assert_eq!(fresh(&pair), warm, "a warm burst allocated a descriptor");
    (pair, 2 * WARM)
}

fn bench_overlay(c: &mut Criterion) {
    let (mut pair, mut next) = overlay_pair();
    c.bench_function("pmd_round/overlay_burst32", |b| {
        b.iter_batched(
            || {
                next += 1;
                burst_frames(next - 1)
            },
            |frames| send(&mut pair, frames),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_idle, bench_overlay);
criterion_main!(benches);
