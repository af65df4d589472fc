//! Revalidator sweep cost vs installed megaflow count: each sweep dumps
//! every datapath flow with its counters, finds its ukey by UFID and
//! pushes the stats delta into the matched rules — so the cost should
//! scale linearly with the table size. This is the per-flow overhead that
//! bounds how large a flow limit a revalidator core can sustain at a
//! given sweep interval. The groups:
//!
//! - `revalidate/sweep`: the steady state, every flow current and kept;
//! - `revalidate/sweep_stale`: the OpenFlow tables changed before every
//!   sweep, so each flow is also re-translated (a flow is re-translated
//!   only when they changed since it was last checked);
//! - `revalidate/sweep_hot`: every flow has fresh traffic, so each push
//!   carries a non-zero delta;
//! - `revalidate/sweep_expire`: a sixth of the flows went idle and the
//!   sweep deletes them, the delete path a connection-setup workload
//!   keeps busy.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::ethernet::EtherType;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};
use std::cell::RefCell;
use std::hint::black_box;

fn tp_src_rule(tp: u16) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type(EtherType::Ipv4);
    key.set_nw_proto(17);
    key.set_tp_src(tp);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_SRC]),
        actions: vec![OfAction::Output(1)],
        cookie: 0,
    }
}

/// A datapath warmed with `flows` distinct megaflows, one per tp_src
/// rule, installed through real upcalls.
fn warm_datapath(flows: u16) -> (Kernel, DpifNetdev, u32) {
    let mut k = Kernel::new(4);
    let mut dp = DpifNetdev::new();
    dp.revalidator.cfg.flow_limit_max = 1 << 20;
    dp.revalidator.flow_limit = 1 << 20;
    let mut rx_nic = 0;
    for i in 0..2u8 {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        dp.add_port(
            &format!("eth{i}"),
            PortType::Afxdp(AfxdpPort::open(&mut k, nic, 256, OptLevel::O5).unwrap()),
        );
        if i == 0 {
            rx_nic = nic;
        }
    }
    for tp in 0..flows {
        dp.ofproto.add_rule(tp_src_rule(1000 + tp));
    }
    for tp in 0..flows {
        k.receive(rx_nic, 0, frame(1000 + tp));
        dp.pmd_poll(&mut k, 0, 0, 1);
    }
    assert_eq!(dp.megaflow_count(), flows as usize);
    (k, dp, rx_nic)
}

fn bench_sweep(c: &mut Criterion) {
    // The virtual clock never advances inside the measurement loop, so
    // every flow stays within its idle timeout and each sweep does the
    // steady-state work: dump and push a zero stats delta. The tables
    // never change, so no flow is re-translated.
    let mut g = c.benchmark_group("revalidate/sweep");
    for flows in [16u16, 128, 1024, 8192] {
        let (mut k, mut dp, _) = warm_datapath(flows);
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            b.iter(|| {
                let s = dp.revalidate(&mut k, 0);
                assert_eq!(s.dumped, u64::from(n));
                black_box(s.dumped)
            })
        });
    }
    g.finish();
}

fn bench_sweep_stale(c: &mut Criterion) {
    // Same sweep, but a rule lands in table 1 before each one. The
    // pipeline never visits table 1, so every flow survives, yet the new
    // table version makes the sweep re-translate all of them. The rule
    // is added in the untimed setup.
    let mut g = c.benchmark_group("revalidate/sweep_stale");
    for flows in [16u16, 1024, 8192] {
        let dp = RefCell::new(warm_datapath(flows));
        let mut tp = 0u16;
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            b.iter_batched(
                || {
                    tp = tp.wrapping_add(1);
                    dp.borrow_mut().1.ofproto.add_rule(OfRule {
                        table: 1,
                        ..tp_src_rule(tp)
                    });
                },
                |()| {
                    let (k, dp, _) = &mut *dp.borrow_mut();
                    let s = dp.revalidate(k, 0);
                    assert_eq!(s.dumped, u64::from(n));
                    assert_eq!(s.deleted(), 0);
                    black_box(s.dumped)
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// One UDP frame from `tp_src`, matching the `tp_src_rule` of that port.
fn frame(tp_src: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        tp_src,
        6000,
        96,
    )
}

fn bench_sweep_expire(c: &mut Criterion) {
    // Every sixth flow goes idle and the sweep deletes it: about the
    // share of a connection-setup table that expires per sweep period.
    // The untimed setup re-installs the flows the last sweep deleted,
    // lets the idle timeout pass, and touches the other five sixths.
    const SEC: u64 = 1_000_000_000;
    let mut g = c.benchmark_group("revalidate/sweep_expire");
    for flows in [1024u16, 8192] {
        let dp = RefCell::new(warm_datapath(flows));
        let (idle, live): (Vec<u16>, Vec<u16>) = (0..flows).partition(|tp| tp % 6 == 0);
        let send = |k: &mut Kernel, dp: &mut DpifNetdev, rx_nic, tps: &[u16]| {
            for chunk in tps.chunks(32) {
                for &tp in chunk {
                    k.receive(rx_nic, 0, frame(1000 + tp));
                }
                while dp.pmd_poll(k, 0, 0, 1) > 0 {}
            }
        };
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            b.iter_batched(
                || {
                    let (k, dp, rx_nic) = &mut *dp.borrow_mut();
                    send(k, dp, *rx_nic, &idle);
                    assert_eq!(dp.megaflow_count(), usize::from(n));
                    k.sim.clock.advance(11 * SEC);
                    send(k, dp, *rx_nic, &live);
                },
                |()| {
                    let (k, dp, _) = &mut *dp.borrow_mut();
                    let s = dp.revalidate(k, 0);
                    assert_eq!(s.dumped, u64::from(n));
                    assert_eq!(s.deleted_idle, idle.len() as u64);
                    assert_eq!(s.deleted(), idle.len() as u64);
                    black_box(s.dumped)
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_sweep_with_stats_delta(c: &mut Criterion) {
    // Same sweep, but every flow has fresh traffic since the last one,
    // so each push carries a non-zero delta into the rule counters.
    let mut g = c.benchmark_group("revalidate/sweep_hot");
    for flows in [16u16, 1024] {
        let (mut k, mut dp, rx_nic) = warm_datapath(flows);
        let frames: Vec<Vec<u8>> = (0..flows).map(|tp| frame(1000 + tp)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            b.iter(|| {
                for f in &frames {
                    k.receive(rx_nic, 0, f.clone());
                }
                while dp.pmd_poll(&mut k, 0, 0, 1) > 0 {}
                let s = dp.revalidate(&mut k, 0);
                assert_eq!(s.dumped, u64::from(n));
                black_box(s.dumped)
            })
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
    targets = bench_sweep, bench_sweep_stale, bench_sweep_with_stats_delta, bench_sweep_expire
}
criterion_main!(benches);
