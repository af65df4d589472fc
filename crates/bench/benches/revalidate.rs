//! Revalidator sweep cost vs installed megaflow count: each sweep dumps
//! every datapath flow with its counters and pushes the stats delta into
//! the matched rules — so the cost should scale linearly with the table
//! size. A flow is re-translated against the OpenFlow tables only when
//! they changed since it was last checked; `revalidate/sweep_stale`
//! changes them before every sweep, so it measures that re-translation
//! too. This is the per-flow overhead that bounds how large a flow limit
//! a revalidator core can sustain at a given sweep interval.

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
        let f = builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 9, 9),
            MacAddr::new(2, 0, 0, 0, 0, 1),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000 + tp,
            6000,
            96,
        );
        k.receive(rx_nic, 0, f);
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

fn bench_sweep_with_stats_delta(c: &mut Criterion) {
    // Same sweep, but every flow has fresh traffic since the last one,
    // so each push carries a non-zero delta into the rule counters.
    let mut g = c.benchmark_group("revalidate/sweep_hot");
    for flows in [16u16, 1024] {
        let (mut k, mut dp, rx_nic) = warm_datapath(flows);
        let frames: Vec<Vec<u8>> = (0..flows)
            .map(|tp| {
                builder::udp_ipv4_frame(
                    MacAddr::new(2, 0, 0, 0, 9, 9),
                    MacAddr::new(2, 0, 0, 0, 0, 1),
                    [10, 0, 0, 1],
                    [10, 0, 0, 2],
                    1000 + tp,
                    6000,
                    96,
                )
            })
            .collect();
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
    targets = bench_sweep, bench_sweep_stale, bench_sweep_with_stats_delta
}
criterion_main!(benches);
