//! Property test for the revalidator sweep: against a random schedule of
//! traffic, clock advances, and sweeps, the datapath's megaflow table
//! must track a simple reference model exactly — a sweep never deletes a
//! flow used within its idle timeout, never keeps one idle past it, and
//! the packet accounting stays coherent throughout.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::ethernet::EtherType;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of a generated schedule.
#[derive(Debug, Clone)]
enum Event {
    /// Send a UDP packet with the i-th source port.
    Packet(u16),
    /// Advance the virtual clock by this many milliseconds.
    Advance(u64),
    /// Run one revalidator sweep.
    Sweep,
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u8..8, any::<u16>(), any::<u8>()).prop_map(|(choice, tp, gap)| match choice {
        0..=4 => Event::Packet(tp % 12),
        5 | 6 => Event::Advance(u64::from(gap % 40) * 500),
        _ => Event::Sweep,
    })
}

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

fn setup() -> (Kernel, DpifNetdev, Vec<u32>) {
    let mut k = Kernel::new(4);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
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
        nics.push(nic);
    }
    // One matching rule per flow so each source port gets its own
    // megaflow (tp_src is in every translated mask).
    for tp in 0..12u16 {
        dp.ofproto.add_rule(tp_src_rule(1000 + tp));
    }
    (k, dp, nics)
}

proptest! {
    /// Reference model: a map `tp -> (created_ns, last_used_ns)`. A
    /// packet inserts or touches its flow; a sweep removes exactly the
    /// flows idle strictly longer than `max_idle` (the table never
    /// reaches the flow limit, and rules never change, so idle expiry is
    /// the only legal delete reason).
    #[test]
    fn sweep_expires_exactly_the_idle_flows(
        events in proptest::collection::vec(arb_event(), 1..120),
    ) {
        let (mut k, mut dp, nics) = setup();
        let idle_ns = dp.revalidator.cfg.max_idle_ms * 1_000_000;
        let mut model: HashMap<u16, (u64, u64)> = HashMap::new();
        let mut pkts_sent: u64 = 0;

        for ev in &events {
            match ev {
                Event::Packet(i) => {
                    let tp = 1000 + i;
                    let now = k.sim.clock.now_ns();
                    k.receive(nics[0], 0, frame(tp));
                    dp.pmd_poll(&mut k, 0, 0, 1);
                    pkts_sent += 1;
                    model
                        .entry(tp)
                        .and_modify(|(_, used)| *used = now)
                        .or_insert((now, now));
                }
                Event::Advance(ms) => k.sim.clock.advance(ms * 1_000_000),
                Event::Sweep => {
                    let now = k.sim.clock.now_ns();
                    let before = model.len() as u64;
                    model.retain(|_, (_, used)| now - *used <= idle_ns);
                    let expect_deleted = before - model.len() as u64;

                    let s = dp.revalidate(&mut k, 0);
                    prop_assert_eq!(s.deleted_idle, expect_deleted,
                        "sweep at {}ms deleted the wrong flows", now / 1_000_000);
                    prop_assert_eq!(s.deleted_hard, 0);
                    prop_assert_eq!(s.deleted_changed, 0, "rules never changed");
                    prop_assert_eq!(s.evicted, 0, "never near the flow limit");
                }
            }
            // The table tracks the model at every step, and each entry's
            // ukey holds the translation it was installed with.
            prop_assert_eq!(dp.megaflow_count(), model.len());
            prop_assert_eq!(dp.restored_count(), 0);
            prop_assert!(dp.stats.coherent(), "{:?}", dp.stats);
        }

        // Every packet was forwarded (misses and hits alike) and the
        // final sweep's pushback accounts for all of them: each packet
        // matched exactly one tp_src rule.
        prop_assert_eq!(k.device(nics[1]).tx_wire.len() as u64, pkts_sent);
        dp.revalidate(&mut k, 0);
        let credited: u64 = dp
            .ofproto
            .iter_rules()
            .map(|r| r.n_packets.get())
            .sum();
        prop_assert_eq!(credited, pkts_sent, "stats pushback is exact");
    }
}
