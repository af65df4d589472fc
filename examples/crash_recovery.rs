//! The §6 "Reduced risk" lesson, demonstrated: a datapath bug in the
//! userspace architecture crashes *only the OVS process*, which the health
//! monitor restarts — VMs, the kernel, and the NIC keep running, and the
//! caches simply re-warm. The same bug in a kernel module would have
//! panicked the host ("a past bug in the Geneve protocol parser ... might
//! have triggered a null-pointer dereference that would crash the entire
//! system").
//!
//! The supervisor here is `ovs_core::health::HealthMonitor`, the same one
//! the fault-injection soak runs: it owns datapath construction, wraps
//! every PMD poll in `catch_unwind`, tears a crashed datapath down with
//! counted packet loss, and rebuilds it after an exponential backoff.
//!
//! Run with: `cargo run --example crash_recovery`

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::health::{quiet_simulated_panics, HealthMonitor};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};
use ovs_sim::FaultKind;

/// Build (or rebuild) the OVS process state: datapath, ports, rules.
/// The kernel (devices, guests, XDP infrastructure) is NOT part of this —
/// that's the point. The health monitor calls this on every restart, the
/// way systemd would re-exec `ovs-vswitchd`.
fn start_ovs(kernel: &mut Kernel, eth0: u32, eth1: u32) -> DpifNetdev {
    let mut dp = DpifNetdev::new();
    let p0 = dp.add_port(
        "eth0",
        PortType::Afxdp(AfxdpPort::open(kernel, eth0, 256, OptLevel::O5).unwrap()),
    );
    let p1 = dp.add_port(
        "eth1",
        PortType::Afxdp(AfxdpPort::open(kernel, eth1, 256, OptLevel::O5).unwrap()),
    );
    let mut key = FlowKey::default();
    key.set_in_port(p0);
    dp.ofproto.add_rule(OfRule {
        table: 0,
        priority: 1,
        key,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Output(p1)],
        cookie: 0,
    });
    dp
}

fn main() {
    // The supervisor catches the injected panic; keep its backtrace out
    // of the demo output (any other panic still prints).
    quiet_simulated_panics();

    let mut kernel = Kernel::new(4);
    let eth0 = kernel.add_device(NetDevice::new(
        "eth0",
        MacAddr::new(2, 0, 0, 0, 0, 1),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let eth1 = kernel.add_device(NetDevice::new(
        "eth1",
        MacAddr::new(2, 0, 0, 0, 0, 2),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));

    // 1 ms restart backoff, up to 4 restarts before failing closed.
    let mut monitor = HealthMonitor::with_policy(move |k| start_ovs(k, eth0, eth1), 1_000_000, 4);
    let mut dp = Some(monitor.start(&mut kernel));

    let good = builder::udp_ipv4(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        1,
        2,
        b"fine",
    );

    let mut delivered = 0;
    for i in 0..100 {
        if i == 50 {
            // The latent datapath bug fires: in the kernel architecture
            // this Geneve parse would have been a host panic.
            kernel.inject_fault(FaultKind::DatapathPanic, 0, 0, 0);
        }
        kernel.receive(eth0, 0, good.clone());
        delivered += monitor.poll(&mut dp, &mut kernel, 0, 0, 1);
        if dp.is_none() {
            eprintln!(
                "[health-monitor] ovs-vswitchd crashed (packet {i}); core dumped; restarting"
            );
            // The crash costs the frames parked on the dead datapath's
            // rings (counted by `xsk_close_flushed`) and the backoff
            // window — nothing else. Kernel state is untouched.
            kernel.sim.clock.advance(2_000_000);
            delivered += monitor.poll(&mut dp, &mut kernel, 0, 0, 1);
        }
        kernel.sim.clock.advance(10_000);
    }

    println!("packets delivered:   {delivered}");
    println!("ovs restarts:        {}", monitor.restarts);
    println!(
        "crash packet loss:   {} (counted, never silent)",
        ovs_obs::coverage::total("xsk_close_flushed")
    );
    println!("host uptime:         uninterrupted (kernel state survived)");
    println!(
        "devices still up:    {}",
        kernel.kernel_devices().filter(|d| d.up).count()
    );
    println!();
    print!("{}", monitor.show(kernel.sim.clock.now_ns()));
    assert_eq!(monitor.restarts, 1, "exactly the injected bug crashed OVS");
    assert_eq!(monitor.crashes.len(), 1);
    assert!(delivered >= 98, "everything else flowed: {delivered}");
    println!("ok");
}
