//! A production-shaped deployment: two hypervisors running the userspace
//! AF_XDP datapath under an NSX-style control plane — Geneve overlay,
//! distributed firewall with conntrack, ~2,000 OpenFlow rules — carrying
//! VM-to-VM traffic across hosts (the §5.1 setting, scaled down).
//!
//! Run with: `cargo run --example nsx_deployment`

use ovs_afxdp::OptLevel;
use ovs_kernel::guest::GuestRole;
use ovs_nsx::ruleset;
use ovs_nsx::topology::{DatapathKind, HostConfig, HostPair, VmAttachment};
use ovs_packet::builder;

fn main() {
    let datapath = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    // Both hosts, with the underlay peering the physical fabric's
    // control plane would provide.
    let mut pair = HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_default(id, datapath, VmAttachment::VhostUser);
        cfg.nsx.vms = 4;
        cfg.nsx.tunnels = 16;
        cfg.nsx.target_rules = 2_000;
        cfg
    });
    let rs = &pair.h1.ruleset;
    println!(
        "host1 rule set: {} rules, {} tables, {} match fields",
        rs.rules, rs.tables, rs.matching_fields
    );

    // VM0 on host 1 talks to VM0 on host 2; the echo role answers, so we
    // see the full request/response over the overlay. The sender absorbs
    // replies (a Sink) so the exchange terminates.
    let sender = pair.h1.guest_of_vif[0];
    pair.h1.kernel.guests[sender].role = GuestRole::Sink;
    for seq in 0..50u16 {
        let frame = builder::udp_ipv4(
            ruleset::vm_mac(1, 0, 0),
            ruleset::vm_mac(2, 0, 0),
            ruleset::vm_ip(1, 0, 0),
            ruleset::vm_ip(2, 0, 0),
            4000 + seq,
            7,
            format!("request {seq}").as_bytes(),
        );
        pair.h1.kernel.guests[sender].tx_ring.push_back(frame);
        pair.settle();
    }

    let (h1, h2) = (&pair.h1, &pair.h2);
    let dp1 = h1.dp.as_ref().unwrap();
    let dp2 = h2.dp.as_ref().unwrap();
    println!("\nhost1 datapath:");
    println!("  tunnel encaps:   {}", dp1.stats.tunnel_encaps);
    println!("  tunnel decaps:   {}", dp1.stats.tunnel_decaps);
    println!("  recirculations:  {}", dp1.stats.recirculations);
    println!("  upcalls:         {}", dp1.stats.upcalls);
    println!("  megaflows:       {}", dp1.megaflow_count());
    println!("  conntrack:       {} connections", dp1.ct.len());
    println!("host2 datapath:");
    println!("  tunnel decaps:   {}", dp2.stats.tunnel_decaps);
    println!("  conntrack:       {} connections", dp2.ct.len());
    let replies = h1.kernel.guests[sender].rx_count;
    println!("\nVM0@host1 received {replies} echo replies over the overlay");

    assert_eq!(replies, 50, "every request answered exactly once");
    assert!(dp1.stats.tunnel_encaps >= 50);
    assert!(!dp1.ct.is_empty(), "firewall tracked the flows");
    assert!(
        dp1.stats.upcalls < 20,
        "steady state runs from the megaflow cache ({} upcalls)",
        dp1.stats.upcalls
    );
    println!("ok");
}
