//! The datapath action set, one for both datapaths.
//!
//! Upstream OVS has one action vocabulary, the `OVS_ACTION_ATTR_*`
//! netlink attributes: the kernel module executes it, and
//! `lib/odp-execute.c` executes the same set for the userspace datapath.
//! [`DpAction`] is that set here. OpenFlow translation emits it, the
//! megaflows of both datapaths store it, and both the kernel module
//! ([`OvsModule`](crate::OvsModule)) and ovs-core's `DpifNetdev` run it,
//! so a pipeline cannot mean one thing above one datapath and another
//! above the other.

use ovs_ct::NatSpec;
use ovs_packet::MacAddr;

/// A datapath port number.
pub type PortNo = u32;

/// Datapath actions — the output language of translation and the payload
/// of megaflow entries. An empty list drops the packet.
#[derive(Debug, Clone, PartialEq)]
pub enum DpAction {
    /// Output to a datapath port.
    Output(PortNo),
    /// Set the tunnel key and remote endpoint for a later tunnel-port
    /// output; the tunnel port supplies the local endpoint.
    SetTunnel { id: u64, dst: [u8; 4] },
    /// Rewrite the Ethernet source.
    SetEthSrc(MacAddr),
    /// Rewrite the Ethernet destination.
    SetEthDst(MacAddr),
    /// Push an 802.1Q tag.
    PushVlan(u16),
    /// Pop the outer 802.1Q tag.
    PopVlan,
    /// Run conntrack in `zone`, committing (with an optional NAT mapping)
    /// if `commit`.
    Ct {
        zone: u16,
        commit: bool,
        nat: Option<NatSpec>,
    },
    /// Look the packet up again under a new recirculation id.
    Recirc(u32),
    /// Offer the packet to a meter; the policer drops it over the rate.
    Meter(u32),
    /// Hand the packet to the NF service chain `chain_id` (ovs-nfv).
    /// Terminal: the chain's verdicts decide where the packet goes next.
    NfChain(u32),
}
