//! # ovs-kernel — the simulated Linux kernel substrate
//!
//! Everything the paper's system touches in the kernel, rebuilt as a
//! deterministic single-threaded model with calibrated costs (see
//! `ovs-sim::costs` and DESIGN.md for the substitution argument):
//!
//! * **net devices** ([`dev`]): physical NICs with multi-queue RSS and
//!   per-queue or whole-device XDP attachment (the Mellanox vs Intel models
//!   of Fig 6), tap devices, veth pairs;
//! * **driver RX path** ([`kernel`]): XDP program execution before skb
//!   allocation, `XDP_REDIRECT` into AF_XDP sockets ([`xsk`]) or other
//!   devices, then the skb path into the stack or the OVS kernel module;
//! * **the OVS kernel datapath** ([`ovs_module`]) — the baseline the paper
//!   is moving away from: megaflow table, upcalls, and the datapath action
//!   set both datapaths execute ([`action`]), including Geneve tunnelling,
//!   conntrack (the `ovs-ct` crate) and meters ([`meter`]);
//! * **rtnetlink and the standard tools** ([`rtnetlink`], [`tools`]):
//!   `ip link/addr/route/neigh`, `ping`, `arping`, `nstat`, `tcpdump` —
//!   which keep working with kernel- and AF_XDP-managed NICs and fail on
//!   DPDK-owned ones (Table 1);
//! * **containers and guests** ([`namespace`], [`guest`]): network
//!   namespaces behind veth pairs, VMs behind tap/vhost-net or vhostuser.

pub mod action;
pub mod dev;
pub mod guest;
pub mod kernel;
pub mod meter;
pub mod namespace;
pub mod neigh;
pub mod ovs_module;
pub mod route;
pub mod rtnetlink;
pub mod tools;
pub mod xsk;

pub use action::{DpAction, PortNo};
pub use dev::{
    Attachment, DevStats, DeviceKind, NetDevice, NtupleRule, OffloadCaps, Owner, XdpAttachment,
    XdpMode,
};
pub use guest::{Guest, GuestRole, VirtioBackend};
pub use kernel::{Kernel, KernelConfig, RxOutcome, Upcall};
pub use meter::{Meter, MeterSet};
pub use namespace::{ContainerRole, Namespace};
pub use ovs_module::OvsModule;
pub use xsk::XskBinding;
