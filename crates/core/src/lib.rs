//! # ovs-core — the OVS userspace datapath and OpenFlow layer
//!
//! The paper's primary contribution is moving the OVS datapath into
//! userspace over AF_XDP while keeping the rest of OVS unchanged. This
//! crate is that OVS: the three-level flow-caching datapath and the
//! OpenFlow pipeline above it.
//!
//! * [`classifier`] — tuple-space-search classifier: one hash table per
//!   distinct mask ("subtable"), probed in descending max-priority order.
//! * [`cache`] — the exact-match cache (EMC) and the megaflow cache that
//!   make the fast path fast; exactly the structures the eBPF sandbox
//!   could not express (§2.2.2).
//! * [`ofproto`] — the OpenFlow-ish multi-table pipeline: priorities,
//!   goto-table, conntrack with resume tables, tunnel set-field, meters —
//!   and the **translation** step that turns a slow-path traversal into a
//!   megaflow (actions + accumulated wildcard mask).
//! * [`dpif`] — the datapath interface: `dpif-netdev`, the userspace
//!   datapath with PMD-style per-queue processing over AF_XDP / DPDK /
//!   tap / vhostuser ports, and `dpif-netlink`, the driver for the
//!   in-kernel datapath module (the baseline). Both run one action set,
//!   [`DpAction`] (re-exported from `ovs-kernel`, whose module runs it).
//! * [`ct`] — sharded connection tracking (re-exported from `ovs-ct`):
//!   zones with per-zone limits, a bounded table with early-drop
//!   eviction, a TCP-lite state machine, NAT, and rotating expiry
//!   sweeps that ride the revalidator cadence.
//! * [`tunnel`] — userspace Geneve/VXLAN encap/decap routed through the
//!   Netlink replica caches of §4.
//! * [`meter`] — token-bucket meters, the rate-limiting substitute the
//!   paper mentions under "Some features must be reimplemented"
//!   (re-exported from `ovs-kernel`: both datapaths police with them).
//! * [`mirror`] — ERSPAN port mirroring (the §2.1.1 backporting example).
//! * [`ofctl`] — the `ovs-ofctl add-flow` text syntax.
//! * [`tso`] — software segmentation for egress devices without TSO.
//! * [`revalidator`] — the udpif revalidator: megaflow lifecycle
//!   (idle/hard expiry, selective invalidation on `flow_mod`), the
//!   dynamic flow-limit algorithm, and stats pushback into OpenFlow
//!   rule counters.
//! * [`health`] — the datapath supervisor: `catch_unwind` around PMD
//!   polls, exponential-backoff restart with a bounded budget, and flow
//!   re-installation — the §6 "reduced risk" argument as a subsystem.
//! * [`snapshot`] — versioned datapath state capture (megaflows, ukeys,
//!   conntrack) and the `flow-restore-wait` gate: the hitless-restart
//!   substrate the supervisor uses for planned daemon restarts.
//! * [`controller`] — the modeled controller session: reconnect with
//!   exponential backoff riding `ovs-sim` faults, and the fail-mode
//!   ladder (standalone MAC-learning fallback vs secure drop).
//! * [`appctl`] — the `ovs-appctl` dispatch surface: `coverage/show`,
//!   `dpif-netdev/pmd-perf-show`, `ofproto/trace`, and friends.

pub use ovs_ct as ct;
pub use ovs_kernel::meter;
pub use ovs_nfv as nfv;

pub mod appctl;
pub mod cache;
pub mod classifier;
pub mod controller;
pub mod dpif;
pub mod health;
pub mod mirror;
pub mod ofctl;
pub mod ofproto;
pub mod pmd;
pub mod revalidator;
pub mod snapshot;
pub mod tso;
pub mod tunnel;

pub use cache::{Emc, MegaflowCache};
pub use classifier::Classifier;
pub use controller::{ControllerSession, FailMode};
pub use dpif::{DpAction, DpifNetdev, DpifNetlink, PortNo, PortType, NF_WORK_PORT};
pub use health::{HealthMonitor, HealthState};
pub use meter::{Meter, MeterSet};
pub use mirror::MirrorSession;
pub use ofctl::{dump_flows, parse_flow, parse_flows};
pub use ofproto::{OfAction, OfRule, Ofproto, RuleEntry};
pub use pmd::{AssignmentPolicy, PmdSet, PmdThread, RxqId};
pub use revalidator::{Revalidator, RevalidatorConfig, SweepSummary, Ufid, Ukey};
pub use snapshot::{DpSnapshot, FlowRecord, RestoreState, SNAPSHOT_VERSION};
