//! # ovs-nfv — an openNetVM-style NF manager on the OVS dataplane
//!
//! The paper's context is NFV: the OVS dataplane exists to carry traffic
//! between virtualized network functions, and the benchmarking literature
//! it engages with (Niu et al.; Zhang et al., see PAPERS.md) evaluates
//! software switches *through* NF service chains. This crate adds the
//! missing half of that rig: a centralized NF manager in the openNetVM
//! mold — the manager owns the per-NF rings and the tenant→chain table;
//! NFs are isolated workers that see nothing but the packets handed to
//! them. A ring carries the datapath's own `DpPacket` handles, so a
//! packet crosses a chain without a copy and the datapath's descriptor
//! pool is the only pool.
//!
//! Layering:
//!
//! - [`nf`] — the [`NetworkFunction`] trait, verdicts, and the built-in
//!   NFs (pass-through, firewall, L4 LB, flow monitor, DPI-lite).
//! - [`chain`] — per-tenant [`NfChain`]s and the dead-NF policy
//!   (bypass vs fail-closed).
//! - [`manager`] — the [`NfManager`]: rings, the exit list, crash
//!   isolation (`catch_unwind` per popped batch, rebuild-from-spec with
//!   exponential backoff and a bounded restart budget).
//!
//! `ovs-core` wires chains into the datapath via `DpAction::NfChain` and
//! schedules each NF instance as an rxq-like unit on the PMD scheduler;
//! this crate stays kernel-free so its semantics are testable in
//! isolation.

pub mod chain;
pub mod manager;
pub mod nf;

pub use chain::{ChainId, ChainPolicy, NfChain};
pub use manager::{
    Ingress, NfId, NfInstance, NfManager, NfState, NfStats, PollOutcome, NF_PANIC_MSG,
};
pub use nf::{
    five_tuple_hash, parse_five_tuple, payload_offset, FiveTuple, FwRule, NetworkFunction, NfSpec,
    NfVerdict,
};
