//! Observability substrate for the OVS reproduction.
//!
//! Three pillars, mirroring real OVS introspection:
//!
//! * [`coverage`](mod@coverage) — cheap named event counters (`COVERAGE_INC` style)
//!   with per-epoch rate windows, rendered by `coverage/show`;
//! * [`perf`] — per-PMD per-stage cycle attribution driven by the
//!   deterministic sim clock, rendered by `dpif-netdev/pmd-perf-show`;
//! * [`trace`] — an `ofproto/trace`-equivalent pipeline trace recorder.
//!
//! Plus [`latency`], which rides on `perf`'s stage timers: per-packet
//! rx→tx latency histograms (per port / per PMD / merged) and the
//! per-stage latency decomposition behind `dpif-netdev/latency-show`.
//!
//! The crate is dependency-free (not even on `ovs-sim`) so every layer
//! of the stack — eBPF VM, kernel module, AF_XDP sockets, userspace
//! datapath — can bump counters without dependency cycles.

pub mod coverage;
pub mod hist;
pub mod latency;
pub mod perf;
pub mod trace;

pub use hist::Log2Hist;
pub use latency::{LatencySummary, LatencyTracker};
pub use perf::{PmdPerf, Stage, StageTimer};
pub use trace::TraceCtx;
