//! Wall-clock benchmark of the two-host NSX overlay.
//!
//! Two hypervisors run the full Table 3 rule set on AF_XDP uplinks with
//! vhostuser VMs. VM 0 on host 1 keeps one 32-frame burst in flight to a
//! sink VM on host 2 (a closed loop with one client, in one thread); each
//! round is timed from offering the burst until both hosts are quiet.
//! See `BENCHMARK.json` at the repository root for the workloads and
//! metrics, and `nsxbench/README.md` for how to run it.

pub mod gen;
pub mod json;
pub mod reference;
pub mod rig;
pub mod run;
pub mod stats;
pub mod trace;
