//! # ovs-bench — the reproduction harness and micro-benchmarks
//!
//! * The `repro` binary regenerates every table and figure of the paper's
//!   evaluation from the simulation (`cargo run -p ovs-bench --bin repro`,
//!   or with a `--table2`-style flag for one experiment). Its output is
//!   what EXPERIMENTS.md records.
//! * The Criterion benches (`cargo bench`) measure the *real* wall-clock
//!   cost of the hot data structures — classifier lookups, umem lock
//!   strategies, metadata pooling, XSK ring batching, eBPF interpretation —
//!   i.e. the ablations DESIGN.md §4 calls out.
//! * [`fig1`] embeds the paper's Figure 1 dataset (out-of-tree kernel
//!   module churn), which is repository-history data, not a measurement.
//! * [`json::Json`] writes every `BENCH_*.json` report `repro` emits.

pub mod fig1;
pub mod json;
