//! # ovs-afxdp — the OVS userspace AF_XDP driver
//!
//! The paper's §3: OVS implements its own AF_XDP driver rather than using
//! DPDK's, and optimizes it in five steps (Table 2):
//!
//! | level | change | Table 2 rate |
//! |---|---|---|
//! | O0 | datapath shares the general-purpose main thread | 0.8 Mpps |
//! | O1 | dedicated PMD thread per queue | 4.8 Mpps |
//! | O2 | umem pool spinlock instead of POSIX mutex | 6.0 Mpps |
//! | O3 | one lock per batch, shared housekeeping | 6.3 Mpps |
//! | O4 | preallocated `dp_packet` metadata | 6.6 Mpps |
//! | O5 | checksum offload (estimated) | 7.1 Mpps |
//!
//! [`OptLevel`] selects a cumulative prefix of these. Each level changes
//! the *actual code path* (which lock the umem pool takes, whether
//! metadata is pooled, whether checksums are computed in software) and the
//! corresponding calibrated charge. From O3 up the socket frees and
//! allocates umem frames in batches on every path: a 32-frame rx burst
//! (free the received frames, refill the fill ring) takes the pool's
//! lock twice, and so does a 32-frame tx burst (take frames, reclaim
//! completions), where O2 takes it 64 times.
//!
//! [`XskSocket`] is the userspace side of a socket created against the
//! simulated kernel; [`AfxdpPort`] bundles one socket per NIC queue and
//! installs the OVS hook program (an xskmap redirect) the way
//! `ovs-vswitchd` does when a port is added.

pub mod port;
pub mod socket;

pub use port::AfxdpPort;
pub use socket::{OptLevel, XskSocket};
