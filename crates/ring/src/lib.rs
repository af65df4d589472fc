//! # ovs-ring — descriptor rings and the umem frame pool
//!
//! The data structures underneath AF_XDP packet I/O, implemented for real:
//!
//! * [`SpscRing`] — a lock-free single-producer/single-consumer ring of
//!   64-bit descriptors, the shape of the four XSK rings (RX, TX, fill,
//!   completion) described in §3.1 and Figure 4 of the paper.
//! * [`Umem`] — the shared packet-buffer region an XSK socket is bound to,
//!   with its fill and completion rings and a frame allocator.
//! * [`UmemPool`] — the paper's "umempool" userspace library (§3.2, O2/O3):
//!   the lockable free-frame manager, with selectable locking strategy
//!   (POSIX-style mutex, spinlock, or batched spinlock) so the O1→O2→O3
//!   optimization steps are real code-path differences.
//! * [`DpPacketPool`] — optimization **O4**: the datapath's one pool of
//!   reusable packet descriptors, filled lazily and bounded, instead of
//!   an allocation per packet.
//! * [`PacketBatch`] — the 32-packet working batch the datapath processes
//!   at a time.

pub mod batch;
pub mod metapool;
pub mod spinlock;
pub mod spsc;
pub mod umem;

pub use batch::{PacketBatch, BATCH_SIZE};
pub use metapool::DpPacketPool;
pub use spinlock::{LockStrategy, RawSpinlock};
pub use spsc::{Desc, SpscRing};
pub use umem::{Umem, UmemPool};
