//! The packet-descriptor pool — optimization **O4**.
//!
//! §3.2: "the mmap system call used to allocate dp_packet structures
//! entailed significant overhead. To avoid it, we pre-allocated packet
//! metadata in a contiguous array and pre-initialized their
//! packet-independent fields."
//!
//! The userspace datapath keeps **one** [`DpPacketPool`] for all of its
//! ports (OVS's per-PMD `dp_packet` reuse, DPDK's mbuf mempool). Every
//! receive takes its descriptor from it, whatever the port type, and a
//! descriptor goes back once its last copy out has been made: after the
//! AF_XDP tx writes it into the umem, or after the vhost, tap or
//! af_packet copy-out. The pool starts empty and keeps what comes back,
//! up to a bound — the umem frame count of the datapath's O4 AF_XDP
//! sockets, the most descriptors that can be in flight — so a warm
//! packet allocates nothing, and nothing is zero-filled up front.
//!
//! One pool per datapath, not one per socket, because an overlay host's
//! uplink is asymmetric. A transmit-only uplink returns every descriptor
//! and takes none, so its pool only grows; a receive-only uplink takes
//! every descriptor and gets none back, because the copy-out happens on
//! another port, so its pool runs dry after `nframes` packets and every
//! later packet allocates.
//!
//! Below O4 the AF_XDP sockets add nothing to the bound and take fresh
//! descriptors, so the O3→O4 delta stays a real code difference,
//! observable in the `dp_packet_alloc` ablation bench.

use ovs_packet::DpPacket;

/// A reusable pool of [`DpPacket`] descriptors.
#[derive(Debug)]
pub struct DpPacketPool {
    free: Vec<DpPacket>,
    capacity_hint: usize,
    /// Most descriptors the pool keeps; one put back beyond it is freed.
    bound: usize,
    /// How many packets were handed out from the pool.
    pub reuses: u64,
    /// How many packets had to be freshly allocated (pool empty, or
    /// pooling disabled).
    pub fresh_allocs: u64,
}

impl DpPacketPool {
    /// An empty pool that fills lazily: it keeps up to `bound` returned
    /// descriptors, each allocated with `data_capacity` bytes of packet
    /// room when the pool first runs dry.
    pub fn new(bound: usize, data_capacity: usize) -> Self {
        Self {
            free: Vec::new(),
            capacity_hint: data_capacity,
            bound,
            reuses: 0,
            fresh_allocs: 0,
        }
    }

    /// Preallocate `n` descriptors, each with `data_capacity` bytes of
    /// packet room, with packet-independent fields already initialized.
    /// The pool keeps every descriptor put back.
    pub fn with_preallocated(n: usize, data_capacity: usize) -> Self {
        Self {
            free: (0..n)
                .map(|_| DpPacket::with_capacity(data_capacity))
                .collect(),
            ..Self::new(usize::MAX, data_capacity)
        }
    }

    /// A pool that keeps nothing: every take is a fresh allocation. This
    /// reproduces the pre-O4 behaviour.
    pub fn without_preallocation(data_capacity: usize) -> Self {
        Self::new(0, data_capacity)
    }

    /// Number of descriptors currently pooled.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// The most descriptors the pool keeps.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Change the bound, freeing pooled descriptors beyond it.
    pub fn set_bound(&mut self, bound: usize) {
        self.bound = bound;
        self.free.truncate(bound);
    }

    /// Take a descriptor: pooled if available, freshly allocated otherwise.
    pub fn take(&mut self) -> DpPacket {
        match self.free.pop() {
            Some(p) => {
                self.reuses += 1;
                p
            }
            None => self.take_fresh(),
        }
    }

    /// Allocate a fresh descriptor, bypassing the pool (the pre-O4 path).
    pub fn take_fresh(&mut self) -> DpPacket {
        self.fresh_allocs += 1;
        DpPacket::with_capacity(self.capacity_hint)
    }

    /// Return a descriptor, resetting its metadata; it is freed instead
    /// when the pool already holds its bound.
    pub fn put(&mut self, mut pkt: DpPacket) {
        if self.free.len() < self.bound {
            pkt.reset();
            self.free.push(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preallocated_pool_reuses() {
        let mut pool = DpPacketPool::with_preallocated(2, 256);
        let a = pool.take();
        let _b = pool.take();
        assert_eq!(pool.reuses, 2);
        assert_eq!(pool.fresh_allocs, 0);
        // Pool empty: next take allocates fresh.
        let _c = pool.take();
        assert_eq!(pool.fresh_allocs, 1);
        pool.put(a);
        assert_eq!(pool.available(), 1);
        let _a2 = pool.take();
        assert_eq!(pool.reuses, 3);
    }

    #[test]
    fn unpooled_always_allocates() {
        let mut pool = DpPacketPool::without_preallocation(64);
        for _ in 0..5 {
            let p = pool.take();
            // Returned, but a pre-O4 pool keeps nothing.
            pool.put(p);
        }
        assert_eq!(pool.fresh_allocs, 5);
        assert_eq!(pool.reuses, 0);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn lazy_pool_fills_to_its_bound_and_no_further() {
        let mut pool = DpPacketPool::new(3, 64);
        assert_eq!(pool.available(), 0, "nothing allocated up front");
        let pkts: Vec<DpPacket> = (0..5).map(|_| pool.take()).collect();
        assert_eq!(pool.fresh_allocs, 5);
        for p in pkts {
            pool.put(p);
        }
        assert_eq!(pool.available(), 3, "the surplus is freed, not kept");
        for _ in 0..100 {
            let p = pool.take();
            pool.put(p);
        }
        assert_eq!(pool.fresh_allocs, 5, "a warm take allocates nothing");
        assert_eq!(pool.reuses, 100);
        pool.set_bound(1);
        assert_eq!(pool.available(), 1, "shrinking frees the excess");
    }

    #[test]
    fn a_recycled_descriptor_keeps_its_allocation() {
        let mut pool = DpPacketPool::new(4, 64);
        let p = pool.take();
        let at: *const ovs_packet::dp_packet::Descriptor = &*p;
        pool.put(p);
        let p = pool.take();
        assert!(
            std::ptr::eq(&*p, at),
            "put then take handed back another box"
        );
        assert_eq!((pool.fresh_allocs, pool.reuses), (1, 1));
    }

    #[test]
    fn put_resets_metadata() {
        let mut pool = DpPacketPool::with_preallocated(1, 64);
        let mut p = pool.take();
        p.set_data(&[1, 2, 3]);
        p.in_port = 9;
        p.recirc_id = 4;
        pool.put(p);
        let p = pool.take();
        assert_eq!(p.len(), 0);
        assert_eq!(p.in_port, 0);
        assert_eq!(p.recirc_id, 0);
    }
}
