//! Property tests for the ring structures: FIFO order under arbitrary
//! batch interleavings, and frame conservation in the umem pool.

use ovs_ring::{Desc, DpPacketPool, LockStrategy, SpscRing, UmemPool};
use proptest::prelude::*;

proptest! {
    /// Descriptors always come out in the order they went in, for any
    /// interleaving of push/pop batch sizes.
    #[test]
    fn spsc_fifo_under_random_batching(
        ops in proptest::collection::vec((prop::bool::ANY, 1usize..48), 1..200),
        cap in 4usize..128,
    ) {
        let ring = SpscRing::new(cap);
        let mut next_in: u32 = 0;
        let mut next_out: u32 = 0;
        for (is_push, n) in ops {
            if is_push {
                let descs: Vec<Desc> = (0..n as u32)
                    .map(|i| Desc { frame: next_in + i, len: (next_in + i) ^ 0xabcd })
                    .collect();
                let pushed = ring.push_batch(&descs);
                prop_assert!(pushed <= descs.len());
                next_in += pushed as u32;
            } else {
                let mut out = vec![Desc { frame: 0, len: 0 }; n];
                let popped = ring.pop_batch(&mut out);
                for d in &out[..popped] {
                    prop_assert_eq!(d.frame, next_out, "FIFO order");
                    prop_assert_eq!(d.len, next_out ^ 0xabcd, "payload intact");
                    next_out += 1;
                }
            }
            prop_assert!(ring.len() <= ring.capacity());
        }
        prop_assert_eq!(next_in - next_out, ring.len() as u32);
    }

    /// The umem pool conserves frames exactly: no frame is duplicated or
    /// lost across arbitrary alloc/free interleavings, under every lock
    /// strategy.
    #[test]
    fn umem_pool_conserves_frames(
        ops in proptest::collection::vec((prop::bool::ANY, 1usize..40), 1..100),
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            LockStrategy::MutexPerPacket,
            LockStrategy::SpinlockPerPacket,
            LockStrategy::SpinlockBatched,
        ][strategy_idx];
        const N: u32 = 256;
        let pool = UmemPool::new(N, strategy);
        let mut held: Vec<u32> = Vec::new();
        for (is_alloc, n) in ops {
            if is_alloc {
                let mut got = Vec::new();
                pool.alloc_batch(&mut got, n);
                held.extend(got);
            } else {
                let n = n.min(held.len());
                let give: Vec<u32> = held.drain(..n).collect();
                pool.free_batch(&give);
            }
            // Conservation invariant.
            prop_assert_eq!(pool.free_count() + held.len(), N as usize);
            // No duplicates among held frames.
            let mut sorted = held.clone();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), before, "duplicate frame handed out");
        }
    }

    /// The metadata pool always returns packets with clean metadata.
    #[test]
    fn metadata_pool_resets(
        contents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256),
            1..30
        ),
    ) {
        let mut pool = DpPacketPool::new(4, 256);
        for data in contents {
            let mut p = pool.take();
            prop_assert_eq!(p.len(), 0, "fresh packet is empty");
            prop_assert_eq!(p.in_port, 0);
            prop_assert_eq!(p.recirc_id, 0);
            prop_assert!(p.tunnel.is_none());
            p.set_data(&data);
            p.in_port = 42;
            p.recirc_id = 7;
            pool.put(p);
        }
    }
}
