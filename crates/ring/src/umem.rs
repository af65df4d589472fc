//! The umem: the shared packet-buffer region behind AF_XDP sockets, plus
//! the "umempool" free-frame manager the paper wrote for OVS (§3.2).

use crate::spinlock::{LockStrategy, RawSpinlock};
use crate::spsc::SpscRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default frame size: one 2 KiB chunk per packet, AF_XDP's default.
pub const DEFAULT_FRAME_SIZE: usize = 2048;

/// The umem buffer region: `nframes` fixed-size frames plus the fill and
/// completion rings through which frame ownership passes between the
/// kernel and userspace (paths 1–5 in Figure 4 of the paper).
#[derive(Debug)]
pub struct Umem {
    frame_size: usize,
    data: Vec<u8>,
    /// Userspace → kernel: empty frames available for RX.
    pub fill: SpscRing,
    /// Kernel → userspace: frames holding received packets.
    pub comp: SpscRing,
}

impl Umem {
    /// Allocate a umem of `nframes` frames of `frame_size` bytes.
    pub fn new(nframes: usize, frame_size: usize) -> Self {
        Self {
            frame_size,
            data: vec![0; nframes * frame_size],
            fill: SpscRing::new(nframes),
            comp: SpscRing::new(nframes),
        }
    }

    /// Number of frames.
    pub fn nframes(&self) -> usize {
        self.data.len() / self.frame_size
    }

    /// Frame size in bytes.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// Read access to frame `idx`.
    pub fn frame(&self, idx: u32) -> &[u8] {
        let start = idx as usize * self.frame_size;
        &self.data[start..start + self.frame_size]
    }

    /// Copy a packet into frame `idx`, returning the stored length.
    /// Panics if the packet exceeds the frame size — callers must respect
    /// the MTU contract.
    pub fn write_frame(&mut self, idx: u32, pkt: &[u8]) -> u32 {
        assert!(
            pkt.len() <= self.frame_size,
            "packet larger than umem frame"
        );
        let start = idx as usize * self.frame_size;
        self.data[start..start + pkt.len()].copy_from_slice(pkt);
        pkt.len() as u32
    }
}

/// Counters exposed by [`UmemPool`] so benches and tests can observe the
/// locking behaviour directly.
#[derive(Debug, Default)]
pub struct UmemPoolStats {
    /// Times any lock was acquired.
    pub lock_acquisitions: AtomicU64,
    /// Frames handed out.
    pub allocs: AtomicU64,
    /// Frames returned.
    pub frees: AtomicU64,
}

/// The free-frame manager ("umempool") with a selectable locking strategy.
///
/// Any thread may need to return frames to any umem region (a PMD thread
/// can send a packet out any port), so the free list is synchronized even
/// in single-queue deployments — exactly the situation where the paper
/// found `pthread_mutex_lock` burning 5% CPU and moved to spinlocks (O2),
/// then to batch-granularity locking (O3).
#[derive(Debug)]
pub struct UmemPool {
    free: Mutex<Vec<u32>>,
    spin: RawSpinlock,
    strategy: LockStrategy,
    nframes: u32,
    /// Observable locking/allocation counters.
    pub stats: UmemPoolStats,
}

impl UmemPool {
    /// A pool owning frames `0..nframes`, initially all free.
    pub fn new(nframes: u32, strategy: LockStrategy) -> Self {
        Self {
            free: Mutex::new((0..nframes).rev().collect()),
            spin: RawSpinlock::new(),
            strategy,
            nframes,
            stats: UmemPoolStats::default(),
        }
    }

    /// Total frames this pool owns (free + in flight). The frame-leak
    /// audit asserts every frame is findable against this.
    pub fn nframes(&self) -> u32 {
        self.nframes
    }

    /// The configured locking strategy.
    pub fn strategy(&self) -> LockStrategy {
        self.strategy
    }

    /// Number of free frames (takes the lock).
    pub fn free_count(&self) -> usize {
        self.locked(|free| free.len())
    }

    fn locked<R>(&self, f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
        self.stats.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.strategy {
            LockStrategy::MutexPerPacket => {
                let mut g = self.free.lock().unwrap();
                f(&mut g)
            }
            LockStrategy::SpinlockPerPacket | LockStrategy::SpinlockBatched => {
                // The spinlock provides the mutual exclusion; the inner
                // mutex is uncontended by construction and exists only to
                // satisfy safe interior mutability.
                self.spin.lock();
                let mut g = self.free.try_lock().expect("spinlock already excludes");
                let r = f(&mut g);
                drop(g);
                self.spin.unlock();
                r
            }
        }
    }

    /// Allocate one frame, taking the lock once.
    pub fn alloc(&self) -> Option<u32> {
        let got = self.locked(|free| free.pop());
        if got.is_some() {
            self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Free one frame, taking the lock once.
    pub fn free(&self, idx: u32) {
        self.locked(|free| free.push(idx));
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocate up to `n` frames into `out`.
    ///
    /// Under [`LockStrategy::SpinlockBatched`] the lock is taken **once**
    /// for the whole batch (O3); under the per-packet strategies it is
    /// taken once per frame, reproducing the pre-O3 behaviour.
    pub fn alloc_batch(&self, out: &mut Vec<u32>, n: usize) -> usize {
        let got = match self.strategy {
            LockStrategy::SpinlockBatched => self.locked(|free| {
                let take = n.min(free.len());
                let at = free.len() - take;
                out.extend(free.drain(at..));
                take
            }),
            _ => {
                let mut got = 0;
                for _ in 0..n {
                    match self.locked(|free| free.pop()) {
                        Some(idx) => {
                            out.push(idx);
                            got += 1;
                        }
                        None => break,
                    }
                }
                got
            }
        };
        self.stats.allocs.fetch_add(got as u64, Ordering::Relaxed);
        got
    }

    /// Free a batch of frames; one lock acquisition under
    /// [`LockStrategy::SpinlockBatched`], one per frame otherwise, none
    /// for an empty batch.
    pub fn free_batch(&self, frames: &[u32]) {
        if frames.is_empty() {
            return;
        }
        match self.strategy {
            LockStrategy::SpinlockBatched => {
                self.locked(|free| free.extend_from_slice(frames));
            }
            _ => {
                for &f in frames {
                    self.locked(|free| free.push(f));
                }
            }
        }
        self.stats
            .frees
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::Desc;

    #[test]
    fn umem_frame_io() {
        let mut u = Umem::new(4, 256);
        assert_eq!(u.nframes(), 4);
        let n = u.write_frame(2, &[0xab; 100]);
        assert_eq!(n, 100);
        assert_eq!(&u.frame(2)[..100], &[0xab; 100]);
        assert_eq!(u.frame(1)[0], 0);
    }

    #[test]
    #[should_panic(expected = "larger than umem frame")]
    fn oversized_write_panics() {
        let mut u = Umem::new(1, 64);
        u.write_frame(0, &[0; 65]);
    }

    #[test]
    fn fill_completion_flow() {
        // Model Figure 4: userspace fills, kernel completes.
        let mut u = Umem::new(8, 128);
        u.fill.push(Desc { frame: 3, len: 0 }).unwrap();
        // "Kernel": take a fill descriptor, write the packet, complete it.
        let d = u.fill.pop().unwrap();
        let len = u.write_frame(d.frame, b"packet!");
        u.comp
            .push(Desc {
                frame: d.frame,
                len,
            })
            .unwrap();
        // "Userspace": read completion, find the data.
        let done = u.comp.pop().unwrap();
        assert_eq!(done.frame, 3);
        assert_eq!(&u.frame(done.frame)[..done.len as usize], b"packet!");
    }

    #[test]
    fn pool_alloc_free_all_strategies() {
        for strategy in [
            LockStrategy::MutexPerPacket,
            LockStrategy::SpinlockPerPacket,
            LockStrategy::SpinlockBatched,
        ] {
            let pool = UmemPool::new(16, strategy);
            assert_eq!(pool.free_count(), 16);
            let a = pool.alloc().unwrap();
            let b = pool.alloc().unwrap();
            assert_ne!(a, b);
            assert_eq!(pool.free_count(), 14);
            pool.free(a);
            pool.free(b);
            assert_eq!(pool.free_count(), 16);
        }
    }

    #[test]
    fn pool_exhaustion() {
        let pool = UmemPool::new(2, LockStrategy::SpinlockPerPacket);
        assert!(pool.alloc().is_some());
        assert!(pool.alloc().is_some());
        assert!(pool.alloc().is_none());
    }

    #[test]
    fn batched_strategy_locks_once_per_batch() {
        let pool = UmemPool::new(64, LockStrategy::SpinlockBatched);
        let before = pool.stats.lock_acquisitions.load(Ordering::Relaxed);
        let mut out = Vec::new();
        pool.alloc_batch(&mut out, 32);
        assert_eq!(out.len(), 32);
        let after = pool.stats.lock_acquisitions.load(Ordering::Relaxed);
        assert_eq!(after - before, 1, "one lock per batch under O3");

        let pool2 = UmemPool::new(64, LockStrategy::SpinlockPerPacket);
        let mut out2 = Vec::new();
        pool2.alloc_batch(&mut out2, 32);
        assert_eq!(
            pool2.stats.lock_acquisitions.load(Ordering::Relaxed),
            32,
            "one lock per packet pre-O3"
        );
    }

    #[test]
    fn batch_alloc_unique_frames() {
        let pool = UmemPool::new(32, LockStrategy::SpinlockBatched);
        let mut out = Vec::new();
        pool.alloc_batch(&mut out, 40);
        assert_eq!(out.len(), 32, "cannot allocate more than the pool holds");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "no duplicate frames");
        pool.free_batch(&out);
        assert_eq!(pool.free_count(), 32);
    }

    #[test]
    fn concurrent_alloc_free() {
        use std::sync::Arc;
        let pool = Arc::new(UmemPool::new(128, LockStrategy::SpinlockPerPacket));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    if let Some(f) = pool.alloc() {
                        pool.free(f);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.free_count(), 128, "all frames returned");
    }
}
