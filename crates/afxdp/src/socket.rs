//! The userspace XSK socket wrapper and the optimization ladder.

use ovs_kernel::xsk::{XskBinding, XskHandle};
use ovs_kernel::Kernel;
use ovs_obs::coverage;
use ovs_packet::flow::extract_miniflow;
use ovs_packet::OffloadFlags;
use ovs_ring::{Desc, DpPacketPool, LockStrategy, PacketBatch, UmemPool, BATCH_SIZE};
use ovs_sim::faults::FaultKind;
use ovs_sim::Context;
use std::sync::Arc;

/// Cumulative optimization level (§3.2, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Shared main-loop thread, mutex, per-packet locks, per-packet
    /// metadata allocation, software checksums.
    O0,
    /// + dedicated PMD thread per queue.
    O1,
    /// + spinlock instead of mutex.
    O2,
    /// + batch-granularity locking.
    O3,
    /// + preallocated packet metadata.
    O4,
    /// + checksum offload.
    O5,
}

impl OptLevel {
    /// All levels in ladder order.
    pub const LADDER: [OptLevel; 6] = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O4,
        OptLevel::O5,
    ];

    /// The Table 2 row label.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::O0 => "none",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O1+O2",
            OptLevel::O3 => "O1+O2+O3",
            OptLevel::O4 => "O1+O2+O3+O4",
            OptLevel::O5 => "O1+O2+O3+O4+O5",
        }
    }

    /// Which umem-pool lock this level uses.
    pub fn lock_strategy(&self) -> LockStrategy {
        match self {
            OptLevel::O0 | OptLevel::O1 => LockStrategy::MutexPerPacket,
            OptLevel::O2 => LockStrategy::SpinlockPerPacket,
            _ => LockStrategy::SpinlockBatched,
        }
    }

    /// Does this level run in a dedicated PMD thread?
    pub fn pmd_thread(&self) -> bool {
        *self >= OptLevel::O1
    }

    /// Does this level preallocate packet metadata?
    pub fn prealloc_metadata(&self) -> bool {
        *self >= OptLevel::O4
    }

    /// Does this level rely on checksum offload?
    pub fn csum_offload(&self) -> bool {
        *self >= OptLevel::O5
    }
}

/// Userspace socket statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct XskSocketStats {
    pub rx_packets: u64,
    pub rx_batches: u64,
    pub tx_packets: u64,
    pub tx_kicks: u64,
    pub csum_sw_verified: u64,
    pub csum_sw_filled: u64,
    /// Packets a `tx_burst` could not post (tx ring full or frame pool
    /// empty). The caller must treat the shortfall as a counted drop.
    pub tx_dropped: u64,
}

/// The userspace side of one AF_XDP socket, bound to `(ifindex, queue)`.
#[derive(Debug)]
pub struct XskSocket {
    handle: XskHandle,
    /// The umempool (§3.2): free-frame manager with the level's lock.
    pub pool: Arc<UmemPool>,
    /// Optimization level.
    pub opt: OptLevel,
    /// Interrupt-driven instead of busy polling (the Fig 8a
    /// "interrupt" configuration). Polling mode requires O1+.
    pub interrupt_mode: bool,
    /// The kernel-registered socket id (xskmap value).
    pub xsk_id: u32,
    /// Device the socket is bound to.
    pub ifindex: u32,
    /// Queue the socket is bound to.
    pub queue: usize,
    /// Counters.
    pub stats: XskSocketStats,
    scratch_frames: Vec<u32>,
    /// Frames pulled out of circulation by an injected umem-exhaustion
    /// fault (returned intact when the fault clears — exhaustion stalls
    /// rx via the fill ring, it never leaks frames).
    sequestered: Vec<u32>,
}

impl XskSocket {
    /// Create a socket against the kernel: allocates the umem, registers
    /// the binding, and posts an initial batch of fill descriptors.
    pub fn bind(
        kernel: &mut Kernel,
        ifindex: u32,
        queue: usize,
        nframes: usize,
        opt: OptLevel,
    ) -> Self {
        let zero_copy = kernel.device(ifindex).caps.native_xdp;
        Self::bind_with_mode(kernel, ifindex, queue, nframes, opt, zero_copy)
    }

    /// Like [`bind`](Self::bind) with the copy mode forced: the
    /// degradation ladder uses this when driver-mode attach is rejected
    /// and the port falls back to generic copy mode.
    pub fn bind_with_mode(
        kernel: &mut Kernel,
        ifindex: u32,
        queue: usize,
        nframes: usize,
        opt: OptLevel,
        zero_copy: bool,
    ) -> Self {
        let handle = XskBinding::new(ifindex, queue, nframes, 2048, zero_copy).into_handle();
        let xsk_id = kernel.register_xsk(std::rc::Rc::clone(&handle));
        let pool = Arc::new(UmemPool::new(nframes as u32, opt.lock_strategy()));
        let mut sock = Self {
            handle,
            pool,
            opt,
            interrupt_mode: false,
            xsk_id,
            ifindex,
            queue,
            stats: XskSocketStats::default(),
            scratch_frames: Vec::with_capacity(BATCH_SIZE),
            sequestered: Vec::new(),
        };
        sock.refill(kernel, nframes / 2);
        sock
    }

    /// Packet descriptors this socket may hold in flight, which is what it
    /// adds to its datapath's descriptor-pool bound: one per umem frame
    /// from O4 up (§3.2's metadata array), none below, where every
    /// packet takes a fresh descriptor.
    pub fn metadata_frames(&self) -> usize {
        if self.opt.prealloc_metadata() {
            self.pool.nframes() as usize
        } else {
            0
        }
    }

    /// Drop to (or return from) copy mode on the kernel-side binding.
    pub fn set_zero_copy(&mut self, zero_copy: bool) {
        self.handle.borrow_mut().zero_copy = zero_copy;
    }

    /// Frames currently parked on the kernel-side rx/tx rings: packets
    /// that are lost (and must be counted) if the socket is torn down.
    pub fn pending_frames(&self) -> usize {
        let b = self.handle.borrow();
        b.rx.len() + b.tx.len()
    }

    /// Apply/clear an injected umem-exhaustion fault: while active, all
    /// free frames are sequestered so refills starve and the NIC drops
    /// with its fill-ring counter; on clear, every frame returns intact.
    fn apply_umem_fault(&mut self, kernel: &Kernel) {
        let active = kernel
            .sim
            .faults
            .active(FaultKind::UmemExhaust, self.ifindex);
        if active && self.sequestered.is_empty() {
            let want = self.pool.nframes() as usize;
            let mut grabbed = Vec::new();
            self.pool.alloc_batch(&mut grabbed, want);
            if !grabbed.is_empty() {
                coverage!("xsk_umem_exhausted");
            }
            self.sequestered = grabbed;
        } else if !active && !self.sequestered.is_empty() {
            self.pool.free_batch(&self.sequestered);
            self.sequestered.clear();
        }
    }

    /// The frame-leak audit invariant: every umem frame is either free in
    /// the pool, posted on a ring (fill/rx/tx/completion), or sequestered
    /// by a fault. Anything else is a leak.
    pub fn frame_accounting_ok(&self) -> bool {
        let b = self.handle.borrow();
        let accounted = self.pool.free_count()
            + b.umem.fill.len()
            + b.rx.len()
            + b.tx.len()
            + b.umem.comp.len()
            + self.sequestered.len();
        accounted == self.pool.nframes() as usize
    }

    /// Enable preferred busy polling ([64]): the kernel-side XSK work for
    /// this socket runs inline on `core` (the PMD's own hyperthread),
    /// trading a little PMD headroom for a whole softirq thread — the
    /// "optimizations being proposed to the kernel community" the paper
    /// expects to close the CPU-efficiency gap with DPDK (Outcome #2).
    pub fn enable_busy_poll(&mut self, core: usize) {
        self.handle.borrow_mut().busy_poll_core = Some(core);
    }

    /// Post up to `n` free frames to the fill ring (path 1 in Fig 4).
    fn refill(&mut self, kernel: &mut Kernel, n: usize) -> usize {
        self.scratch_frames.clear();
        let got = self.pool.alloc_batch(&mut self.scratch_frames, n);
        let b = self.handle.borrow();
        let mut pushed = 0;
        for &f in &self.scratch_frames {
            if b.umem.fill.push(Desc { frame: f, len: 0 }).is_ok() {
                pushed += 1;
            } else {
                self.pool.free(f);
            }
        }
        drop(b);
        let _ = kernel;
        got.min(pushed)
    }

    /// Per-packet userspace cost for this level, beyond the O5 baseline.
    fn ladder_extra_ns(&self, kernel: &Kernel) -> f64 {
        let c = &kernel.sim.costs;
        let mut extra = 0.0;
        match self.opt.lock_strategy() {
            LockStrategy::MutexPerPacket => extra += c.mutex_extra_ns + c.unbatched_lock_extra_ns,
            LockStrategy::SpinlockPerPacket => extra += c.unbatched_lock_extra_ns,
            LockStrategy::SpinlockBatched => {}
        }
        if !self.opt.prealloc_metadata() {
            extra += c.dp_packet_alloc_ns;
        }
        if !self.opt.pmd_thread() {
            extra += c.non_pmd_overhead_ns;
        }
        extra
    }

    /// Receive a burst: drain the RX ring into `batch`, copying each umem
    /// frame into a descriptor from `pool` (a fresh one below O4),
    /// verifying checksums (software or offloaded), computing the software
    /// rxhash AF_XDP still needs (§5.5), and refilling the fill ring.
    /// Returns the packets received.
    ///
    /// Costs are charged to `core` as user time (plus system time for the
    /// interrupt-mode wakeup).
    pub fn rx_burst(
        &mut self,
        kernel: &mut Kernel,
        core: usize,
        pool: &mut DpPacketPool,
        batch: &mut PacketBatch,
    ) -> usize {
        self.apply_umem_fault(kernel);
        let mut descs = [Desc { frame: 0, len: 0 }; BATCH_SIZE];
        let room = BATCH_SIZE - batch.len();
        let n = self.handle.borrow().rx.pop_batch(&mut descs[..room]);
        if n == 0 {
            return 0;
        }
        self.stats.rx_batches += 1;
        self.stats.rx_packets += n as u64;
        coverage!("xsk_rx_batch");
        coverage!("xsk_rx_packet", n as u64);

        if self.interrupt_mode {
            // Blocked in poll(); the kernel had to wake us per batch.
            let c = kernel.sim.costs.wakeup_ns + kernel.sim.costs.syscall_light_ns;
            kernel.sim.charge(core, Context::System, c);
        }

        let rx_csum_hw = self.opt.csum_offload() && kernel.device(self.ifindex).caps.rx_csum;
        let mut bytes = 0usize;
        for d in &descs[..n] {
            let mut pkt = if self.opt.prealloc_metadata() {
                pool.take()
            } else {
                pool.take_fresh()
            };
            pkt.set_data(&self.handle.borrow().umem.frame(d.frame)[..d.len as usize]);
            bytes += pkt.len();
            pkt.in_port = self.ifindex;
            // Software rxhash: XDP exposes no NIC hash hint yet. The
            // sparse extractor computes it without expanding a full key.
            pkt.rxhash = Some(extract_miniflow(&mut pkt).rss_hash());
            if rx_csum_hw {
                pkt.offloads = OffloadFlags {
                    csum_verified: true,
                    ..OffloadFlags::default()
                };
            } else {
                self.stats.csum_sw_verified += 1;
                coverage!("xsk_csum_sw_verify");
            }
            let _ = batch.push(pkt);
            // Frame ownership returns to the pool; the refill below posts
            // pool frames back to the fill ring.
            self.pool.free(d.frame);
        }
        self.refill(kernel, n);

        // Charge: ring ops + rxhash per packet, the ladder extras, the
        // per-byte cost beyond the first cache line (umem DMA sync — the
        // large-frame cost visible in Fig 12's 1518 B series), and the
        // software checksum verify when not offloaded.
        let c = &kernel.sim.costs;
        let extra_bytes = bytes.saturating_sub(64 * n) as f64;
        let mut ns = n as f64 * (c.xsk_ring_ns + c.sw_rxhash_ns)
            + n as f64 * self.ladder_extra_ns(kernel)
            + extra_bytes * c.afxdp_per_byte_ns;
        if !rx_csum_hw {
            ns += c.csum_per_byte_ns * bytes as f64;
        }
        kernel.sim.charge(core, Context::User, ns);
        debug_assert!(self.frame_accounting_ok(), "umem frame leak on rx path");
        n
    }

    /// Transmit a batch: write frames into umem, post TX descriptors,
    /// kick the kernel if `need_wakeup` is armed, and reclaim
    /// completions. Returns the number of packets accepted. `batch` is
    /// left empty: from O4 up every descriptor goes back to `pool` once
    /// written into the umem (or refused), below O4 it is freed.
    pub fn tx_burst(
        &mut self,
        kernel: &mut Kernel,
        core: usize,
        batch: &mut PacketBatch,
        pool: &mut DpPacketPool,
    ) -> usize {
        self.apply_umem_fault(kernel);
        let n_req = batch.len();
        if n_req == 0 {
            return 0;
        }
        let tx_csum_hw = self.opt.csum_offload() && kernel.device(self.ifindex).caps.tx_csum;
        let mut sent = 0usize;
        let mut bytes = 0usize;
        let mut ring_full = false;
        self.scratch_frames.clear();
        let frames_got = self.pool.alloc_batch(&mut self.scratch_frames, n_req);
        for (i, pkt) in batch.drain().enumerate() {
            if i < frames_got && !ring_full {
                let frame = self.scratch_frames[i];
                if !tx_csum_hw {
                    self.stats.csum_sw_filled += 1;
                    coverage!("xsk_csum_sw_fill");
                }
                bytes += pkt.len();
                let mut b = self.handle.borrow_mut();
                let len = b.umem.write_frame(frame, pkt.data());
                if b.tx.push(Desc { frame, len }).is_ok() {
                    sent += 1;
                } else {
                    ring_full = true;
                }
            }
            if self.opt.prealloc_metadata() {
                pool.put(pkt);
            }
        }
        // Any frames we allocated but didn't post go back.
        for &f in &self.scratch_frames[sent..frames_got] {
            self.pool.free(f);
        }

        // Kick the kernel to process the TX ring.
        let need_kick = self.handle.borrow().need_wakeup;
        // TX charges ring work and software checksum fill; the umem-pool
        // locking cost is dominated by the RX refill path and charged
        // there.
        let c = &kernel.sim.costs;
        let mut ns = sent as f64 * c.xsk_ring_ns;
        if !tx_csum_hw {
            ns += c.csum_per_byte_ns * bytes as f64;
        }
        // Copy (generic) mode pays an skb copy per transmitted frame —
        // the tx half of the zero-copy vs copy gap in Table 2.
        if !self.handle.borrow().zero_copy {
            ns += sent as f64 * c.afxdp_copy_mode_extra_ns + c.copy_ns(bytes);
        }
        kernel.sim.charge(core, Context::User, ns);
        if need_kick {
            self.stats.tx_kicks += 1;
            coverage!("xsk_tx_kick");
            let kick = sent as f64 * kernel.sim.costs.xsk_tx_kick_ns;
            kernel.sim.charge(core, Context::System, kick);
        }
        self.stats.tx_packets += sent as u64;
        coverage!("xsk_tx_packet", sent as u64);
        kernel.xsk_tx_drain(self.xsk_id, sent);

        // Reclaim completions back into the pool.
        let mut comp = [Desc { frame: 0, len: 0 }; BATCH_SIZE];
        let m = {
            let b = self.handle.borrow();
            b.umem.comp.pop_batch(&mut comp)
        };
        for d in &comp[..m] {
            self.pool.free(d.frame);
        }
        // The shortfall (tx ring full, or the frame pool dry) is a
        // counted drop: the caller gave us the packets, we report how
        // many made it, and nobody retries silently.
        let shortfall = (n_req - sent) as u64;
        if shortfall > 0 {
            self.stats.tx_dropped += shortfall;
            coverage!("xsk_tx_ring_full", shortfall);
        }
        debug_assert!(self.frame_accounting_ok(), "umem frame leak on tx path");
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_ebpf::maps::{Map, XskMap};
    use ovs_kernel::dev::{DeviceKind, NetDevice, XdpMode};
    use ovs_packet::{builder, DpPacket, MacAddr};

    const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const M2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    fn setup(opt: OptLevel) -> (Kernel, XskSocket, u32) {
        let mut k = Kernel::new(4);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let sock = XskSocket::bind(&mut k, eth0, 0, 64, opt);
        let mut xmap = XskMap::new(4);
        xmap.set(0, sock.xsk_id).unwrap();
        let fd = k.maps.add(Map::Xsk(xmap));
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::ovs_xsk_redirect(fd),
            XdpMode::Native,
            None,
        )
        .unwrap();
        (k, sock, eth0)
    }

    fn frame() -> Vec<u8> {
        builder::udp_ipv4_frame(M2, M1, [10, 0, 0, 2], [10, 0, 0, 1], 1, 2, 64)
    }

    /// The descriptor pool a datapath holding only this socket keeps.
    fn pool_for(sock: &XskSocket) -> DpPacketPool {
        DpPacketPool::new(sock.metadata_frames(), 2048)
    }

    fn rx(sock: &mut XskSocket, k: &mut Kernel, pool: &mut DpPacketPool) -> PacketBatch {
        let mut batch = PacketBatch::new();
        sock.rx_burst(k, 1, pool, &mut batch);
        batch
    }

    #[test]
    fn wire_to_userspace_roundtrip() {
        let (mut k, mut sock, eth0) = setup(OptLevel::O5);
        let mut pool = pool_for(&sock);
        for _ in 0..5 {
            k.receive(eth0, 0, frame());
        }
        let batch = rx(&mut sock, &mut k, &mut pool);
        assert_eq!(batch.len(), 5);
        for pkt in batch.iter() {
            assert_eq!(pkt.data(), &frame()[..]);
            assert!(pkt.rxhash.is_some(), "software rxhash computed");
            assert!(pkt.offloads.csum_verified, "O5 offloads rx checksum");
        }
        assert_eq!(sock.stats.rx_packets, 5);
    }

    #[test]
    fn sw_checksum_before_o5() {
        let (mut k, mut sock, eth0) = setup(OptLevel::O4);
        let mut pool = pool_for(&sock);
        k.receive(eth0, 0, frame());
        let batch = rx(&mut sock, &mut k, &mut pool);
        assert!(!batch.iter().next().unwrap().offloads.csum_verified);
        assert_eq!(sock.stats.csum_sw_verified, 1);
    }

    #[test]
    fn tx_reaches_wire() {
        let (mut k, mut sock, eth0) = setup(OptLevel::O5);
        let mut pool = pool_for(&sock);
        let mut batch = PacketBatch::new();
        batch.push(DpPacket::from_data(&frame())).unwrap();
        let sent = sock.tx_burst(&mut k, 1, &mut batch, &mut pool);
        assert_eq!(sent, 1);
        assert!(batch.is_empty(), "tx_burst leaves the batch empty");
        assert_eq!(pool.available(), 1, "the sent descriptor is pooled");
        let out = k.dev_mut(eth0).tx_wire.pop_front().unwrap();
        assert_eq!(out, frame());
    }

    #[test]
    fn frames_recycle_forever() {
        // With only 64 umem frames, continuous rx/tx must never exhaust
        // the pool — fill/completion recycling has to balance.
        let (mut k, mut sock, eth0) = setup(OptLevel::O5);
        let mut pool = pool_for(&sock);
        for round in 0..50 {
            for _ in 0..8 {
                k.receive(eth0, 0, frame());
            }
            let mut batch = rx(&mut sock, &mut k, &mut pool);
            assert_eq!(batch.len(), 8, "round {round}");
            let sent = sock.tx_burst(&mut k, 1, &mut batch, &mut pool);
            assert_eq!(sent, 8, "round {round}");
        }
        assert_eq!(sock.stats.rx_packets, 400);
        assert_eq!(sock.stats.tx_packets, 400);
        // Descriptors recycle too: only the first round allocated.
        assert_eq!(pool.fresh_allocs, 8);
        assert_eq!(pool.reuses, 392);
    }

    #[test]
    fn below_o4_every_packet_takes_a_fresh_descriptor() {
        // Table 2's O3→O4 step is a real code difference: without
        // preallocated metadata the socket adds nothing to the pool's
        // bound, takes a fresh descriptor per packet and returns none.
        let (mut k, mut sock, eth0) = setup(OptLevel::O3);
        assert_eq!(sock.metadata_frames(), 0);
        let mut pool = DpPacketPool::new(64, 2048);
        for _ in 0..10 {
            for _ in 0..8 {
                k.receive(eth0, 0, frame());
            }
            let mut batch = rx(&mut sock, &mut k, &mut pool);
            assert_eq!(sock.tx_burst(&mut k, 1, &mut batch, &mut pool), 8);
        }
        assert_eq!(pool.fresh_allocs, 80);
        assert_eq!(pool.reuses, 0);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn ladder_charges_decrease_monotonically() {
        // Higher optimization levels must charge less user time per packet.
        let mut prev = f64::INFINITY;
        for opt in OptLevel::LADDER {
            let (mut k, mut sock, eth0) = setup(opt);
            let mut pool = pool_for(&sock);
            for _ in 0..32 {
                k.receive(eth0, 0, frame());
            }
            let batch = rx(&mut sock, &mut k, &mut pool);
            assert_eq!(batch.len(), 32);
            let user_ns = k.sim.cpus.core(1).ns(Context::User);
            assert!(user_ns < prev, "{}: {user_ns} !< {prev}", opt.label());
            prev = user_ns;
        }
    }

    #[test]
    fn lock_strategy_follows_level() {
        assert_eq!(OptLevel::O1.lock_strategy(), LockStrategy::MutexPerPacket);
        assert_eq!(
            OptLevel::O2.lock_strategy(),
            LockStrategy::SpinlockPerPacket
        );
        assert_eq!(OptLevel::O3.lock_strategy(), LockStrategy::SpinlockBatched);
        assert!(!OptLevel::O0.pmd_thread());
        assert!(OptLevel::O5.csum_offload());
    }

    #[test]
    fn interrupt_mode_charges_wakeups() {
        let (mut k, mut sock, eth0) = setup(OptLevel::O4);
        let mut pool = pool_for(&sock);
        sock.interrupt_mode = true;
        k.receive(eth0, 0, frame());
        rx(&mut sock, &mut k, &mut pool);
        assert!(
            k.sim.cpus.core(1).ns(Context::System) >= k.sim.costs.wakeup_ns,
            "wakeup cost charged in interrupt mode"
        );
    }

    #[test]
    fn busy_poll_runs_kernel_work_on_pmd_core() {
        let (mut k, mut sock, eth0) = setup(OptLevel::O5);
        let mut pool = pool_for(&sock);
        sock.enable_busy_poll(1); // PMD core
        for _ in 0..8 {
            k.receive(eth0, 0, frame());
        }
        rx(&mut sock, &mut k, &mut pool);
        // The XSK delivery softirq landed on core 1, not the RSS core 0.
        let c = &k.sim.costs;
        assert!(
            k.sim.cpus.core(1).ns(Context::Softirq) >= 8.0 * c.xsk_deliver_ns,
            "delivery work on the PMD core"
        );
        // Core 0 keeps only driver + XDP dispatch work.
        let core0 = k.sim.cpus.core(0).ns(Context::Softirq);
        assert!(core0 < 8.0 * (c.driver_rx_ns + c.xdp_dispatch_ns + 40.0));
    }

    #[test]
    fn empty_ring_returns_empty_batch() {
        let (mut k, mut sock, _eth0) = setup(OptLevel::O5);
        let mut pool = pool_for(&sock);
        let batch = rx(&mut sock, &mut k, &mut pool);
        assert!(batch.is_empty());
        assert_eq!(pool.fresh_allocs, 0, "an empty poll takes nothing");
        assert_eq!(
            k.sim.cpus.core(1).ns(Context::User),
            0.0,
            "empty poll is free here"
        );
    }
}
