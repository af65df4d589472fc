//! DPDK vhostuser: shared-memory virtio rings to a guest.
//!
//! The robustness contract (§6): a guest whose vhost backend goes away
//! (QEMU crash, live restart) must not take the switch down with it. TX
//! toward a disconnected guest drops with a counter
//! (`vhost_tx_disconnected`); when the backend reconnects, the rings are
//! renegotiated (a fresh generation in the kernel model) and forwarding
//! resumes without switch intervention.

use ovs_kernel::Kernel;
use ovs_obs::coverage;
use ovs_ring::{DpPacketPool, PacketBatch};

/// A vhostuser port bound to one guest.
#[derive(Debug)]
pub struct VhostUserDev {
    /// Guest index in the kernel's guest table.
    pub guest: usize,
    /// Packets enqueued toward the guest.
    pub tx_packets: u64,
    /// Packets dequeued from the guest.
    pub rx_packets: u64,
    /// Packets dropped because the guest's backend was disconnected.
    pub tx_drops: u64,
    /// The ring generation observed at the last burst; a change means
    /// the backend reconnected and renegotiated since we last looked.
    pub ring_generation: u32,
    /// Reconnects observed (generation bumps).
    pub reconnects: u64,
}

impl VhostUserDev {
    /// Bind to a guest's virtio rings.
    pub fn new(guest: usize) -> Self {
        Self {
            guest,
            tx_packets: 0,
            rx_packets: 0,
            tx_drops: 0,
            ring_generation: 0,
            reconnects: 0,
        }
    }

    /// Is the guest's vhost backend currently connected?
    pub fn connected(&self, kernel: &Kernel) -> bool {
        kernel.guests[self.guest].connected
    }

    fn observe_generation(&mut self, kernel: &Kernel) {
        let cur = kernel.guests[self.guest].ring_generation;
        if cur != self.ring_generation {
            self.ring_generation = cur;
            self.reconnects += 1;
        }
    }

    /// Enqueue a burst toward the guest, copying each frame into the
    /// guest's ring. Returns the number accepted; the remainder was
    /// dropped (disconnected backend) with the `vhost_tx_disconnected`
    /// counter — the caller must account them.
    pub fn enqueue_burst<'a>(
        &mut self,
        kernel: &mut Kernel,
        frames: impl IntoIterator<Item = &'a [u8]>,
        core: usize,
    ) -> usize {
        self.observe_generation(kernel);
        let mut accepted = 0;
        for f in frames {
            if kernel.vhostuser_push(self.guest, f.to_vec(), core) {
                self.tx_packets += 1;
                accepted += 1;
            } else {
                self.tx_drops += 1;
                coverage!("vhost_tx_disconnected");
            }
        }
        accepted
    }

    /// Dequeue a burst from the guest into `batch`, until it is full or
    /// the guest's ring is empty: each frame is copied into a descriptor
    /// taken from `pool`. Returns the frames dequeued.
    pub fn dequeue_burst(
        &mut self,
        kernel: &mut Kernel,
        core: usize,
        pool: &mut DpPacketPool,
        batch: &mut PacketBatch,
    ) -> usize {
        self.observe_generation(kernel);
        let mut n = 0;
        while !batch.is_full() {
            let Some(f) = kernel.vhostuser_pop(self.guest, core) else {
                break;
            };
            let mut pkt = pool.take();
            pkt.set_data(&f);
            let _ = batch.push(pkt);
            self.rx_packets += 1;
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_kernel::guest::{Guest, GuestRole, VirtioBackend};
    use ovs_packet::{builder, MacAddr};
    use ovs_sim::Context;

    fn frame() -> Vec<u8> {
        builder::udp_ipv4_frame(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1,
            2,
            64,
        )
    }

    fn dequeue(vh: &mut VhostUserDev, k: &mut Kernel) -> PacketBatch {
        let mut pool = DpPacketPool::new(0, 2048);
        let mut batch = PacketBatch::new();
        vh.dequeue_burst(k, 0, &mut pool, &mut batch);
        batch
    }

    fn pmd_guest(k: &mut Kernel) -> usize {
        k.add_guest(Guest::new(
            "vm0",
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 2],
            GuestRole::PmdForwarder,
            VirtioBackend::VhostUser,
            2,
        ))
    }

    #[test]
    fn pvp_through_guest_pmd() {
        let mut k = Kernel::new(4);
        let g = pmd_guest(&mut k);
        let mut vh = VhostUserDev::new(g);
        let f = frame();
        assert_eq!(vh.enqueue_burst(&mut k, [&f[..]], 0), 1);
        assert_eq!(k.run_guest(g), 1);
        let out = dequeue(&mut vh, &mut k);
        assert_eq!(out.len(), 1);
        let back = out.iter().next().unwrap().data();
        assert_eq!(&back[0..6], &f[6..12], "guest l2fwd swapped MACs");
        // Guest time charged on the guest's core.
        assert!(k.sim.cpus.core(2).ns(Context::Guest) > 0.0);
        // Kick charged as system time on the switch core.
        assert!(k.sim.cpus.core(0).ns(Context::System) > 0.0);
    }

    #[test]
    fn disconnect_drops_with_counter_and_reconnect_resumes() {
        let mut k = Kernel::new(4);
        let g = pmd_guest(&mut k);
        let mut vh = VhostUserDev::new(g);

        // Park a frame on the guest rx ring, then yank the backend: the
        // in-flight frame is flushed (counted in the kernel) and further
        // tx drops here with a counter instead of panicking.
        let f = frame();
        assert_eq!(vh.enqueue_burst(&mut k, [&f[..]], 0), 1);
        k.vhost_disconnect(g);
        assert_eq!(k.vhost_flushed, 1, "parked frame flushed with a count");
        assert!(!vh.connected(&k));
        assert_eq!(vh.enqueue_burst(&mut k, [&f[..], &f[..]], 0), 0);
        assert_eq!(vh.tx_drops, 2);
        assert!(dequeue(&mut vh, &mut k).is_empty());

        // Reconnect renegotiates (generation bump) and traffic resumes.
        k.vhost_reconnect(g);
        assert_eq!(vh.enqueue_burst(&mut k, [&f[..]], 0), 1);
        assert_eq!(vh.reconnects, 1, "generation bump observed");
        assert_eq!(k.run_guest(g), 1);
        assert_eq!(dequeue(&mut vh, &mut k).len(), 1);
        // Drop counter never moved after recovery.
        assert_eq!(vh.tx_drops, 2);
    }
}
