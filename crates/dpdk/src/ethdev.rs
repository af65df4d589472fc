//! The DPDK ethdev: exclusive NIC ownership with burst RX/TX.

use crate::mbuf::{Mbuf, Mempool};
use ovs_kernel::Kernel;
use ovs_packet::flow::extract_frame_key;
use ovs_sim::Context;

/// Burst size used by rx/tx (DPDK's conventional 32).
pub const BURST: usize = 32;

/// Statistics for one ethdev.
#[derive(Debug, Clone, Copy, Default)]
pub struct EthDevStats {
    pub rx_packets: u64,
    pub tx_packets: u64,
    pub rx_nombuf: u64,
}

/// A DPDK-driven physical port.
#[derive(Debug)]
pub struct EthDev {
    /// The underlying (kernel-invisible) device.
    pub ifindex: u32,
    /// The packet-buffer pool.
    pub pool: Mempool,
    /// Counters.
    pub stats: EthDevStats,
}

impl EthDev {
    /// Probe and take ownership of a NIC by name — after this, `ip link`,
    /// `tcpdump` and friends no longer see the device (Table 1).
    pub fn probe(kernel: &mut Kernel, name: &str, pool_size: usize) -> Result<Self, String> {
        let ifindex = kernel
            .device_by_name_any(name)
            .ok_or_else(|| format!("no such device {name}"))?
            .ifindex;
        kernel.take_device(ifindex, "dpdk");
        Ok(Self {
            ifindex,
            pool: Mempool::new(pool_size, 2048),
            stats: EthDevStats::default(),
        })
    }

    /// Release the NIC back to the kernel (e.g. on shutdown).
    pub fn close(&mut self, kernel: &mut Kernel) {
        kernel.release_device(self.ifindex);
    }

    /// Burst-receive up to [`BURST`] packets from `queue`, charging the
    /// polling core's user time. The NIC writes the RSS hash into each
    /// mbuf — hardware does the hashing here, unlike AF_XDP (§5.5).
    pub fn rx_burst(&mut self, kernel: &mut Kernel, queue: usize, core: usize) -> Vec<Mbuf> {
        let mut out = Vec::new();
        for _ in 0..BURST {
            let Some(frame) = kernel.user_rx_pop(self.ifindex, queue) else {
                break;
            };
            let Some(mut m) = self.pool.alloc() else {
                self.stats.rx_nombuf += 1;
                continue;
            };
            m.set_data(&frame);
            m.port = self.ifindex;
            // NIC-provided hash: model it with the same function the
            // software path uses, charged to nobody.
            m.rss_hash = extract_frame_key(&frame).rss_hash();
            out.push(m);
            self.stats.rx_packets += 1;
        }
        let c = &kernel.sim.costs;
        let bytes: usize = out.iter().map(|m| m.len()).sum();
        let ns = out.len() as f64 * c.dpdk_io_ns
            + bytes.saturating_sub(64 * out.len()) as f64 * c.dpdk_per_byte_ns;
        kernel.sim.charge(core, Context::User, ns);
        out
    }

    /// Burst-transmit, returning mbufs to the pool. Pure userspace: the
    /// frames go straight to the wire.
    pub fn tx_burst(&mut self, kernel: &mut Kernel, mbufs: Vec<Mbuf>, core: usize) -> usize {
        let n = mbufs.len();
        let bytes: usize = mbufs.iter().map(|m| m.len()).sum();
        for m in mbufs {
            kernel.user_tx(self.ifindex, m.data().to_vec());
            self.pool.free(m);
            self.stats.tx_packets += 1;
        }
        let c = &kernel.sim.costs;
        let ns = n as f64 * c.dpdk_io_ns + bytes.saturating_sub(64 * n) as f64 * c.dpdk_per_byte_ns;
        kernel.sim.charge(core, Context::User, ns);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_kernel::dev::{DeviceKind, NetDevice};
    use ovs_kernel::tools;
    use ovs_packet::{builder, MacAddr};

    const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);

    fn setup() -> (Kernel, EthDev) {
        let mut k = Kernel::new(4);
        k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 25.0 },
            2,
        ));
        let dev = EthDev::probe(&mut k, "eth0", 128).unwrap();
        (k, dev)
    }

    fn frame() -> Vec<u8> {
        builder::udp_ipv4_frame(M1, M1, [1, 1, 1, 1], [2, 2, 2, 2], 3, 4, 64)
    }

    #[test]
    fn probe_takes_ownership() {
        let (mut k, mut dev) = setup();
        assert!(
            tools::ip_link(&k, Some("eth0")).is_err(),
            "kernel lost the device"
        );
        dev.close(&mut k);
        assert!(tools::ip_link(&k, Some("eth0")).is_ok());
    }

    #[test]
    fn rx_tx_roundtrip() {
        let (mut k, mut dev) = setup();
        for _ in 0..3 {
            k.receive(dev.ifindex, 0, frame());
        }
        let mbufs = dev.rx_burst(&mut k, 0, 0);
        assert_eq!(mbufs.len(), 3);
        assert!(mbufs[0].rss_hash != 0);
        let sent = dev.tx_burst(&mut k, mbufs, 0);
        assert_eq!(sent, 3);
        assert_eq!(k.device(dev.ifindex).tx_wire.len(), 3);
        // All CPU went to user time — the DPDK signature in Table 4.
        assert!(k.sim.cpus.core(0).ns(Context::User) > 0.0);
        assert_eq!(k.sim.cpus.core(0).ns(Context::Softirq), 0.0);
    }

    #[test]
    fn pool_exhaustion_counts_nombuf() {
        let mut k = Kernel::new(2);
        k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let mut dev = EthDev::probe(&mut k, "eth0", 2).unwrap();
        for _ in 0..4 {
            k.receive(dev.ifindex, 0, frame());
        }
        let mbufs = dev.rx_burst(&mut k, 0, 0);
        assert_eq!(mbufs.len(), 2);
        assert_eq!(dev.stats.rx_nombuf, 2);
    }
}
