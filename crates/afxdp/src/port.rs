//! An AF_XDP port: one socket per NIC queue plus the OVS hook program.
//!
//! This is what `ovs-vswitchd` sets up when a port of type `afxdp` is
//! added to a bridge (§4): it creates an xskmap, binds one XSK per
//! configured queue, and loads the redirect program onto the device —
//! and unloads it when the port is removed.

use crate::socket::{OptLevel, XskSocket};
use ovs_ebpf::maps::{Map, XskMap};
use ovs_ebpf::programs;
use ovs_kernel::dev::XdpMode;
use ovs_kernel::Kernel;
use ovs_obs::coverage;
use ovs_ring::{DpPacketPool, PacketBatch};

/// Which rung of the AF_XDP degradation ladder the port is running on
/// (§3.5: zero-copy → copy/skb mode; the tap rung lives above this
/// type, in the datapath's port fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfxdpMode {
    /// Native driver XDP, zero-copy umem.
    ZeroCopy,
    /// Generic (skb) XDP, copy mode.
    Copy,
}

impl AfxdpMode {
    /// The `dpif-netdev/port-status` label.
    pub fn label(self) -> &'static str {
        match self {
            AfxdpMode::ZeroCopy => "zero-copy",
            AfxdpMode::Copy => "copy",
        }
    }
}

/// A multi-queue AF_XDP port.
#[derive(Debug)]
pub struct AfxdpPort {
    /// Device the port drives.
    pub ifindex: u32,
    /// One socket per queue.
    pub sockets: Vec<XskSocket>,
    /// The xskmap fd backing the hook program.
    pub xskmap_fd: u32,
    /// The rung of the degradation ladder in use.
    pub mode: AfxdpMode,
    /// Whether the driver supported zero-copy but attach was rejected —
    /// i.e. `mode` is a degradation rather than the driver's best.
    pub degraded: bool,
}

impl AfxdpPort {
    /// Open an AF_XDP port on `ifindex` with one socket per device queue,
    /// installing the OVS hook program. Walks the degradation ladder:
    /// native/zero-copy when the driver supports it, falling back to
    /// generic/copy (skb) mode when it doesn't or when the driver rejects
    /// the attach (§3.5 "Limitations"). Errors only when even generic
    /// attach fails; the caller's next rung is a tap port.
    pub fn open(
        kernel: &mut Kernel,
        ifindex: u32,
        nframes_per_queue: usize,
        opt: OptLevel,
    ) -> Result<Self, String> {
        let (num_queues, native) = {
            let d = kernel.device(ifindex);
            (d.num_queues, d.caps.native_xdp)
        };
        let mut xmap = XskMap::new(num_queues);
        let mut sockets = Vec::with_capacity(num_queues);
        for q in 0..num_queues {
            let sock =
                XskSocket::bind_with_mode(kernel, ifindex, q, nframes_per_queue, opt, native);
            xmap.set(q as u32, sock.xsk_id)
                .map_err(|e| format!("xskmap: {e:?}"))?;
            sockets.push(sock);
        }
        let xskmap_fd = kernel.maps.add(Map::Xsk(xmap));

        let mut mode = if native {
            AfxdpMode::ZeroCopy
        } else {
            AfxdpMode::Copy
        };
        let mut degraded = false;
        let attach = if native {
            kernel.attach_xdp(
                ifindex,
                programs::ovs_xsk_redirect(xskmap_fd),
                XdpMode::Native,
                None,
            )
        } else {
            Err("driver lacks native XDP support".to_string())
        };
        if let Err(first) = attach {
            // Next rung: generic (skb) copy mode. Only count it as a
            // degradation when the driver *could* have done better.
            if native {
                degraded = true;
                coverage!("xsk_degraded_mode");
            }
            mode = AfxdpMode::Copy;
            kernel
                .attach_xdp(
                    ifindex,
                    programs::ovs_xsk_redirect(xskmap_fd),
                    XdpMode::Generic,
                    None,
                )
                .map_err(|second| format!("{first}; generic fallback: {second}"))?;
            for s in &mut sockets {
                s.set_zero_copy(false);
            }
        }
        Ok(Self {
            ifindex,
            sockets,
            xskmap_fd,
            mode,
            degraded,
        })
    }

    /// Close the port: detach the hook program, as OVS does when the port
    /// is removed from the bridge. Packets still parked on the sockets'
    /// rings are gone with the socket — losable only *with a count*
    /// (`xsk_close_flushed`), which is what lets a crash-restart cycle
    /// account for every frame it took down with it.
    pub fn close(&mut self, kernel: &mut Kernel) {
        kernel.detach_xdp(self.ifindex);
        let flushed: u64 = self.sockets.iter().map(|s| s.pending_frames() as u64).sum();
        if flushed > 0 {
            coverage!("xsk_close_flushed", flushed);
        }
        // Tear down the kernel-side bindings too: once the parked frames
        // are counted, nothing (stale xskmap entries, a later recovery
        // kick) may resurrect them — that would count them twice.
        for s in &self.sockets {
            kernel.close_xsk(s.xsk_id);
        }
    }

    /// Number of queues/sockets.
    pub fn num_queues(&self) -> usize {
        self.sockets.len()
    }

    /// What this port adds to its datapath's descriptor-pool bound (see
    /// [`XskSocket::metadata_frames`]).
    pub fn metadata_frames(&self) -> usize {
        self.sockets.iter().map(XskSocket::metadata_frames).sum()
    }

    /// Receive a burst from one queue into `batch`, charging `core`.
    /// Returns the packets received.
    pub fn rx_burst(
        &mut self,
        kernel: &mut Kernel,
        queue: usize,
        core: usize,
        pool: &mut DpPacketPool,
        batch: &mut PacketBatch,
    ) -> usize {
        self.sockets[queue].rx_burst(kernel, core, pool, batch)
    }

    /// Transmit a batch on one queue, charging `core`; `batch` is left
    /// empty.
    pub fn tx_burst(
        &mut self,
        kernel: &mut Kernel,
        queue: usize,
        core: usize,
        batch: &mut PacketBatch,
        pool: &mut DpPacketPool,
    ) -> usize {
        self.sockets[queue].tx_burst(kernel, core, batch, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_kernel::dev::{DeviceKind, NetDevice};
    use ovs_kernel::RxOutcome;
    use ovs_packet::{builder, MacAddr};

    const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const M2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    fn frame() -> Vec<u8> {
        builder::udp_ipv4_frame(M2, M1, [10, 0, 0, 2], [10, 0, 0, 1], 1, 2, 64)
    }

    fn rx(port: &mut AfxdpPort, k: &mut Kernel, queue: usize) -> usize {
        let mut pool = DpPacketPool::new(port.metadata_frames(), 2048);
        port.rx_burst(k, queue, 1, &mut pool, &mut PacketBatch::new())
    }

    #[test]
    fn multi_queue_port_routes_by_queue() {
        let mut k = Kernel::new(8);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 25.0 },
            4,
        ));
        let mut port = AfxdpPort::open(&mut k, eth0, 64, OptLevel::O5).unwrap();
        assert_eq!(port.num_queues(), 4);
        for q in 0..4 {
            let out = k.receive(eth0, q, frame());
            assert!(matches!(out, RxOutcome::ToXsk(_)), "queue {q}: {out:?}");
        }
        assert_eq!(port.metadata_frames(), 4 * 64);
        for q in 0..4 {
            let n = rx(&mut port, &mut k, q);
            assert_eq!(n, 1, "each queue's socket got its packet");
        }
    }

    #[test]
    fn generic_fallback_when_no_native_xdp() {
        let mut k = Kernel::new(2);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        k.dev_mut(eth0).caps.native_xdp = false; // old driver
        let mut port = AfxdpPort::open(&mut k, eth0, 32, OptLevel::O5).unwrap();
        k.receive(eth0, 0, frame());
        assert_eq!(
            rx(&mut port, &mut k, 0),
            1,
            "copy-mode fallback still works"
        );
    }

    #[test]
    fn close_detaches_hook() {
        let mut k = Kernel::new(2);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let mut port = AfxdpPort::open(&mut k, eth0, 32, OptLevel::O5).unwrap();
        assert!(k.device(eth0).xdp.is_some());
        port.close(&mut k);
        assert!(k.device(eth0).xdp.is_none());
        // Traffic now goes to the host stack instead of the socket.
        assert_eq!(k.receive(eth0, 0, frame()), RxOutcome::ToHost);
    }
}
