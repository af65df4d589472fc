//! Net devices: physical NICs, tap devices, veth pairs, loopback.

use ovs_ebpf::XdpProgram;
use ovs_packet::MacAddr;
use std::collections::VecDeque;

/// Who drives the device — the kernel, or a userspace poll-mode driver
/// that unbinds it from the kernel (the DPDK situation that breaks every
/// tool in Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// The kernel driver owns the device; tools and rtnetlink work.
    Kernel,
    /// A userspace driver owns it (value = driver name, e.g. "dpdk").
    /// The kernel no longer sees the device.
    UserDriver(String),
}

/// What the kernel does with packets that survive the driver/XDP stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Deliver to the host TCP/IP stack (default).
    HostStack,
    /// The device is a port of the OVS kernel datapath; `port` is the OVS
    /// datapath port number.
    OvsBridge { port: u32 },
    /// Deliver into a network namespace (the inner end of a veth pair);
    /// index into the kernel's namespace table.
    Namespace { ns: usize },
}

/// Hardware offload capabilities (O5, Fig 8's checksum/TSO knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadCaps {
    /// NIC verifies receive checksums.
    pub rx_csum: bool,
    /// NIC fills transmit checksums.
    pub tx_csum: bool,
    /// NIC segments TCP super-frames.
    pub tso: bool,
    /// Driver supports native (zero-copy) XDP.
    pub native_xdp: bool,
    /// NIC supplies an RSS hash to the host (no XDP hint API yet — AF_XDP
    /// must still hash in software, §5.5).
    pub rss_hash: bool,
    /// Driver supports attaching XDP to a *subset* of queues — the
    /// Mellanox model of Fig 6(b). Intel-model drivers (Fig 6a) attach to
    /// the whole device only.
    pub per_queue_xdp: bool,
}

impl OffloadCaps {
    /// A modern NIC (ConnectX-6 class): everything on.
    pub fn full() -> Self {
        Self {
            rx_csum: true,
            tx_csum: true,
            tso: true,
            native_xdp: true,
            rss_hash: true,
            per_queue_xdp: true,
        }
    }

    /// No offloads (virtual devices, or offloads disabled for a test).
    pub fn none() -> Self {
        Self {
            rx_csum: false,
            tx_csum: false,
            tso: false,
            native_xdp: false,
            rss_hash: false,
            per_queue_xdp: false,
        }
    }
}

/// XDP attachment mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdpMode {
    /// Driver-native XDP: runs before skb allocation, zero-copy AF_XDP.
    Native,
    /// Generic (skb) mode: the universal fallback, one extra copy
    /// (§3.5 "Limitations").
    Generic,
}

/// A hardware flow-steering rule (`ethtool --config-ntuple` style): match
/// on L4 destination port and/or IP protocol, direct to a queue. With the
/// Fig 6(b) per-queue XDP model, these split management traffic (to
/// non-XDP queues, hence the normal stack) from dataplane traffic (to
/// XDP/AF_XDP queues) in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtupleRule {
    /// Match the L4 destination port, if set.
    pub tp_dst: Option<u16>,
    /// Match the IP protocol, if set.
    pub ip_proto: Option<u8>,
    /// Queue to steer matching packets to.
    pub queue: usize,
}

impl NtupleRule {
    /// Does this rule match the flow key?
    pub fn matches(&self, key: &ovs_packet::FlowKey) -> bool {
        self.tp_dst.map(|p| key.tp_dst() == p).unwrap_or(true)
            && self.ip_proto.map(|p| key.nw_proto() == p).unwrap_or(true)
    }
}

/// An XDP program attached to a device.
#[derive(Debug, Clone)]
pub struct XdpAttachment {
    /// The verified program.
    pub prog: XdpProgram,
    /// Attachment mode.
    pub mode: XdpMode,
    /// Which RX queues trigger the program: `None` = all queues (the Intel
    /// model in Fig 6a); `Some(qs)` = only those queues (the Mellanox
    /// model in Fig 6b, used with hardware flow steering).
    pub queues: Option<Vec<usize>>,
}

impl XdpAttachment {
    /// Does the program cover packets arriving on `queue`?
    pub fn covers(&self, queue: usize) -> bool {
        match &self.queues {
            None => true,
            Some(qs) => qs.contains(&queue),
        }
    }
}

/// Per-device packet counters (`ip -s link` / `nstat` fodder).
#[derive(Debug, Clone, Copy, Default)]
pub struct DevStats {
    pub rx_packets: u64,
    pub rx_bytes: u64,
    pub rx_dropped: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
    /// Frames dropped at the driver because carrier was down.
    pub tx_dropped: u64,
    /// Link up/down transitions (carrier flaps).
    pub carrier_transitions: u64,
    pub xdp_drop: u64,
    pub xdp_tx: u64,
    pub xdp_redirect: u64,
    pub xdp_pass: u64,
}

/// Device flavour.
#[derive(Debug, Clone)]
pub enum DeviceKind {
    /// A physical NIC with a link speed.
    Phys { link_gbps: f64 },
    /// A tap device: the kernel side plus a file-descriptor side read and
    /// written by userspace (QEMU/vhost or OVS itself).
    Tap,
    /// One end of a veth pair; `peer` is the other end's ifindex.
    Veth { peer: u32 },
    /// Loopback.
    Loopback,
}

/// A network device.
#[derive(Debug)]
pub struct NetDevice {
    /// Interface name (`eth0`, `tap1`, `veth-c0`, ...).
    pub name: String,
    /// Interface index (1-based, stable).
    pub ifindex: u32,
    /// MAC address.
    pub mac: MacAddr,
    /// MTU in bytes.
    pub mtu: usize,
    /// Administrative state.
    pub up: bool,
    /// Flavour.
    pub kind: DeviceKind,
    /// Kernel or userspace driver ownership.
    pub owner: Owner,
    /// Number of RX queues.
    pub num_queues: usize,
    /// Offload capabilities.
    pub caps: OffloadCaps,
    /// Attached XDP program, if any.
    pub xdp: Option<XdpAttachment>,
    /// eBPF program at the tc ingress hook (runs on the skb path, after
    /// allocation — the §2.2.2 eBPF-datapath attachment point).
    pub tc_bpf: Option<XdpProgram>,
    /// Where stack-bound packets go.
    pub attachment: Attachment,
    /// Counters.
    pub stats: DevStats,
    /// Physical devices: frames transmitted onto the wire (read by the
    /// harness or the peer host).
    pub tx_wire: VecDeque<Vec<u8>>,
    /// Tap devices: frames queued for the fd reader (userspace).
    pub fd_queue: VecDeque<Vec<u8>>,
    /// Frames delivered to the local stack on this device (tools,
    /// namespaces, sockets read these).
    pub stack_rx: VecDeque<Vec<u8>>,
    /// Userspace-driver mode: per-queue RX buffers the PMD polls.
    pub user_rx: Vec<VecDeque<Vec<u8>>>,
    /// Hardware flow-steering rules, first match wins.
    pub ntuple: Vec<NtupleRule>,
}

impl NetDevice {
    /// Build a device shell; the [`crate::Kernel`] assigns the ifindex.
    pub fn new(name: &str, mac: MacAddr, kind: DeviceKind, num_queues: usize) -> Self {
        let caps = match kind {
            DeviceKind::Phys { .. } => OffloadCaps::full(),
            _ => OffloadCaps::none(),
        };
        Self {
            name: name.to_string(),
            ifindex: 0,
            mac,
            mtu: 1500,
            up: true,
            kind,
            owner: Owner::Kernel,
            num_queues: num_queues.max(1),
            caps,
            xdp: None,
            tc_bpf: None,
            attachment: Attachment::HostStack,
            stats: DevStats::default(),
            tx_wire: VecDeque::new(),
            fd_queue: VecDeque::new(),
            stack_rx: VecDeque::new(),
            user_rx: (0..num_queues.max(1)).map(|_| VecDeque::new()).collect(),
            ntuple: Vec::new(),
        }
    }

    /// Pick the RX queue for a frame: ntuple steering rules first, then
    /// RSS over the 5-tuple hash — what the NIC does in hardware.
    pub fn hw_queue_for(&self, frame: &[u8]) -> usize {
        let key = ovs_packet::flow::extract_frame_key(frame);
        for r in &self.ntuple {
            if r.matches(&key) {
                return r.queue % self.num_queues;
            }
        }
        if self.num_queues <= 1 {
            0
        } else {
            key.rss_hash() as usize % self.num_queues
        }
    }

    /// True when a userspace driver owns this device.
    pub fn is_user_owned(&self) -> bool {
        matches!(self.owner, Owner::UserDriver(_))
    }

    /// Link speed in Gbps (physical devices only).
    pub fn link_gbps(&self) -> Option<f64> {
        match self.kind {
            DeviceKind::Phys { link_gbps } => Some(link_gbps),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_device_defaults() {
        let d = NetDevice::new(
            "eth0",
            MacAddr::new(2, 0, 0, 0, 0, 1),
            DeviceKind::Phys { link_gbps: 25.0 },
            4,
        );
        assert!(d.caps.native_xdp);
        assert!(d.caps.tso);
        assert_eq!(d.link_gbps(), Some(25.0));
        assert_eq!(d.num_queues, 4);
        assert!(!d.is_user_owned());
    }

    #[test]
    fn tap_has_no_offloads_by_default() {
        let d = NetDevice::new("tap0", MacAddr::ZERO, DeviceKind::Tap, 1);
        assert!(!d.caps.native_xdp);
        assert!(d.link_gbps().is_none());
    }

    #[test]
    fn xdp_queue_coverage() {
        let prog = ovs_ebpf::programs::task_a_drop();
        let all = XdpAttachment {
            prog: prog.clone(),
            mode: XdpMode::Native,
            queues: None,
        };
        assert!(all.covers(0));
        assert!(all.covers(7));
        let subset = XdpAttachment {
            prog,
            mode: XdpMode::Native,
            queues: Some(vec![3, 4]),
        };
        assert!(subset.covers(3));
        assert!(!subset.covers(0));
    }

    #[test]
    fn zero_queues_clamped_to_one() {
        let d = NetDevice::new("x", MacAddr::ZERO, DeviceKind::Loopback, 0);
        assert_eq!(d.num_queues, 1);
        assert_eq!(d.user_rx.len(), 1);
    }
}
