//! The kernel: device registry, driver RX/TX paths, XDP execution, the
//! host stack, and the glue between devices, namespaces, guests, the OVS
//! module, and AF_XDP sockets.
//!
//! All packet movement inside the simulated host flows through
//! [`Kernel::receive`] and [`Kernel::transmit`]; every modelled operation
//! charges the cost model through `self.sim`.

use crate::conntrack::CtTable;
use crate::dev::{Attachment, DeviceKind, NetDevice, Owner, XdpAttachment, XdpMode};
use crate::guest::{Guest, GuestRole, VirtioBackend};
use crate::namespace::{reflect_frame, ContainerRole, Namespace};
use crate::neigh::{NeighState, NeighTable, Neighbor};
use crate::ovs_module::{DpEnv, DpVerdict, OvsModule};
use crate::route::{Route, RouteTable};
use crate::rtnetlink::RtnlEvent;
use crate::xsk::XskHandle;
use ovs_ebpf::xdp::{RedirectTarget, XdpAction};
use ovs_ebpf::{MapSet, Vm, XdpProgram};
use ovs_obs::coverage;
use ovs_packet::ethernet::EthernetFrame;
use ovs_packet::{arp, builder, icmp, ipv4, udp, EtherType, MacAddr};
use ovs_sim::{faults::FaultKind, Context, SimCtx};
use std::collections::{BTreeMap, HashMap, VecDeque};

pub use crate::ovs_module::Upcall;

/// Recursion guard: maximum device hops one packet may take inside the
/// host (veth chains, XDP redirects, bridge recirculation).
const MAX_HOPS: usize = 16;

/// Upcall queue depth; the real datapath's Netlink sockets drop misses
/// beyond their buffering, which is how upcall storms shed load.
const MAX_UPCALLS: usize = 4096;

/// Per-kernel scheduling configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Hyperthreads that run NIC softirq work; queue `q` is serviced by
    /// `rss_cores[q % len]`.
    pub rss_cores: Vec<usize>,
    /// Hyperthread charged for host-stack and virtual-device work.
    pub host_stack_core: usize,
    /// Multiplier on all softirq charges, modelling the cache-bounce and
    /// hyperthread-sharing penalty when RSS spreads one workload across
    /// many threads (`CostModel::kernel_rss_penalty`; Table 4's 9.7
    /// softirq hyperthreads). 1.0 = no contention.
    pub softirq_scale: f64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            rss_cores: vec![0],
            host_stack_core: 0,
            softirq_scale: 1.0,
        }
    }
}

/// First-hop classification of a received packet (details are visible in
/// device/namespace/guest queues and stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// The device is owned by a userspace driver; queued for its PMD.
    UserOwned,
    /// Device down or other early drop.
    Dropped,
    /// XDP program dropped (or aborted on) the packet.
    XdpDrop,
    /// XDP bounced the packet back out the same NIC.
    XdpTx,
    /// Redirected into an AF_XDP socket.
    ToXsk(u32),
    /// Redirect to a socket failed (fill ring empty / ring full).
    XskDropped(u32),
    /// Redirected to another device.
    RedirectedDev(u32),
    /// Went through the OVS kernel datapath.
    Bridged,
    /// The OVS datapath missed and queued an upcall.
    Upcalled,
    /// Delivered to the host stack.
    ToHost,
    /// Delivered into a namespace (container).
    ToNamespace,
}

/// The simulated kernel.
pub struct Kernel {
    /// Virtual time, CPUs, and the cost model.
    pub sim: SimCtx,
    devices: Vec<NetDevice>,
    /// Addresses: `(ifindex, ip, prefix_len)`.
    addrs: Vec<(u32, [u8; 4], u8)>,
    /// The IPv4 routing table.
    pub routes: RouteTable,
    /// The neighbour (ARP) table.
    pub neighbors: NeighTable,
    /// Kernel conntrack.
    pub conntrack: CtTable,
    /// The OVS kernel datapath module.
    pub ovs: OvsModule,
    /// Global BPF map registry (map fds are kernel-wide).
    pub maps: MapSet,
    /// The eBPF execution engine.
    vm: Vm,
    xsks: Vec<XskHandle>,
    /// Container namespaces.
    pub namespaces: Vec<Namespace>,
    /// Virtual machines.
    pub guests: Vec<Guest>,
    /// Pending upcalls from the OVS kernel datapath.
    pub upcalls: VecDeque<Upcall>,
    /// Misses dropped because the upcall queue was full.
    pub upcall_drops: u64,
    /// Frames flushed from vhost rings on guest disconnect (counted so
    /// the robustness soak can account for every injected packet).
    pub vhost_flushed: u64,
    /// rtnetlink notification stream (consumed by userspace caches).
    pub events: Vec<RtnlEvent>,
    /// Scheduling configuration.
    pub config: KernelConfig,
    /// SNMP-style counters (`nstat`).
    pub nstat: BTreeMap<String, u64>,
    /// UDP sockets: `(ip, port)` → received payload frames.
    pub udp_sockets: HashMap<([u8; 4], u16), VecDeque<Vec<u8>>>,
    /// Per-device packet captures (`tcpdump`). Key: ifindex.
    captures: HashMap<u32, Vec<Vec<u8>>>,
    /// Frames flagged by an active `ofproto/trace`; `tcpdump` tags
    /// matching captures with `[traced]`.
    traced_frames: Vec<Vec<u8>>,
}

impl Kernel {
    /// A kernel on a machine with `n_cpus` hyperthreads.
    pub fn new(n_cpus: usize) -> Self {
        Self {
            sim: SimCtx::new(n_cpus),
            devices: Vec::new(),
            addrs: Vec::new(),
            routes: RouteTable::new(),
            neighbors: NeighTable::new(),
            conntrack: CtTable::new(),
            ovs: OvsModule::new(),
            maps: MapSet::new(),
            vm: Vm::new(),
            xsks: Vec::new(),
            namespaces: Vec::new(),
            guests: Vec::new(),
            upcalls: VecDeque::new(),
            upcall_drops: 0,
            vhost_flushed: 0,
            events: Vec::new(),
            config: KernelConfig::default(),
            nstat: BTreeMap::new(),
            udp_sockets: HashMap::new(),
            captures: HashMap::new(),
            traced_frames: Vec::new(),
        }
    }

    /// Flag a frame as belonging to a packet trace so capture tools can
    /// correlate it. Bounded: only the most recent flags are kept.
    pub fn mark_traced(&mut self, frame: &[u8]) {
        const MAX_TRACED: usize = 64;
        if self.traced_frames.len() >= MAX_TRACED {
            self.traced_frames.remove(0);
        }
        self.traced_frames.push(frame.to_vec());
    }

    /// Whether `frame` was flagged by [`mark_traced`](Self::mark_traced).
    pub fn is_traced(&self, frame: &[u8]) -> bool {
        self.traced_frames.iter().any(|f| f == frame)
    }

    /// Charge softirq time with the configured contention scaling.
    fn charge_softirq(&mut self, core: usize, ns: f64) {
        let scaled = ns * self.config.softirq_scale;
        self.sim.charge(core, Context::Softirq, scaled);
    }

    fn bump(&mut self, counter: &str) {
        *self.nstat.entry(counter.to_string()).or_insert(0) += 1;
    }

    // ------------------------------------------------------------------
    // Device management
    // ------------------------------------------------------------------

    /// Register a device, assigning its ifindex.
    pub fn add_device(&mut self, mut dev: NetDevice) -> u32 {
        let ifindex = (self.devices.len() + 1) as u32;
        dev.ifindex = ifindex;
        self.events.push(RtnlEvent::LinkAdd {
            ifindex,
            name: dev.name.clone(),
        });
        self.devices.push(dev);
        ifindex
    }

    /// Create a veth pair, returning `(a, b)` ifindexes.
    pub fn add_veth_pair(
        &mut self,
        name_a: &str,
        name_b: &str,
        mac_a: MacAddr,
        mac_b: MacAddr,
    ) -> (u32, u32) {
        let a = self.add_device(NetDevice::new(
            name_a,
            mac_a,
            DeviceKind::Veth { peer: 0 },
            1,
        ));
        let b = self.add_device(NetDevice::new(
            name_b,
            mac_b,
            DeviceKind::Veth { peer: a },
            1,
        ));
        if let DeviceKind::Veth { peer } = &mut self.dev_mut(a).kind {
            *peer = b;
        }
        (a, b)
    }

    /// Borrow a device by ifindex. Panics on an invalid index (harness
    /// bug, not a data condition).
    pub fn device(&self, ifindex: u32) -> &NetDevice {
        &self.devices[(ifindex - 1) as usize]
    }

    /// Mutably borrow a device.
    pub fn dev_mut(&mut self, ifindex: u32) -> &mut NetDevice {
        &mut self.devices[(ifindex - 1) as usize]
    }

    /// Find a kernel-visible device by name. Userspace-owned devices are
    /// invisible, exactly as an unbound device is to `ip link`.
    pub fn device_by_name(&self, name: &str) -> Option<&NetDevice> {
        self.devices
            .iter()
            .find(|d| d.name == name && !d.is_user_owned())
    }

    /// Find any device by name, including userspace-owned ones (used by
    /// the userspace drivers themselves).
    pub fn device_by_name_any(&self, name: &str) -> Option<&NetDevice> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// All kernel-owned devices.
    pub fn kernel_devices(&self) -> impl Iterator<Item = &NetDevice> {
        self.devices.iter().filter(|d| !d.is_user_owned())
    }

    /// Assign an IP address, adding the connected route.
    pub fn add_addr(&mut self, ifindex: u32, ip: [u8; 4], prefix_len: u8) {
        self.addrs.push((ifindex, ip, prefix_len));
        self.routes.add(Route {
            dst: ip,
            prefix_len,
            gateway: None,
            ifindex,
        });
        self.events.push(RtnlEvent::AddrAdd {
            ifindex,
            ip,
            prefix_len,
        });
    }

    /// Addresses on a device.
    pub fn addrs_of(&self, ifindex: u32) -> Vec<([u8; 4], u8)> {
        self.addrs
            .iter()
            .filter(|(i, _, _)| *i == ifindex)
            .map(|(_, ip, p)| (*ip, *p))
            .collect()
    }

    /// Is `ip` assigned to any kernel device?
    pub fn is_local_ip(&self, ip: [u8; 4]) -> bool {
        self.addrs.iter().any(|(_, a, _)| *a == ip)
    }

    /// `(ifindex, mac)` for every device (tunnel source-MAC resolution).
    fn dev_macs(&self) -> Vec<(u32, MacAddr)> {
        self.devices.iter().map(|d| (d.ifindex, d.mac)).collect()
    }

    /// Hand a device to a userspace driver (DPDK-style unbind). Kernel
    /// state referring to it (XDP programs, bridge attachment) is dropped,
    /// and tools stop seeing it.
    pub fn take_device(&mut self, ifindex: u32, driver: &str) {
        let d = self.dev_mut(ifindex);
        d.owner = Owner::UserDriver(driver.to_string());
        d.xdp = None;
        self.events.push(RtnlEvent::LinkDel { ifindex });
    }

    /// Return a device to the kernel driver.
    pub fn release_device(&mut self, ifindex: u32) {
        let name = {
            let d = self.dev_mut(ifindex);
            d.owner = Owner::Kernel;
            d.name.clone()
        };
        self.events.push(RtnlEvent::LinkAdd { ifindex, name });
    }

    /// Attach an XDP program. Enforces the driver models of Fig 6:
    /// per-queue attachment requires a driver that supports it, native
    /// mode requires native-XDP capability (otherwise use
    /// [`XdpMode::Generic`], the universal fallback).
    pub fn attach_xdp(
        &mut self,
        ifindex: u32,
        prog: XdpProgram,
        mode: XdpMode,
        queues: Option<Vec<usize>>,
    ) -> Result<(), String> {
        // Injected attach rejection: `arg = 1` models the verifier/driver
        // rejecting native mode only (copy mode still works); `arg >= 2`
        // rejects generic too, forcing the tap rung of the ladder.
        if let Some(arg) = self
            .sim
            .faults
            .active_arg(FaultKind::XdpAttachFail, ifindex)
        {
            if mode == XdpMode::Native || arg >= 2 {
                let name = self.device(ifindex).name.clone();
                coverage!("xdp_attach_rejected");
                return Err(format!(
                    "{name}: XDP program rejected by driver ({mode:?} mode)"
                ));
            }
        }
        let d = self.dev_mut(ifindex);
        if d.is_user_owned() {
            return Err(format!("{}: device not managed by the kernel", d.name));
        }
        if mode == XdpMode::Native && !d.caps.native_xdp {
            return Err(format!("{}: driver lacks native XDP support", d.name));
        }
        if queues.is_some() && !d.caps.per_queue_xdp {
            return Err(format!(
                "{}: driver only supports whole-device XDP attachment",
                d.name
            ));
        }
        d.xdp = Some(XdpAttachment { prog, mode, queues });
        Ok(())
    }

    /// Detach the XDP program.
    pub fn detach_xdp(&mut self, ifindex: u32) {
        self.dev_mut(ifindex).xdp = None;
    }

    /// Register an AF_XDP socket binding, returning its socket id (the
    /// value stored in xskmaps).
    pub fn register_xsk(&mut self, handle: XskHandle) -> u32 {
        self.xsks.push(handle);
        (self.xsks.len() - 1) as u32
    }

    /// Shared handle to a registered socket.
    pub fn xsk(&self, id: u32) -> XskHandle {
        std::rc::Rc::clone(&self.xsks[id as usize])
    }

    /// Userspace closed socket `xsk_id`: destroy the binding's rings and
    /// mark it inert. Socket ids are stable (they index `xsks`), so the
    /// entry stays; stale xskmap lookups and recovery kicks find a
    /// binding that accepts and yields nothing.
    pub fn close_xsk(&mut self, xsk_id: u32) {
        self.xsks[xsk_id as usize].borrow_mut().close();
    }

    /// Create a container: a veth pair whose inner end sits in a new
    /// namespace. Returns `(host_ifindex, inner_ifindex, ns_index)`.
    pub fn add_container(
        &mut self,
        name: &str,
        ip: [u8; 4],
        mac: MacAddr,
        role: ContainerRole,
    ) -> (u32, u32, usize) {
        let host_mac = MacAddr::new(0x0a, 0, 0, mac.0[3], mac.0[4], mac.0[5]);
        let (host_if, inner_if) = self.add_veth_pair(
            &format!("veth-{name}"),
            &format!("eth0@{name}"),
            host_mac,
            mac,
        );
        let mut ns = Namespace::new(name, ip, mac, role);
        ns.ifindex = inner_if;
        self.namespaces.push(ns);
        let idx = self.namespaces.len() - 1;
        self.dev_mut(inner_if).attachment = Attachment::Namespace { ns: idx };
        (host_if, inner_if, idx)
    }

    /// Register a guest VM. For vhost-net guests, pass the tap it sits
    /// behind. Returns the guest index.
    pub fn add_guest(&mut self, guest: Guest) -> usize {
        self.guests.push(guest);
        self.guests.len() - 1
    }

    // ------------------------------------------------------------------
    // Packet capture
    // ------------------------------------------------------------------

    /// Start capturing on a device (`tcpdump -i`).
    pub fn capture_start(&mut self, ifindex: u32) {
        self.captures.entry(ifindex).or_default();
    }

    /// Stop capturing and return the captured frames.
    pub fn capture_stop(&mut self, ifindex: u32) -> Vec<Vec<u8>> {
        self.captures.remove(&ifindex).unwrap_or_default()
    }

    fn capture(&mut self, ifindex: u32, frame: &[u8]) {
        if let Some(buf) = self.captures.get_mut(&ifindex) {
            buf.push(frame.to_vec());
        }
    }

    // ------------------------------------------------------------------
    // RX path
    // ------------------------------------------------------------------

    /// A packet arrives from the wire on `(ifindex, queue)`.
    pub fn receive(&mut self, ifindex: u32, queue: usize, frame: Vec<u8>) -> RxOutcome {
        self.receive_inner(ifindex, queue, frame, 0)
    }

    /// A packet arrives from the wire and the NIC picks the queue itself:
    /// ntuple steering rules first, then RSS (Fig 6b's hardware
    /// classification).
    pub fn receive_steered(&mut self, ifindex: u32, frame: Vec<u8>) -> RxOutcome {
        let queue = self.device(ifindex).hw_queue_for(&frame);
        self.receive_inner(ifindex, queue, frame, 0)
    }

    /// The softirq core servicing `(ifindex, queue)` — each device's
    /// queues get their own IRQ affinity slot, as `irqbalance` would set.
    fn softirq_core(&self, ifindex: u32, queue: usize) -> usize {
        let n = self.config.rss_cores.len();
        self.config.rss_cores[(ifindex as usize * 7 + queue) % n]
    }

    fn receive_inner(
        &mut self,
        ifindex: u32,
        queue: usize,
        mut frame: Vec<u8>,
        depth: usize,
    ) -> RxOutcome {
        if depth > MAX_HOPS {
            return RxOutcome::Dropped;
        }
        self.capture(ifindex, &frame);
        let (up, user_owned, is_phys, attachment, xdp_active, xdp_mode) = {
            let d = self.device(ifindex);
            (
                d.up,
                d.is_user_owned(),
                matches!(d.kind, DeviceKind::Phys { .. }),
                d.attachment,
                d.xdp.as_ref().map(|x| x.covers(queue)).unwrap_or(false),
                d.xdp.as_ref().map(|x| x.mode),
            )
        };
        {
            let d = self.dev_mut(ifindex);
            d.stats.rx_packets += 1;
            d.stats.rx_bytes += frame.len() as u64;
        }
        if !up {
            self.dev_mut(ifindex).stats.rx_dropped += 1;
            coverage!("netdev_rx_carrier_down");
            return RxOutcome::Dropped;
        }
        if user_owned {
            let d = self.dev_mut(ifindex);
            let q = queue % d.user_rx.len();
            d.user_rx[q].push_back(frame);
            return RxOutcome::UserOwned;
        }

        let core = if is_phys {
            self.softirq_core(ifindex, queue)
        } else {
            self.config.host_stack_core
        };
        if is_phys {
            let c = self.sim.costs.driver_rx_ns;
            self.charge_softirq(core, c);
        }

        // XDP stage.
        if xdp_active {
            if xdp_mode == Some(XdpMode::Generic) {
                // Generic mode runs after skb allocation and pays a copy.
                let c = self.sim.costs.skb_alloc_ns
                    + self.sim.costs.afxdp_copy_mode_extra_ns
                    + self.sim.costs.copy_ns(frame.len());
                self.charge_softirq(core, c);
            }
            // Borrow the program in place (disjoint from the VM and the
            // maps it runs against): no clone per frame.
            let prog = &self.devices[(ifindex - 1) as usize]
                .xdp
                .as_ref()
                .expect("xdp_active implies an attachment")
                .prog;
            let run = prog.run(&mut self.vm, &mut frame, queue as u32, &mut self.maps);
            let res = match run {
                Ok(r) => r,
                Err(_) => {
                    self.dev_mut(ifindex).stats.xdp_drop += 1;
                    return RxOutcome::XdpDrop;
                }
            };
            let mut c = self.sim.costs.xdp_dispatch_ns
                + res.insns as f64 * self.sim.costs.ebpf_insn_ns
                + res.map_lookups as f64 * self.sim.costs.ebpf_map_lookup_ns;
            if res.pkt_accesses > 0 {
                c += self.sim.costs.xdp_pkt_touch_ns;
            }
            self.charge_softirq(core, c);

            match res.action {
                XdpAction::Drop | XdpAction::Aborted => {
                    self.dev_mut(ifindex).stats.xdp_drop += 1;
                    return RxOutcome::XdpDrop;
                }
                XdpAction::Tx => {
                    let c = self.sim.costs.xdp_tx_ns;
                    self.charge_softirq(core, c);
                    self.dev_mut(ifindex).stats.xdp_tx += 1;
                    self.transmit_at(ifindex, frame, core, depth + 1);
                    return RxOutcome::XdpTx;
                }
                XdpAction::Redirect(RedirectTarget::Xsk(id)) => {
                    self.dev_mut(ifindex).stats.xdp_redirect += 1;
                    // Preferred busy polling: the XSK delivery work runs
                    // inline on the application's core.
                    let deliver_core = self.xsk(id).borrow().busy_poll_core.unwrap_or(core);
                    let c = self.sim.costs.xsk_deliver_ns;
                    self.charge_softirq(deliver_core, c);
                    let h = self.xsk(id);
                    let mut b = h.borrow_mut();
                    if !b.zero_copy {
                        let c = self.sim.costs.copy_ns(frame.len());
                        drop(b);
                        self.charge_softirq(core, c);
                        b = h.borrow_mut();
                    }
                    return if b.deliver(&frame) {
                        RxOutcome::ToXsk(id)
                    } else {
                        RxOutcome::XskDropped(id)
                    };
                }
                XdpAction::Redirect(RedirectTarget::Device(dif)) => {
                    self.dev_mut(ifindex).stats.xdp_redirect += 1;
                    let c = self.sim.costs.xdp_redirect_ns;
                    self.charge_softirq(core, c);
                    self.transmit_at(dif, frame, core, depth + 1);
                    return RxOutcome::RedirectedDev(dif);
                }
                XdpAction::Redirect(RedirectTarget::Invalid) => {
                    self.dev_mut(ifindex).stats.xdp_drop += 1;
                    return RxOutcome::XdpDrop;
                }
                XdpAction::Pass => {
                    self.dev_mut(ifindex).stats.xdp_pass += 1;
                    // Fall through to the skb path.
                }
            }
        }

        // skb path.
        if is_phys {
            let c = self.sim.costs.skb_alloc_ns;
            self.charge_softirq(core, c);
        }

        // tc ingress hook: the eBPF-datapath attachment point (§2.2.2).
        // Unlike XDP it runs on an allocated skb, paying the fixed skb
        // context cost plus interpreted bytecode per packet.
        if let Some(prog) = &self.devices[(ifindex - 1) as usize].tc_bpf {
            let run = prog.run(&mut self.vm, &mut frame, queue as u32, &mut self.maps);
            let res = match run {
                Ok(r) => r,
                Err(_) => {
                    self.dev_mut(ifindex).stats.rx_dropped += 1;
                    return RxOutcome::Dropped;
                }
            };
            let mut c = self.sim.costs.tc_bpf_fixed_ns
                + res.insns as f64 * self.sim.costs.ebpf_insn_ns
                + res.map_lookups as f64 * self.sim.costs.ebpf_map_lookup_ns;
            if res.pkt_accesses > 0 {
                c += self.sim.costs.xdp_pkt_touch_ns;
            }
            self.charge_softirq(core, c);
            match res.action {
                XdpAction::Drop | XdpAction::Aborted => {
                    self.dev_mut(ifindex).stats.rx_dropped += 1;
                    return RxOutcome::Dropped;
                }
                XdpAction::Redirect(RedirectTarget::Device(dif)) => {
                    self.transmit_at(dif, frame, core, depth + 1);
                    return RxOutcome::RedirectedDev(dif);
                }
                XdpAction::Redirect(_) | XdpAction::Tx => {
                    // tc hooks cannot reach XSKs or TX in this model.
                    self.dev_mut(ifindex).stats.rx_dropped += 1;
                    return RxOutcome::Dropped;
                }
                XdpAction::Pass => {}
            }
        }

        match attachment {
            Attachment::OvsBridge { .. } => self.bridge_input(ifindex, frame, core, depth),
            Attachment::Namespace { ns } => self.namespace_input(ifindex, ns, frame, core, depth),
            Attachment::HostStack => {
                self.stack_deliver(ifindex, frame, core, depth);
                RxOutcome::ToHost
            }
        }
    }

    /// Run a frame through the OVS kernel datapath and apply the verdicts.
    fn bridge_input(
        &mut self,
        ifindex: u32,
        frame: Vec<u8>,
        core: usize,
        depth: usize,
    ) -> RxOutcome {
        let dev_macs = self.dev_macs();
        let now = self.sim.clock.now_ns();
        let (lookups0, enc0, dec0, ct0) = (
            self.ovs.stats.lookups,
            self.ovs.stats.tunnel_encaps,
            self.ovs.stats.tunnel_decaps,
            self.conntrack.stats.ops,
        );
        let verdicts = {
            let mut env = DpEnv {
                routes: &self.routes,
                neighbors: &self.neighbors,
                conntrack: &mut self.conntrack,
                dev_macs: &dev_macs,
                now_ns: now,
            };
            self.ovs.receive(frame, ifindex, &mut env)
        };
        // Charge datapath work from the stats deltas.
        let c = (self.ovs.stats.lookups - lookups0) as f64 * self.sim.costs.kernel_ovs_flow_ns
            + (self.ovs.stats.tunnel_encaps - enc0 + self.ovs.stats.tunnel_decaps - dec0) as f64
                * self.sim.costs.kernel_tunnel_ns
            + (self.conntrack.stats.ops - ct0) as f64 * self.sim.costs.kernel_conntrack_ns;
        self.charge_softirq(core, c);

        let mut outcome = RxOutcome::Bridged;
        for v in verdicts {
            match v {
                DpVerdict::Emit {
                    ifindex: out_if,
                    frame,
                } => {
                    self.transmit_at(out_if, frame, core, depth + 1);
                }
                DpVerdict::ToHost { frame } => {
                    self.stack_deliver(ifindex, frame, core, depth);
                }
                DpVerdict::Upcall(u) => {
                    if self.upcalls.len() < MAX_UPCALLS {
                        self.upcalls.push_back(u);
                        outcome = RxOutcome::Upcalled;
                    } else {
                        self.upcall_drops += 1;
                        coverage!("upcall_queue_full");
                        outcome = RxOutcome::Dropped;
                    }
                }
                DpVerdict::Drop => {}
            }
        }
        outcome
    }

    /// Deliver a frame into a container namespace and handle its reply.
    fn namespace_input(
        &mut self,
        ifindex: u32,
        ns: usize,
        frame: Vec<u8>,
        core: usize,
        depth: usize,
    ) -> RxOutcome {
        // Container socket receive + application + send run in the host
        // kernel (softirq/syscall); modelled as one stack traversal each
        // way, plus the socket copy which scales with frame size.
        let c = self.sim.costs.kernel_tcp_segment_ns + self.sim.costs.copy_ns(frame.len());
        self.charge_softirq(core, c);
        let reply = self.namespaces[ns].handle_frame(&frame);
        if let Some(r) = reply {
            let c = self.sim.costs.kernel_tcp_segment_ns + self.sim.costs.copy_ns(r.len());
            self.charge_softirq(core, c);
            self.transmit_at(ifindex, r, core, depth + 1);
        }
        RxOutcome::ToNamespace
    }

    // ------------------------------------------------------------------
    // TX path
    // ------------------------------------------------------------------

    /// Transmit a frame out a device, charging the given core.
    pub fn transmit(&mut self, ifindex: u32, frame: Vec<u8>, core: usize) {
        self.transmit_at(ifindex, frame, core, 0)
    }

    fn transmit_at(&mut self, ifindex: u32, frame: Vec<u8>, core: usize, depth: usize) {
        if depth > MAX_HOPS {
            return;
        }
        // Carrier down: the driver drops at the qdisc/ring boundary, with
        // a counter. Virtual devices keep working (their "link" is code).
        {
            let d = self.dev_mut(ifindex);
            if !d.up && matches!(d.kind, DeviceKind::Phys { .. }) {
                d.stats.tx_dropped += 1;
                coverage!("netdev_tx_carrier_down");
                return;
            }
        }
        self.capture(ifindex, &frame);
        let kind = {
            let d = self.dev_mut(ifindex);
            d.stats.tx_packets += 1;
            d.stats.tx_bytes += frame.len() as u64;
            d.kind.clone()
        };
        match kind {
            DeviceKind::Phys { .. } => {
                let c = self.sim.costs.driver_tx_ns;
                self.charge_softirq(core, c);
                self.dev_mut(ifindex).tx_wire.push_back(frame);
            }
            DeviceKind::Tap => {
                let c = self.sim.costs.tap_kernel_ns;
                self.charge_softirq(core, c);
                self.dev_mut(ifindex).fd_queue.push_back(frame);
            }
            DeviceKind::Veth { peer } => {
                let c = self.sim.costs.veth_xmit_ns;
                self.charge_softirq(core, c);
                self.receive_inner(peer, 0, frame, depth + 1);
            }
            DeviceKind::Loopback => {
                self.stack_deliver(ifindex, frame, core, depth);
            }
        }
    }

    // ------------------------------------------------------------------
    // Host stack
    // ------------------------------------------------------------------

    /// Deliver a frame to the host TCP/IP stack: answers ARP and ICMP
    /// echo aimed at local addresses, delivers UDP to bound sockets, and
    /// parks everything else in the device's `stack_rx`.
    fn stack_deliver(&mut self, ifindex: u32, frame: Vec<u8>, core: usize, depth: usize) {
        let c = self.sim.costs.kernel_tcp_segment_ns;
        self.charge_softirq(core, c);
        self.bump("IpInReceives");

        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.dev_mut(ifindex).stack_rx.push_back(frame);
            return;
        };
        match eth.ethertype() {
            EtherType::Arp => {
                if let Ok(a) = arp::ArpPacket::new_checked(eth.payload()) {
                    if a.oper() == arp::op::REQUEST && self.is_local_ip(a.target_ip()) {
                        self.bump("ArpInRequests");
                        // Learn the asker and reply.
                        self.neighbors.add(Neighbor {
                            ip: a.sender_ip(),
                            mac: a.sender_mac(),
                            ifindex,
                            state: NeighState::Reachable,
                        });
                        let my_mac = self.device(ifindex).mac;
                        let reply = builder::arp_frame(
                            my_mac,
                            a.sender_mac(),
                            arp::op::REPLY,
                            my_mac,
                            a.target_ip(),
                            a.sender_mac(),
                            a.sender_ip(),
                        );
                        self.bump("ArpOutReplies");
                        self.transmit_at(ifindex, reply, core, depth + 1);
                        return;
                    }
                }
                self.dev_mut(ifindex).stack_rx.push_back(frame);
            }
            EtherType::Ipv4 => {
                let Ok(ip) = ipv4::Ipv4Packet::new_checked(eth.payload()) else {
                    self.bump("IpInHdrErrors");
                    return;
                };
                if !self.is_local_ip(ip.dst()) {
                    // Not for us; no IP forwarding in the host model.
                    self.dev_mut(ifindex).stack_rx.push_back(frame);
                    return;
                }
                match ip.protocol() {
                    ipv4::protocol::ICMP => {
                        self.bump("IcmpInMsgs");
                        if let Ok(ic) = icmp::IcmpPacket::new_checked(ip.payload()) {
                            if ic.msg_type() == icmp::msg_type::ECHO_REQUEST {
                                self.bump("IcmpInEchos");
                                if let Some(reply) = reflect_frame(&frame) {
                                    self.bump("IcmpOutEchoReps");
                                    self.transmit_at(ifindex, reply, core, depth + 1);
                                    return;
                                }
                            }
                        }
                        self.dev_mut(ifindex).stack_rx.push_back(frame);
                    }
                    ipv4::protocol::UDP => {
                        self.bump("UdpInDatagrams");
                        if let Ok(u) = udp::UdpDatagram::new_checked(ip.payload()) {
                            let key = (ip.dst(), u.dst_port());
                            if let Some(q) = self.udp_sockets.get_mut(&key) {
                                q.push_back(frame);
                                return;
                            }
                            self.bump("UdpNoPorts");
                        }
                        self.dev_mut(ifindex).stack_rx.push_back(frame);
                    }
                    _ => {
                        self.dev_mut(ifindex).stack_rx.push_back(frame);
                    }
                }
            }
            _ => {
                self.dev_mut(ifindex).stack_rx.push_back(frame);
            }
        }
    }

    /// Bind a UDP socket (tools and test endpoints).
    pub fn udp_bind(&mut self, ip: [u8; 4], port: u16) {
        self.udp_sockets.insert((ip, port), VecDeque::new());
    }

    // ------------------------------------------------------------------
    // Tap fd side (userspace OVS / QEMU)
    // ------------------------------------------------------------------

    /// OVS-userspace access to a tap/veth **kernel** side via a raw
    /// (AF_PACKET) socket, as `netdev-linux` does: read frames the kernel
    /// side received (e.g. what vhost-net injected for a VM).
    pub fn raw_socket_recv(&mut self, ifindex: u32, caller_core: usize) -> Option<Vec<u8>> {
        let f = self.dev_mut(ifindex).stack_rx.pop_front()?;
        let c = self.sim.costs.syscall_light_ns + self.sim.costs.copy_ns(f.len());
        self.sim.charge(caller_core, Context::System, c);
        Some(f)
    }

    /// OVS-userspace send onto a device's kernel side via a raw socket:
    /// the 2 µs `sendto` of §3.3, then normal kernel-side transmission
    /// (for a tap, delivery to the fd reader — the VM's vhost backend).
    pub fn raw_socket_send(&mut self, ifindex: u32, frame: Vec<u8>, caller_core: usize) {
        let c = self.sim.costs.syscall_sendto_ns + self.sim.costs.copy_ns(frame.len());
        self.sim.charge(caller_core, Context::System, c);
        self.transmit_at(ifindex, frame, caller_core, 0)
    }

    /// Userspace writes one frame into a tap fd — the 2 µs `sendto` the
    /// paper measured (§3.3). The frame then enters the kernel as if
    /// received on the tap device.
    pub fn tap_fd_write(&mut self, ifindex: u32, frame: Vec<u8>, caller_core: usize) -> RxOutcome {
        let c = self.sim.costs.syscall_sendto_ns;
        self.sim.charge(caller_core, Context::System, c);
        self.receive_inner(ifindex, 0, frame, 0)
    }

    // ------------------------------------------------------------------
    // Guests
    // ------------------------------------------------------------------

    /// Service a vhost-net guest: move tap frames into the guest, run the
    /// guest app, and inject its output back through the tap. Returns
    /// the total packets moved (tap→guest, guest app, guest→kernel).
    pub fn vhost_net_service(&mut self, guest_idx: usize) -> usize {
        let VirtioBackend::VhostNet { tap_ifindex } = self.guests[guest_idx].backend else {
            return self.run_guest(guest_idx);
        };
        // vhost-net kthread: tap fd -> guest rx ring.
        let mut moved = 0;
        while let Some(f) = self.dev_mut(tap_ifindex).fd_queue.pop_front() {
            let c = self.sim.costs.vhost_net_ns + self.sim.costs.copy_ns(f.len());
            let core = self.config.host_stack_core;
            self.charge_softirq(core, c);
            self.guests[guest_idx].rx_ring.push_back(f);
            moved += 1;
        }
        moved += self.run_guest(guest_idx);
        // Guest output: vhost-net injects into the kernel via the tap.
        while let Some(f) = self.guests[guest_idx].tx_ring.pop_front() {
            let c = self.sim.costs.vhost_net_ns + self.sim.costs.copy_ns(f.len());
            let core = self.config.host_stack_core;
            self.charge_softirq(core, c);
            self.receive_inner(tap_ifindex, 0, f, 0);
            moved += 1;
        }
        moved
    }

    /// Run a guest's application over its RX ring, charging guest time.
    /// (For vhostuser guests the switch moves the frames; this only runs
    /// the app.)
    pub fn run_guest(&mut self, guest_idx: usize) -> usize {
        let (core, role, pending) = {
            let g = &self.guests[guest_idx];
            (g.core, g.role, g.rx_ring.len())
        };
        let per_pkt = match role {
            GuestRole::PmdForwarder => self.sim.costs.guest_pmd_fwd_ns,
            GuestRole::Echo | GuestRole::Sink => self.sim.costs.guest_tcp_segment_ns,
        };
        let processed = self.guests[guest_idx].run();
        debug_assert_eq!(processed, pending);
        self.sim
            .charge(core, Context::Guest, per_pkt * processed as f64);
        processed
    }

    /// Execute a datapath action list on a packet (the userspace side of
    /// `OVS_PACKET_CMD_EXECUTE`, used after an upcall). Charges datapath
    /// work to `core` in softirq context and applies the resulting
    /// verdicts.
    pub fn ovs_execute(
        &mut self,
        pkt: ovs_packet::DpPacket,
        actions: &[crate::ovs_module::KAction],
        core: usize,
    ) {
        let dev_macs = self.dev_macs();
        let now = self.sim.clock.now_ns();
        let (lookups0, enc0, dec0, ct0) = (
            self.ovs.stats.lookups,
            self.ovs.stats.tunnel_encaps,
            self.ovs.stats.tunnel_decaps,
            self.conntrack.stats.ops,
        );
        let verdicts = {
            let mut env = DpEnv {
                routes: &self.routes,
                neighbors: &self.neighbors,
                conntrack: &mut self.conntrack,
                dev_macs: &dev_macs,
                now_ns: now,
            };
            self.ovs.execute(pkt, actions, &mut env)
        };
        let c = (self.ovs.stats.lookups - lookups0) as f64 * self.sim.costs.kernel_ovs_flow_ns
            + (self.ovs.stats.tunnel_encaps - enc0 + self.ovs.stats.tunnel_decaps - dec0) as f64
                * self.sim.costs.kernel_tunnel_ns
            + (self.conntrack.stats.ops - ct0) as f64 * self.sim.costs.kernel_conntrack_ns;
        self.charge_softirq(core, c);
        for v in verdicts {
            match v {
                DpVerdict::Emit { ifindex, frame } => self.transmit_at(ifindex, frame, core, 1),
                DpVerdict::ToHost { frame } => {
                    let ifindex = 1;
                    self.stack_deliver(ifindex, frame, core, 1);
                }
                DpVerdict::Upcall(u) => {
                    if self.upcalls.len() < MAX_UPCALLS {
                        self.upcalls.push_back(u);
                    } else {
                        self.upcall_drops += 1;
                        coverage!("upcall_queue_full");
                    }
                }
                DpVerdict::Drop => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Userspace poll-mode driver access (DPDK-style)
    // ------------------------------------------------------------------

    /// PMD RX: poll one frame off a userspace-owned device's queue. The
    /// NIC DMAs straight into the driver's memory, so no kernel cost.
    pub fn user_rx_pop(&mut self, ifindex: u32, queue: usize) -> Option<Vec<u8>> {
        let d = self.dev_mut(ifindex);
        let q = queue % d.user_rx.len();
        d.user_rx[q].pop_front()
    }

    /// PMD TX: place a frame on the wire of a userspace-owned device
    /// directly (no kernel involvement).
    pub fn user_tx(&mut self, ifindex: u32, frame: Vec<u8>) {
        let d = self.dev_mut(ifindex);
        d.stats.tx_packets += 1;
        d.stats.tx_bytes += frame.len() as u64;
        d.tx_wire.push_back(frame);
    }

    // ------------------------------------------------------------------
    // vhostuser (shared-memory virtio rings, path B in Fig 5)
    // ------------------------------------------------------------------

    /// Switch → guest: enqueue a frame on a vhostuser guest's RX ring.
    /// Charges the ring work and copy as user time on the caller's core
    /// and the guest-notify eventfd kick as system time. Returns `false`
    /// (accepting nothing, charging nothing) when the guest's vhost
    /// backend is disconnected — the caller drops with a counter.
    pub fn vhostuser_push(&mut self, guest_idx: usize, frame: Vec<u8>, core: usize) -> bool {
        if !self.guests[guest_idx].connected {
            return false;
        }
        let c = self.sim.costs.vhostuser_ring_ns + self.sim.costs.copy_ns(frame.len());
        self.sim.charge(core, Context::User, c);
        let kick = self.sim.costs.vhost_kick_ns;
        self.sim.charge(core, Context::System, kick);
        self.guests[guest_idx].rx_ring.push_back(frame);
        true
    }

    /// Guest → switch: dequeue a frame from a vhostuser guest's TX ring.
    /// A disconnected guest's rings are unmapped: nothing to pop.
    pub fn vhostuser_pop(&mut self, guest_idx: usize, core: usize) -> Option<Vec<u8>> {
        if !self.guests[guest_idx].connected {
            return None;
        }
        let f = self.guests[guest_idx].tx_ring.pop_front()?;
        let c = self.sim.costs.vhostuser_ring_ns + self.sim.costs.copy_ns(f.len());
        self.sim.charge(core, Context::User, c);
        Some(f)
    }

    /// The vhost backend of guest `guest_idx` went away (QEMU crash or
    /// restart): unmap the shared rings, flushing whatever sat on them.
    /// Flushed frames are counted — a disconnect loses packets, but
    /// never *silently*.
    pub fn vhost_disconnect(&mut self, guest_idx: usize) {
        let g = &mut self.guests[guest_idx];
        if !g.connected {
            return;
        }
        g.connected = false;
        let flushed = (g.rx_ring.len() + g.tx_ring.len()) as u64;
        g.rx_ring.clear();
        g.tx_ring.clear();
        self.vhost_flushed += flushed;
        coverage!("vhost_disconnect");
        if flushed > 0 {
            coverage!("vhost_ring_flushed", flushed);
        }
    }

    /// The guest's vhost backend came back: renegotiate (fresh, empty
    /// rings, bumped generation) and resume forwarding.
    pub fn vhost_reconnect(&mut self, guest_idx: usize) {
        let g = &mut self.guests[guest_idx];
        if g.connected {
            return;
        }
        g.connected = true;
        g.ring_generation += 1;
        coverage!("vhost_reconnect");
    }

    // ------------------------------------------------------------------
    // AF_XDP TX (kernel side)
    // ------------------------------------------------------------------

    /// Drain an XSK TX ring and transmit the frames on the bound device.
    /// Driver TX work is charged to the device's softirq core. Returns
    /// the number of packets sent.
    pub fn xsk_tx_drain(&mut self, xsk_id: u32, budget: usize) -> usize {
        let h = self.xsk(xsk_id);
        let (ifindex, queue) = {
            let b = h.borrow();
            // Lost `need_wakeup` kick: the kernel never saw the doorbell,
            // so the ring backlog sits untouched (delayed, not dropped)
            // until the recovery kick clears the stall.
            if b.kick_lost {
                coverage!("xsk_tx_kick_lost");
                return 0;
            }
            (b.ifindex, b.queue)
        };
        let core = self.softirq_core(ifindex, queue);
        let mut n = 0;
        while n < budget {
            // The binding is released before each transmit: delivery may
            // loop back into an XSK.
            let Some(f) = h.borrow_mut().pop_tx() else {
                break;
            };
            self.transmit_at(ifindex, f, core, 0);
            n += 1;
        }
        n
    }

    // ------------------------------------------------------------------
    // Fault injection (the apply side of `ovs_sim::faults`)
    // ------------------------------------------------------------------

    /// Set link carrier, counting transitions (`carrier_transitions`,
    /// as `ip -s link` reports).
    pub fn set_carrier(&mut self, ifindex: u32, up: bool) {
        let d = self.dev_mut(ifindex);
        if d.up == up {
            return;
        }
        d.up = up;
        d.stats.carrier_transitions += 1;
        if !up {
            coverage!("netdev_carrier_down");
        }
    }

    /// Mark every XSK bound to `ifindex` as having lost (or regained)
    /// its tx `need_wakeup` kick.
    pub fn set_xsk_kick_lost(&mut self, ifindex: u32, lost: bool) {
        for h in &self.xsks {
            let mut b = h.borrow_mut();
            if b.ifindex == ifindex {
                b.kick_lost = lost;
            }
        }
    }

    /// Recovery kick after an rx-ring stall clears: drain the whole tx
    /// backlog of every XSK on `ifindex` (the periodic wakeup a real PMD
    /// issues when completions stop arriving).
    pub fn xsk_recovery_kick(&mut self, ifindex: u32) {
        let ids: Vec<u32> = (0..self.xsks.len() as u32)
            .filter(|id| self.xsks[*id as usize].borrow().ifindex == ifindex)
            .collect();
        for id in ids {
            while self.xsk_tx_drain(id, 64) > 0 {}
        }
    }

    /// Advance the fault schedule to the current virtual time and apply
    /// kernel-side effects: carrier flaps, vhost disconnect/reconnect,
    /// and tx-kick stalls. Attach rejection, umem exhaustion, and the
    /// datapath panic are level faults consumed where they bite
    /// (`attach_xdp`, the AF_XDP socket, the health supervisor).
    pub fn fault_tick(&mut self) {
        let now = self.sim.clock.now_ns();
        let tr = self.sim.faults.tick(now);
        self.apply_fault_transitions(&tr);
    }

    /// Inject one fault immediately (the `fault/inject` appctl path) and
    /// apply its kernel-side effects.
    pub fn inject_fault(&mut self, kind: FaultKind, target: u32, arg: u32, duration_ns: u64) {
        let now = self.sim.clock.now_ns();
        let tr = self.sim.faults.inject(now, kind, target, arg, duration_ns);
        self.apply_fault_transitions(&tr);
    }

    fn apply_fault_transitions(&mut self, tr: &ovs_sim::FaultTransitions) {
        for ev in &tr.fired {
            match ev.kind {
                FaultKind::CarrierFlap => self.set_carrier(ev.target, false),
                FaultKind::VhostDisconnect if (ev.target as usize) < self.guests.len() => {
                    self.vhost_disconnect(ev.target as usize);
                }
                FaultKind::VhostReconnect if (ev.target as usize) < self.guests.len() => {
                    self.vhost_reconnect(ev.target as usize);
                }
                FaultKind::RxRingStall => self.set_xsk_kick_lost(ev.target, true),
                _ => {}
            }
        }
        for (kind, target, _arg) in &tr.cleared {
            match kind {
                FaultKind::CarrierFlap => self.set_carrier(*target, true),
                FaultKind::VhostDisconnect if (*target as usize) < self.guests.len() => {
                    self.vhost_reconnect(*target as usize);
                }
                FaultKind::RxRingStall => {
                    self.set_xsk_kick_lost(*target, false);
                    self.xsk_recovery_kick(*target);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ovs_module::{KAction, Vport};
    use crate::xsk::XskBinding;
    use ovs_ebpf::maps::{Map, XskMap};
    use ovs_packet::flow::{fields, FlowKey, FlowMask};
    use ovs_ring::Desc;

    const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const M2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    fn phys(k: &mut Kernel, name: &str, mac: MacAddr) -> u32 {
        k.add_device(NetDevice::new(
            name,
            mac,
            DeviceKind::Phys { link_gbps: 10.0 },
            4,
        ))
    }

    fn udp64() -> Vec<u8> {
        builder::udp_ipv4_frame(M1, M2, [10, 0, 0, 1], [10, 0, 0, 2], 100, 200, 64)
    }

    #[test]
    fn user_owned_device_queues_for_pmd() {
        let mut k = Kernel::new(4);
        let eth0 = phys(&mut k, "eth0", M1);
        k.take_device(eth0, "dpdk");
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::UserOwned);
        assert_eq!(k.device(eth0).user_rx[0].len(), 1);
        assert!(
            k.device_by_name("eth0").is_none(),
            "invisible to the kernel"
        );
        assert!(k.device_by_name_any("eth0").is_some());
        k.release_device(eth0);
        assert!(k.device_by_name("eth0").is_some());
    }

    #[test]
    fn xdp_drop_counts_and_charges_softirq() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::task_a_drop(),
            XdpMode::Native,
            None,
        )
        .unwrap();
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::XdpDrop);
        assert_eq!(k.device(eth0).stats.xdp_drop, 1);
        assert!(k.sim.cpus.core(0).ns(Context::Softirq) > 0.0);
        assert_eq!(k.sim.cpus.core(0).ns(Context::User), 0.0);
    }

    #[test]
    fn xdp_tx_bounces_out_same_nic() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::task_d_swap_fwd(),
            XdpMode::Native,
            None,
        )
        .unwrap();
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::XdpTx);
        let out = k.dev_mut(eth0).tx_wire.pop_front().unwrap();
        assert_eq!(&out[0..6], M1.as_bytes(), "MACs swapped by the program");
    }

    #[test]
    fn xdp_redirect_to_xsk_delivers_frame() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        let h = XskBinding::new(eth0, 0, 16, 2048, true).into_handle();
        for i in 0..8 {
            h.borrow()
                .umem
                .fill
                .push(Desc { frame: i, len: 0 })
                .unwrap();
        }
        let xsk_id = k.register_xsk(std::rc::Rc::clone(&h));
        let mut xmap = XskMap::new(4);
        xmap.set(0, xsk_id).unwrap();
        let fd = k.maps.add(Map::Xsk(xmap));
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::ovs_xsk_redirect(fd),
            XdpMode::Native,
            None,
        )
        .unwrap();

        let f = udp64();
        assert_eq!(k.receive(eth0, 0, f.clone()), RxOutcome::ToXsk(xsk_id));
        let b = h.borrow();
        let d = b.rx.pop().unwrap();
        assert_eq!(&b.umem.frame(d.frame)[..d.len as usize], &f[..]);
    }

    #[test]
    fn xsk_backpressure_drops_when_fill_empty() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        let h = XskBinding::new(eth0, 0, 4, 2048, true).into_handle();
        let xsk_id = k.register_xsk(std::rc::Rc::clone(&h));
        let mut xmap = XskMap::new(4);
        xmap.set(0, xsk_id).unwrap();
        let fd = k.maps.add(Map::Xsk(xmap));
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::ovs_xsk_redirect(fd),
            XdpMode::Native,
            None,
        )
        .unwrap();
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::XskDropped(xsk_id));
        assert_eq!(h.borrow().stats.rx_dropped, 1);
    }

    #[test]
    fn bridge_forwards_via_kernel_module() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        let eth1 = phys(&mut k, "eth1", M2);
        let p0 = k.ovs.add_vport(Vport::Netdev { ifindex: eth0 });
        let p1 = k.ovs.add_vport(Vport::Netdev { ifindex: eth1 });
        k.dev_mut(eth0).attachment = Attachment::OvsBridge { port: p0 };
        k.dev_mut(eth1).attachment = Attachment::OvsBridge { port: p1 };
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        k.ovs.install_flow(
            &key,
            &FlowMask::of_fields(&[&fields::IN_PORT]),
            vec![KAction::Output(p1)],
        );
        let f = udp64();
        assert_eq!(k.receive(eth0, 0, f.clone()), RxOutcome::Bridged);
        assert_eq!(k.dev_mut(eth1).tx_wire.pop_front().unwrap(), f);
    }

    #[test]
    fn bridge_miss_upcalls() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        let p0 = k.ovs.add_vport(Vport::Netdev { ifindex: eth0 });
        k.dev_mut(eth0).attachment = Attachment::OvsBridge { port: p0 };
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::Upcalled);
        assert_eq!(k.upcalls.len(), 1);
        assert_eq!(k.upcalls[0].in_port, p0);
    }

    #[test]
    fn container_echo_roundtrip_over_veth() {
        let mut k = Kernel::new(2);
        let (host_if, _inner_if, _ns) =
            k.add_container("c0", [10, 0, 0, 2], M2, ContainerRole::Echo);
        // Send a frame into the container by transmitting on the host end.
        let f = builder::udp_ipv4(M1, M2, [10, 0, 0, 1], [10, 0, 0, 2], 7, 8, b"req");
        k.transmit(host_if, f, 0);
        // The echo reply comes back out of the host veth end's stack_rx
        // (nothing else is attached there).
        let ns = &k.namespaces[0];
        assert_eq!(ns.rx_count, 1);
        let host_dev = k.device(host_if);
        assert_eq!(host_dev.stack_rx.len(), 1);
        let reply = &host_dev.stack_rx[0];
        let ip = ipv4::Ipv4Packet::new_checked(&reply[14..]).unwrap();
        assert_eq!(ip.src(), [10, 0, 0, 2]);
        assert_eq!(ip.dst(), [10, 0, 0, 1]);
    }

    #[test]
    fn icmp_echo_responder() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.add_addr(eth0, [192, 168, 1, 1], 24);
        let req = builder::icmp_echo(M2, M1, [192, 168, 1, 2], [192, 168, 1, 1], false, 1, 1);
        assert_eq!(k.receive(eth0, 0, req), RxOutcome::ToHost);
        let reply = k
            .dev_mut(eth0)
            .tx_wire
            .pop_front()
            .expect("echo reply sent");
        let ip = ipv4::Ipv4Packet::new_checked(&reply[14..]).unwrap();
        assert_eq!(ip.dst(), [192, 168, 1, 2]);
        assert_eq!(k.nstat["IcmpInEchos"], 1);
        assert_eq!(k.nstat["IcmpOutEchoReps"], 1);
    }

    #[test]
    fn arp_responder_learns_and_replies() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.add_addr(eth0, [192, 168, 1, 1], 24);
        let req = builder::arp_frame(
            M2,
            MacAddr::BROADCAST,
            arp::op::REQUEST,
            M2,
            [192, 168, 1, 2],
            MacAddr::ZERO,
            [192, 168, 1, 1],
        );
        k.receive(eth0, 0, req);
        let reply = k.dev_mut(eth0).tx_wire.pop_front().expect("arp reply");
        let a = arp::ArpPacket::new_checked(&reply[14..]).unwrap();
        assert_eq!(a.oper(), arp::op::REPLY);
        assert_eq!(a.sender_ip(), [192, 168, 1, 1]);
        // And the asker was learned.
        assert_eq!(k.neighbors.lookup([192, 168, 1, 2]).unwrap().mac, M2);
    }

    #[test]
    fn udp_socket_delivery() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.add_addr(eth0, [10, 0, 0, 2], 24);
        k.udp_bind([10, 0, 0, 2], 200);
        k.receive(eth0, 0, udp64());
        assert_eq!(k.udp_sockets[&([10, 0, 0, 2], 200)].len(), 1);
        assert_eq!(k.nstat["UdpInDatagrams"], 1);
    }

    #[test]
    fn tap_fd_write_charges_sendto_as_system_time() {
        let mut k = Kernel::new(4);
        let tap = k.add_device(NetDevice::new("tap0", M2, DeviceKind::Tap, 1));
        k.tap_fd_write(tap, udp64(), 3);
        let sys = k.sim.cpus.core(3).ns(Context::System);
        assert_eq!(sys, k.sim.costs.syscall_sendto_ns);
    }

    #[test]
    fn vhost_net_guest_forwarder_roundtrip() {
        let mut k = Kernel::new(4);
        let tap = k.add_device(NetDevice::new("tap0", M2, DeviceKind::Tap, 1));
        let g = k.add_guest(Guest::new(
            "vm0",
            M2,
            [10, 0, 0, 2],
            GuestRole::PmdForwarder,
            VirtioBackend::VhostNet { tap_ifindex: tap },
            2,
        ));
        // A frame addressed to the VM lands on the tap (e.g. from OVS).
        k.transmit(tap, udp64(), 0);
        assert_eq!(k.device(tap).fd_queue.len(), 1);
        let n = k.vhost_net_service(g);
        assert_eq!(n, 3, "tap->guest, guest app, guest->kernel");
        assert!(
            k.sim.cpus.core(2).ns(Context::Guest) > 0.0,
            "guest time charged"
        );
        // The forwarded frame re-entered the kernel through the tap and,
        // with no bridge attached, landed in the tap's stack path.
        assert_eq!(k.guests[g].rx_count, 1);
    }

    #[test]
    fn per_queue_attach_requires_capability() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.dev_mut(eth0).caps.per_queue_xdp = false; // Intel model
        let err = k
            .attach_xdp(
                eth0,
                ovs_ebpf::programs::task_a_drop(),
                XdpMode::Native,
                Some(vec![1]),
            )
            .unwrap_err();
        assert!(err.contains("whole-device"));
        // Whole-device attach works.
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::task_a_drop(),
            XdpMode::Native,
            None,
        )
        .unwrap();
    }

    #[test]
    fn per_queue_attach_only_covers_selected_queues() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.attach_xdp(
            eth0,
            ovs_ebpf::programs::task_a_drop(),
            XdpMode::Native,
            Some(vec![2, 3]),
        )
        .unwrap();
        assert_eq!(k.receive(eth0, 2, udp64()), RxOutcome::XdpDrop);
        // Queue 0 bypasses the program and goes to the stack.
        assert_eq!(k.receive(eth0, 0, udp64()), RxOutcome::ToHost);
    }

    #[test]
    fn native_xdp_requires_driver_support() {
        let mut k = Kernel::new(2);
        let tap = k.add_device(NetDevice::new("tap0", M2, DeviceKind::Tap, 1));
        let err = k
            .attach_xdp(
                tap,
                ovs_ebpf::programs::task_a_drop(),
                XdpMode::Native,
                None,
            )
            .unwrap_err();
        assert!(err.contains("native XDP"));
        k.attach_xdp(
            tap,
            ovs_ebpf::programs::task_a_drop(),
            XdpMode::Generic,
            None,
        )
        .unwrap();
    }

    #[test]
    fn capture_sees_rx_and_tx() {
        let mut k = Kernel::new(2);
        let eth0 = phys(&mut k, "eth0", M1);
        k.add_addr(eth0, [192, 168, 1, 1], 24);
        k.capture_start(eth0);
        let req = builder::icmp_echo(M2, M1, [192, 168, 1, 2], [192, 168, 1, 1], false, 1, 1);
        k.receive(eth0, 0, req);
        let cap = k.capture_stop(eth0);
        assert_eq!(cap.len(), 2, "request and reply both captured");
    }

    #[test]
    fn rss_spreads_charges_across_cores() {
        let mut k = Kernel::new(4);
        k.config.rss_cores = vec![0, 1, 2, 3];
        let eth0 = phys(&mut k, "eth0", M1);
        for q in 0..4 {
            k.receive(eth0, q, udp64());
        }
        for c in 0..4 {
            assert!(
                k.sim.cpus.core(c).ns(Context::Softirq) > 0.0,
                "core {c} idle"
            );
        }
    }
}
