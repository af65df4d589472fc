//! The datapath interface layer.
//!
//! [`DpifNetdev`] is the paper's userspace datapath: PMD-style polling
//! over AF_XDP / DPDK / tap / vhostuser ports, the EMC → SMC → megaflow
//! → upcall cache hierarchy, userspace conntrack, tunnelling via the
//! Netlink replica, meters, and software TSO fallback.
//!
//! The receive path is OVS's two-phase burst pipeline: `dfc_processing`
//! runs the datapath flow cache (EMC, then the optional signature match
//! cache) over the whole rx burst and sorts hits into per-megaflow
//! batches; `fast_path_processing` resolves the misses through the
//! megaflow classifier and the upcall slow path; then each batch's
//! actions execute once per batch and transmitted packets leave as real
//! per-port bursts — the per-batch amortization the paper's Fig 6/7
//! throughput depends on.
//!
//! [`DpifNetlink`] drives the in-kernel datapath module instead — the
//! baseline architecture: it consumes kernel upcalls, translates through
//! the same `ofproto`, and installs megaflows into the kernel.

use crate::cache::{Emc, MegaflowCache, MegaflowEntry, Smc};
use crate::meter::MeterSet;
use crate::mirror::MirrorSession;
use crate::ofproto::Ofproto;
use crate::revalidator::{
    DumpedFlow, Revalidator, Sweep, SweepSummary, Ufid, UfidMap, Ukey, Verdict,
};
use crate::snapshot::{DpSnapshot, FlowRecord, RestoreState, SNAPSHOT_VERSION};
use crate::tso;
use crate::tunnel::{self, TunnelConfig};
use ovs_afxdp::AfxdpPort;
use ovs_ct::{ConnKey, CtAction, CtPacket, CtTable, CtVerdict};
use ovs_dpdk::{AfPacketDev, EthDev, VhostUserDev};
pub use ovs_kernel::action::{DpAction, PortNo};
use ovs_kernel::ovs_module::MAX_RECIRC;
use ovs_kernel::rtnetlink::RtnlCache;
use ovs_kernel::Kernel;
use ovs_obs::latency::LatencySummary;
use ovs_obs::perf::STAGES;
use ovs_obs::{coverage, LatencyTracker, PmdPerf, Stage, StageTimer, TraceCtx};
use ovs_packet::flow::{extract_miniflow, FlowKey, FlowMask, Miniflow, WORDS};
use ovs_packet::DpPacket;
use ovs_ring::{DpPacketPool, PacketBatch};
use ovs_sim::Context;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The PMD's virtual time: the global sim clock plus the polling core's
/// accumulated busy time. The clock only moves between rounds and the
/// core meter only moves within them, so the sum is monotone along one
/// packet's rx→tx life (which never leaves its burst's poll call) —
/// the timestamp domain for per-packet latency.
fn pmd_now_ns(kernel: &Kernel, core: usize) -> u64 {
    kernel
        .sim
        .clock
        .now_ns()
        .saturating_add(kernel.sim.cpus.core_ns(core))
}

/// A packet's conntrack input for `ct(zone=zone)`: its 5-tuple and its
/// TCP flags, both read through the descriptor's parse.
fn ct_packet(pkt: &mut DpPacket, zone: u16) -> CtPacket {
    let parse = *pkt.parse();
    CtPacket {
        key: ConnKey::from_parse(zone, &parse),
        tcp_flags: parse.tcp_flags(pkt.data()),
    }
}

/// One line of `ofproto/trace` flow description, straight off the
/// sparse key — tracing does not expand a full `FlowKey` either.
fn describe_key(key: &Miniflow) -> String {
    let s = key.nw_src_v4();
    let d = key.nw_dst_v4();
    let mut out = format!(
        "in_port={},eth_type=0x{:04x}",
        key.in_port(),
        key.eth_type_raw()
    );
    if s != [0, 0, 0, 0] || d != [0, 0, 0, 0] {
        out.push_str(&format!(
            ",nw_src={}.{}.{}.{},nw_dst={}.{}.{}.{},nw_proto={},tp_src={},tp_dst={}",
            s[0],
            s[1],
            s[2],
            s[3],
            d[0],
            d[1],
            d[2],
            d[3],
            key.nw_proto(),
            key.tp_src(),
            key.tp_dst()
        ));
    }
    if key.tun_id() != 0 {
        out.push_str(&format!(",tun_id={}", key.tun_id()));
    }
    if key.recirc_id() != 0 {
        out.push_str(&format!(",recirc_id=0x{:x}", key.recirc_id()));
    }
    if key.ct_state() != 0 {
        out.push_str(&format!(",ct_state=0x{:02x}", key.ct_state()));
    }
    out
}

/// The `used:` column of a `dpctl/dump-flows` line: `never` for a flow
/// that has not forwarded a packet, otherwise the age of the last use in
/// seconds — OVS's format.
fn format_used(now_ns: u64, used_ns: u64, hits: u64) -> String {
    if hits == 0 {
        "never".to_string()
    } else {
        format!("{:.3}s", now_ns.saturating_sub(used_ns) as f64 / 1e9)
    }
}

/// Aggregate shape statistics over the sparse keys the fast path
/// extracts, surfaced by `dpif-netdev/miniflow-stats`: how many of the
/// [`WORDS`] slots a typical key populates (what the packed
/// representation saves), and how often the slow path had to expand a
/// full `FlowKey` (zero in a pure-hit run).
#[derive(Debug, Default, Clone)]
pub struct MiniflowStats {
    /// Sparse keys extracted by `dfc_processing`.
    pub extracts: u64,
    /// Sum of populated-slot counts across all extracts.
    pub slots_sum: u64,
    /// Histogram of populated-slot counts (index = popcount, 0..=WORDS).
    pub hist: [u64; WORDS + 1],
    /// Full-key expansions on the upcall path (`miniflow_expand`).
    pub expands: u64,
}

impl MiniflowStats {
    fn record(&mut self, mf: &Miniflow) {
        let n = mf.n_slots();
        self.extracts += 1;
        self.slots_sum += n as u64;
        self.hist[n] += 1;
    }
}

/// A shared reference to a datapath flow, as the caches hand it out.
type FlowRef = Rc<MegaflowEntry<Vec<DpAction>>>;

/// Sentinel "port" under which NF instances are scheduled on the PMD
/// scheduler: `RxqId::new(NF_WORK_PORT, nf_id)` makes each NF an
/// assignable, cycle-measured unit exactly like an rx queue, so
/// pmd-auto-lb rebalances hot NFs across cores with no scheduler
/// changes. `pmd_poll` dispatches it to [`DpifNetdev::nf_poll`].
pub const NF_WORK_PORT: PortNo = PortNo::MAX;

/// Packet room of a fresh descriptor: a 2 KB umem frame's worth.
const PKT_DATA_CAPACITY: usize = 2048;

/// A packet mid-pipeline: the frame plus how many recirculation passes
/// it has already made.
struct BurstPkt {
    pkt: DpPacket,
    pass: usize,
}

/// One per-megaflow packet batch accumulated by `dfc_processing` /
/// `fast_path_processing` and executed in one go — OVS's
/// `packet_batch_per_flow`. Packets of the same megaflow pay the batch
/// fixed cost once instead of once per packet.
struct FlowBatch {
    actions: BatchActions,
    pkts: Vec<BurstPkt>,
}

/// The per-megaflow batches of one pass, plus the emptied packet lists
/// of batches already executed, which the next batch reuses.
#[derive(Default)]
struct FlowBatches {
    live: Vec<FlowBatch>,
    spare: Vec<Vec<BurstPkt>>,
}

/// The burst-scoped vectors, kept by the datapath between bursts and
/// cleared instead of dropped, as OVS keeps its per-PMD batches: a warm
/// burst allocates none of them. A burst takes them out of the datapath
/// for its length (`std::mem::take`) and puts them back.
#[derive(Default)]
struct BurstScratch {
    /// The packets of the current pass; a pass's recirculations refill
    /// it as the next pass.
    burst: Vec<BurstPkt>,
    batches: FlowBatches,
    /// EMC/SMC misses of `dfc_processing`.
    misses: Vec<(BurstPkt, Miniflow)>,
    /// Misses the fast path's cache re-probe left for the dpcls, their
    /// keys, and the bulk lookup's verdicts.
    pending: Vec<(BurstPkt, Miniflow)>,
    keys: Vec<Miniflow>,
    results: Vec<Option<FlowRef>>,
    /// A flow batch's conntrack inputs and verdicts, when its actions
    /// start with their only `ct`.
    ct_pkts: Vec<CtPacket>,
    ct_verdicts: Vec<CtVerdict>,
    tx: TxAccum,
}

/// What a [`FlowBatch`] executes.
enum BatchActions {
    /// The actions of the megaflow the packets hit, shared, not copied.
    Flow(FlowRef),
    /// An upcall at the flow limit: one-off actions with no backing flow.
    OneOff(Vec<DpAction>),
}

impl BatchActions {
    fn as_slice(&self) -> &[DpAction] {
        match self {
            BatchActions::Flow(e) => &e.actions,
            BatchActions::OneOff(a) => a,
        }
    }
}

/// Per-egress-port accumulated output. Packets queue here during action
/// execution and leave as one real burst per port at the end of the
/// rx burst — the batched-tx half of the fast path (replacing the old
/// one-packet `tx_burst` calls).
#[derive(Default)]
struct TxAccum {
    /// Output per port, in first-output order.
    ports: Vec<(PortNo, Vec<DpPacket>)>,
    /// Emptied per-port lists of earlier flushes.
    spare: Vec<Vec<DpPacket>>,
    /// rx stamps of the frames a port's backend accepted, in order.
    delivered_ts: Vec<Option<u64>>,
    /// The AF_XDP tx chunk and its packets' rx stamps.
    batch: PacketBatch,
    batch_ts: Vec<Option<u64>>,
}

impl TxAccum {
    fn push(&mut self, port: PortNo, pkt: DpPacket) {
        match self.ports.iter_mut().find(|(p, _)| *p == port) {
            Some((_, v)) => v.push(pkt),
            None => {
                let mut v = self.spare.pop().unwrap_or_default();
                v.push(pkt);
                self.ports.push((port, v));
            }
        }
    }
}

/// The I/O backend behind a datapath port.
pub enum PortType {
    /// AF_XDP sockets on a kernel-managed NIC (the paper's design).
    Afxdp(AfxdpPort),
    /// A DPDK-owned NIC (the comparator).
    Dpdk(EthDev),
    /// A tap device (VM via vhost-net, or the control path).
    Tap { ifindex: u32 },
    /// vhostuser shared-memory rings to a guest.
    VhostUser(VhostUserDev),
    /// DPDK's af_packet vdev on a container veth.
    AfPacket(AfPacketDev),
    /// A userspace tunnel endpoint (Geneve/VXLAN).
    Tunnel(TunnelConfig),
    /// The bridge-internal port (host stack via a tap).
    Internal { tap_ifindex: u32 },
}

impl std::fmt::Debug for PortType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortType::Afxdp(p) => write!(f, "afxdp(if{})", p.ifindex),
            PortType::Dpdk(d) => write!(f, "dpdk(if{})", d.ifindex),
            PortType::Tap { ifindex } => write!(f, "tap(if{ifindex})"),
            PortType::VhostUser(v) => write!(f, "vhostuser(guest{})", v.guest),
            PortType::AfPacket(a) => write!(f, "af_packet(if{})", a.ifindex),
            PortType::Tunnel(t) => write!(f, "tunnel({:?})", t.kind),
            PortType::Internal { tap_ifindex } => write!(f, "internal(if{tap_ifindex})"),
        }
    }
}

/// A datapath port.
#[derive(Debug)]
pub struct Port {
    pub name: String,
    pub ty: PortType,
}

impl Port {
    /// The kernel ifindex underlying this port, if it has one.
    pub fn ifindex(&self) -> Option<u32> {
        match &self.ty {
            PortType::Afxdp(p) => Some(p.ifindex),
            PortType::Dpdk(d) => Some(d.ifindex),
            PortType::Tap { ifindex } => Some(*ifindex),
            PortType::AfPacket(a) => Some(a.ifindex),
            PortType::Internal { tap_ifindex } => Some(*tap_ifindex),
            PortType::VhostUser(_) | PortType::Tunnel(_) => None,
        }
    }
}

/// Datapath counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpifStats {
    pub rx_packets: u64,
    pub tx_packets: u64,
    /// Packets entering the pipeline (`process_packet` calls). Unlike
    /// `rx_packets` this also counts directly injected packets.
    pub packets_processed: u64,
    pub emc_hits: u64,
    /// Signature match cache hits (the tier between the EMC and dpcls).
    pub smc_hits: u64,
    pub megaflow_hits: u64,
    pub upcalls: u64,
    pub recirculations: u64,
    pub dropped: u64,
    pub tunnel_encaps: u64,
    pub tunnel_decaps: u64,
    pub tso_segments: u64,
    pub meter_drops: u64,
    /// Packets still recirculating after [`MAX_RECIRC`] passes.
    pub recirc_limit_drops: u64,
    /// Megaflows installed into the datapath over its lifetime.
    pub flows_installed: u64,
    /// Megaflows removed (expired, changed, evicted, or flushed).
    pub flows_deleted: u64,
    /// Upcalls that skipped installation because the datapath was at the
    /// dynamic flow limit (the packet is still forwarded).
    pub flow_limit_hits: u64,
    /// TX packets dropped because a vhostuser guest was disconnected.
    pub vhost_tx_drops: u64,
    /// TX packets dropped because an AF_XDP tx ring (or frame pool) was
    /// full at flush time.
    pub tx_full_drops: u64,
    /// Packets dropped because a ct() commit was refused by a per-zone
    /// connection limit.
    pub ct_limit_drops: u64,
    /// Packets dropped because the connection table was full and the
    /// eviction policy found no victim.
    pub ct_full_drops: u64,
    /// Packets dropped because conntrack judged them invalid (committing
    /// RST, or mid-stream TCP under strict tracking).
    pub ct_invalid_drops: u64,
    /// Megaflow misses dropped because upcalls were gated by
    /// `flow-restore-wait`: the rule table was still being repopulated
    /// after a restart, so translation would be wrong. Named, never
    /// silent — the restart-window ledger counts these.
    pub upcalls_gated: u64,
    /// Megaflow misses dropped by the `secure` fail mode during a
    /// controller outage: existing megaflows keep forwarding, new flows
    /// get the named `fail_secure_drop` verdict.
    pub fail_secure_drop: u64,
    /// Restored megaflows re-adopted by the reconciliation sweep (rule
    /// refs re-resolved, stats pushback resumed exactly).
    pub restore_adopted: u64,
    /// Restored megaflows whose re-translation no longer matches the
    /// repopulated rule table — deleted as orphans.
    pub restore_orphaned: u64,
    /// Packets dropped because an NF's SPSC ring was full at enqueue
    /// time (explicit backpressure, never silent).
    pub nf_ring_full: u64,
    /// Packets dropped by an NF's verdict (firewall deny, DPI match).
    pub nf_verdict_drops: u64,
    /// Packets lost in-flight when an NF invocation panicked.
    pub nf_crash_drops: u64,
    /// Packets refused by a dead NF under a fail-closed chain policy
    /// (also counts packets steered at a nonexistent chain id).
    pub nf_fail_closed_drops: u64,
}

impl DpifStats {
    /// Lookup accounting invariant: every pipeline pass consults exactly
    /// one cache tier, and passes are packets plus the recirculations
    /// that re-entered the pipeline. Flow lifecycle accounting must also
    /// balance — a flow cannot be deleted more than once, so deletions
    /// (expiry, eviction, flushes) never outrun installs — and every
    /// received packet enters the pipeline, so `rx_packets` never
    /// outruns `packets_processed` (direct injection only adds to the
    /// latter). The same identity must hold for per-PMD counter deltas,
    /// which is what [`crate::pmd::PmdSet::coherent_with`] checks over
    /// the scheduler's per-thread sums.
    pub fn coherent(&self) -> bool {
        // Gated and fail-secure misses consumed a pipeline pass without
        // reaching a cache tier or the upcall path — they sit on the
        // lookup side of the identity as named outcomes of a pass.
        self.emc_hits
            + self.smc_hits
            + self.megaflow_hits
            + self.upcalls
            + self.upcalls_gated
            + self.fail_secure_drop
            == self.packets_processed + self.recirculations
            && self.flows_deleted <= self.flows_installed
            && self.rx_packets <= self.packets_processed
            && self.restore_adopted + self.restore_orphaned <= self.flows_installed
    }
}

macro_rules! dpif_stats_fields {
    ($m:ident) => {
        $m!(
            rx_packets,
            tx_packets,
            packets_processed,
            emc_hits,
            smc_hits,
            megaflow_hits,
            upcalls,
            recirculations,
            dropped,
            tunnel_encaps,
            tunnel_decaps,
            tso_segments,
            meter_drops,
            recirc_limit_drops,
            flows_installed,
            flows_deleted,
            flow_limit_hits,
            vhost_tx_drops,
            tx_full_drops,
            ct_limit_drops,
            ct_full_drops,
            ct_invalid_drops,
            upcalls_gated,
            fail_secure_drop,
            restore_adopted,
            restore_orphaned,
            nf_ring_full,
            nf_verdict_drops,
            nf_crash_drops,
            nf_fail_closed_drops
        )
    };
}

impl DpifStats {
    /// Field-wise `self - before` (counters are monotonic, so this is
    /// the work done between two snapshots — the PMD scheduler uses it
    /// to attribute counter deltas to the polling thread).
    pub fn delta(&self, before: &DpifStats) -> DpifStats {
        macro_rules! sub {
            ($($f:ident),*) => {
                DpifStats { $($f: self.$f.saturating_sub(before.$f)),* }
            };
        }
        dpif_stats_fields!(sub)
    }

    /// Field-wise `self += other`.
    pub fn accumulate(&mut self, other: &DpifStats) {
        macro_rules! add {
            ($($f:ident),*) => {{
                $(self.$f += other.$f;)*
            }};
        }
        dpif_stats_fields!(add);
    }
}

/// The userspace datapath (`dpif-netdev`).
pub struct DpifNetdev {
    ports: Vec<Option<Port>>,
    emc: Emc<Vec<DpAction>>,
    smc: Smc<Vec<DpAction>>,
    /// Whether the signature match cache tier is consulted
    /// (`other_config:smc-enable` — off by default, as in OVS).
    pub smc_enable: bool,
    megaflow: MegaflowCache<Vec<DpAction>>,
    /// The OpenFlow pipeline above the caches.
    pub ofproto: Ofproto,
    /// Userspace conntrack — one of the kernel services OVS had to
    /// reimplement in userspace (§6 "Some features must be reimplemented").
    pub ct: CtTable,
    /// Meters (rate limiting).
    pub meters: MeterSet,
    /// Netlink replica of kernel route/ARP tables for tunnelling (§4).
    pub rtnl: RtnlCache,
    /// ERSPAN mirroring sessions.
    pub mirrors: Vec<MirrorSession>,
    /// Counters.
    pub stats: DpifStats,
    /// Sparse-key shape statistics (`dpif-netdev/miniflow-stats`).
    pub miniflow_stats: MiniflowStats,
    /// Per-PMD (per-core) stage cycle attribution.
    pub perf: BTreeMap<usize, PmdPerf>,
    /// Per-packet rx→tx latency accounting (per port / per PMD
    /// histograms plus the per-stage latency decomposition).
    pub latency: LatencyTracker,
    /// Active `ofproto/trace` context, attached to the packet currently
    /// in flight. `None` on the fast path — tracing costs nothing then.
    pub trace: Option<TraceCtx>,
    /// udpif revalidator state: the dynamic flow limit and sweep
    /// accounting. Each megaflow's ukey lives in its entry.
    pub revalidator: Revalidator,
    /// `flow-restore-wait` state: while `restore.wait` is set, megaflow
    /// misses are gated instead of upcalled and restored flows keep
    /// forwarding until the rule table is repopulated.
    pub restore: RestoreState,
    /// `secure` fail mode: during a controller outage, megaflow misses
    /// drop with the named `fail_secure_drop` verdict instead of being
    /// translated against a table the controller no longer owns.
    pub fail_secure: bool,
    /// The NF manager (ovs-nfv): per-tenant service chains reached via
    /// `DpAction::NfChain`. Empty by default — costs nothing until a
    /// chain is added.
    pub nfv: ovs_nfv::NfManager,
    /// Optimization O4: the one packet-descriptor pool every port
    /// receives into, bounded by the umem frames of the O4 AF_XDP ports.
    pool: DpPacketPool,
    /// What a poll receives, kept between polls.
    rx: PacketBatch,
    scratch: BurstScratch,
    /// The flows a walk over the megaflow cache condemned, deleted after
    /// the walk; kept between walks so a warm sweep allocates nothing.
    condemned: Vec<Ufid>,
}

impl Default for DpifNetdev {
    fn default() -> Self {
        Self::new()
    }
}

impl DpifNetdev {
    /// An empty datapath.
    pub fn new() -> Self {
        Self {
            ports: Vec::new(),
            emc: Emc::new(),
            smc: Smc::new(),
            smc_enable: false,
            megaflow: MegaflowCache::new(),
            ofproto: Ofproto::new(),
            ct: CtTable::new(),
            meters: MeterSet::new(),
            rtnl: RtnlCache::new(),
            mirrors: Vec::new(),
            stats: DpifStats::default(),
            miniflow_stats: MiniflowStats::default(),
            perf: BTreeMap::new(),
            latency: LatencyTracker::new(),
            trace: None,
            revalidator: Revalidator::new(),
            restore: RestoreState::default(),
            fail_secure: false,
            nfv: ovs_nfv::NfManager::new(),
            pool: DpPacketPool::new(0, PKT_DATA_CAPACITY),
            rx: PacketBatch::default(),
            scratch: BurstScratch::default(),
            condemned: Vec::new(),
        }
    }

    /// Add a port, returning its port number.
    pub fn add_port(&mut self, name: &str, ty: PortType) -> PortNo {
        self.ports.push(Some(Port {
            name: name.to_string(),
            ty,
        }));
        self.bound_pool();
        (self.ports.len() - 1) as PortNo
    }

    /// Remove a port (detaching its XDP program if AF_XDP).
    pub fn del_port(&mut self, kernel: &mut Kernel, port: PortNo) {
        if let Some(Some(p)) = self.ports.get_mut(port as usize) {
            if let PortType::Afxdp(a) = &mut p.ty {
                a.close(kernel);
            }
        }
        if let Some(slot) = self.ports.get_mut(port as usize) {
            *slot = None;
        }
        self.bound_pool();
    }

    /// Bound the descriptor pool by the umem frames of the O4 AF_XDP
    /// ports: no more descriptors than that can be in flight.
    fn bound_pool(&mut self) {
        let frames = self
            .ports
            .iter()
            .flatten()
            .map(|p| match &p.ty {
                PortType::Afxdp(a) => a.metadata_frames(),
                _ => 0,
            })
            .sum();
        self.pool.set_bound(frames);
    }

    /// The datapath's packet-descriptor pool (its reuse counters).
    pub fn packet_pool(&self) -> &DpPacketPool {
        &self.pool
    }

    /// Borrow a port.
    pub fn port(&self, port: PortNo) -> Option<&Port> {
        self.ports.get(port as usize).and_then(|p| p.as_ref())
    }

    /// Mutably borrow a port.
    pub fn port_mut(&mut self, port: PortNo) -> Option<&mut Port> {
        self.ports.get_mut(port as usize).and_then(|p| p.as_mut())
    }

    /// Port numbers of all live ports (teardown and supervision walk
    /// these; the slot indices stay stable across deletions).
    pub fn port_nos(&self) -> Vec<PortNo> {
        self.ports
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i as PortNo))
            .collect()
    }

    /// Add an AF_XDP port, walking the full degradation ladder: the port
    /// itself tries zero-copy then copy mode; if even generic attach is
    /// rejected, the final rung is a tap port on the same device — slow,
    /// but forwarding (§3.5's "always have a fallback").
    pub fn add_port_afxdp(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        ifindex: u32,
        nframes_per_queue: usize,
        opt: ovs_afxdp::OptLevel,
    ) -> PortNo {
        match AfxdpPort::open(kernel, ifindex, nframes_per_queue, opt) {
            Ok(a) => self.add_port(name, PortType::Afxdp(a)),
            Err(_) => {
                coverage!("xsk_degraded_mode");
                coverage!("xsk_port_tap_fallback");
                self.add_port(name, PortType::Tap { ifindex })
            }
        }
    }

    /// `ovs-appctl dpif-netdev/port-status`: per-port backend, AF_XDP
    /// ladder rung, carrier/flap state, and vhost connection state.
    pub fn port_status(&self, kernel: &Kernel) -> String {
        let mut out = String::from("port status:\n");
        for (i, slot) in self.ports.iter().enumerate() {
            let Some(p) = slot else { continue };
            match &p.ty {
                PortType::Afxdp(a) => {
                    let d = kernel.device(a.ifindex);
                    out.push_str(&format!(
                        "  port {i}: {} (afxdp if{}) mode {}{}, carrier {}, {} flaps\n",
                        p.name,
                        a.ifindex,
                        a.mode.label(),
                        if a.degraded { " [degraded]" } else { "" },
                        if d.up { "up" } else { "down" },
                        d.stats.carrier_transitions,
                    ));
                }
                PortType::VhostUser(v) => {
                    let g = &kernel.guests[v.guest];
                    out.push_str(&format!(
                        "  port {i}: {} (vhostuser guest {}) {}, ring generation {}, tx drops {}\n",
                        p.name,
                        v.guest,
                        if g.connected {
                            "connected"
                        } else {
                            "disconnected"
                        },
                        g.ring_generation,
                        v.tx_drops,
                    ));
                }
                other => {
                    out.push_str(&format!("  port {i}: {} ({:?})\n", p.name, other));
                }
            }
        }
        out
    }

    /// Megaflows installed.
    pub fn megaflow_count(&self) -> usize {
        self.megaflow.len()
    }

    /// Wide-lane bulk dpcls steps issued since start — each step is one
    /// lane-wide signature compare against one subtable.
    pub fn lane_steps(&self) -> u64 {
        self.megaflow.lane_steps()
    }

    /// Keys carried by those lane steps (occupancy numerator).
    pub fn lane_keys(&self) -> u64 {
        self.megaflow.lane_keys()
    }

    /// Configured bulk-probe lane width.
    pub fn lane_width(&self) -> usize {
        self.megaflow.lane_width()
    }

    /// Flush both cache levels. Every megaflow is deleted like any other,
    /// its residual stats pushed up to the OpenFlow rules first so no
    /// `n_packets` are lost.
    pub fn flush_caches(&mut self) {
        let mut condemned = std::mem::take(&mut self.condemned);
        condemned.extend(self.megaflow.iter().map(|e| e.ufid));
        self.delete_condemned(condemned);
        self.emc.flush();
        self.smc.flush();
    }

    /// Exchange the datapath's active EMC/SMC pair with a PMD thread's
    /// private pair — the scheduler wraps every poll in a swap-in /
    /// swap-out so cache locality is genuinely per PMD while the dpcls
    /// and megaflow table stay shared. The configured EMC insertion
    /// probability is authoritative on the datapath and is carried onto
    /// whichever cache is swapped in.
    pub fn swap_caches(&mut self, emc: &mut Emc<Vec<DpAction>>, smc: &mut Smc<Vec<DpAction>>) {
        let knob = self.emc.insert_inv_prob;
        std::mem::swap(&mut self.emc, emc);
        self.emc.insert_inv_prob = knob;
        std::mem::swap(&mut self.smc, smc);
    }

    /// Set the probabilistic EMC insertion knob
    /// (`other_config:emc-insert-inv-prob`): insert roughly 1 in `p`
    /// misses; 0 disables EMC insertion entirely.
    pub fn set_emc_insert_inv_prob(&mut self, p: u64) {
        self.emc.insert_inv_prob = p;
    }

    /// Current EMC insertion inverse probability.
    pub fn emc_insert_inv_prob(&self) -> u64 {
        self.emc.insert_inv_prob
    }

    /// Entries currently live in the signature match cache.
    pub fn smc_count(&self) -> usize {
        self.smc.len()
    }

    /// `dpif-netdev/subtable-ranking` render: the dpcls subtable probe
    /// order (sorted by hit count; the dpcls has no priorities), with
    /// per-subtable hit counts — shows why `subtables_probed` stays low
    /// on skewed traffic.
    pub fn subtable_ranking_show(&self) -> String {
        use std::fmt::Write as _;
        let info = self.megaflow.subtable_info();
        let mut out = format!(
            "megaflow classifier: {} subtables, {} probed since start\n",
            info.len(),
            self.megaflow.subtables_probed()
        );
        for (rank, s) in info.iter().enumerate() {
            let _ = writeln!(
                out,
                "  rank {rank}: mask_bits={} hits={} rules={}",
                s.mask.bit_count(),
                s.hits,
                s.rules
            );
        }
        out
    }

    /// `dpif-netdev/miniflow-stats` — the shape of the sparse keys the
    /// fast path ran on: average populated slots (of [`WORDS`]), the
    /// populated-slot histogram, slow-path full-key expansions, and the
    /// wide-lane bulk dpcls occupancy.
    pub fn miniflow_stats_show(&self) -> String {
        use std::fmt::Write as _;
        let ms = &self.miniflow_stats;
        let avg = if ms.extracts > 0 {
            ms.slots_sum as f64 / ms.extracts as f64
        } else {
            0.0
        };
        let mut out = String::from("miniflow stats:\n");
        let _ = writeln!(out, "  extracts: {}", ms.extracts);
        let _ = writeln!(out, "  avg populated slots: {:.2} / {}", avg, WORDS);
        let _ = writeln!(out, "  full-key expansions (upcall path): {}", ms.expands);
        let _ = writeln!(out, "  populated-slot histogram:");
        for (n, &count) in ms.hist.iter().enumerate() {
            if count > 0 {
                let _ = writeln!(out, "    {n:>2} slots: {count}");
            }
        }
        let steps = self.megaflow.lane_steps();
        let keys = self.megaflow.lane_keys();
        let width = self.megaflow.lane_width();
        let _ = writeln!(out, "bulk dpcls:");
        let _ = writeln!(out, "  lane width: {width}");
        let _ = writeln!(out, "  lane steps: {steps}");
        let _ = writeln!(out, "  lane keys: {keys}");
        if steps > 0 {
            let occ = 100.0 * keys as f64 / (steps as f64 * width as f64);
            let _ = writeln!(out, "  lane occupancy: {occ:.1}%");
        }
        out
    }

    /// Sync the Netlink replica from the kernel's event stream.
    pub fn sync_rtnl(&mut self, kernel: &Kernel) {
        self.rtnl.sync(&kernel.events);
    }

    /// Install a batch of flows from `ovs-ofctl` text (one per line) and
    /// selectively revalidate the caches. Returns the number of rules
    /// installed.
    pub fn add_flows(&mut self, text: &str) -> Result<usize, crate::ofctl::ParseError> {
        let rules = crate::ofctl::parse_flows(text)?;
        let n = rules.len();
        for r in rules {
            self.ofproto.add_rule(r);
        }
        self.revalidate_changed();
        Ok(n)
    }

    /// Install or modify an OpenFlow rule at runtime and **selectively
    /// revalidate**: the rule gives the tables a new version, so every
    /// cached megaflow is re-translated against the updated tables and
    /// only the flows whose translation actually changed are deleted —
    /// OVS revalidator semantics, replacing the old flush-the-world
    /// behaviour. Unaffected flows keep their cache entries (and their
    /// hit streaks) and are marked checked at the new version, so the
    /// next periodic sweep does not re-translate them again.
    pub fn flow_mod(&mut self, rule: crate::ofproto::OfRule) {
        self.ofproto.add_rule(rule);
        self.revalidate_changed();
    }

    /// Re-translate every installed megaflow against the current tables
    /// and delete the ones whose datapath actions or wildcard mask
    /// changed. Returns the number deleted. Re-translating the *masked*
    /// key is sound because a megaflow's mask covers every field its
    /// translation consulted, so the masked key takes the same pipeline
    /// path as any packet the megaflow matches. This is the periodic
    /// pass's per-flow step with the timeouts off, run at once and
    /// uncharged: pure control-plane bookkeeping. Only flows not yet
    /// checked at the current table version are re-translated. Restored
    /// flows wait for reconciliation in [`revalidate`](Self::revalidate).
    pub fn revalidate_changed(&mut self) -> usize {
        let mut sweep = Sweep::flow_mod(self.ofproto.version());
        let mut condemned = std::mem::take(&mut self.condemned);
        for e in self.megaflow.iter() {
            let verdict =
                Self::revalidate_megaflow(&mut self.revalidator, &mut self.ofproto, &mut sweep, e);
            if verdict == Verdict::Delete {
                condemned.push(e.ufid);
            }
        }
        self.delete_condemned(condemned);
        self.emc.purge_dead();
        self.smc.purge_dead();
        self.revalidator.close(sweep).deleted() as usize
    }

    /// Capture the full datapath state — every installed megaflow (with
    /// counters and ukey pushback marks) and every tracked connection —
    /// into a versioned, byte-deterministic [`DpSnapshot`]. Outstanding
    /// flow stats are pushed to the current rules first, so after a
    /// restore the re-adopted flows credit the *new* rules exactly the
    /// packets forwarded since this instant.
    pub fn snapshot(&mut self, now_ns: u64) -> DpSnapshot {
        let stats = &mut self.revalidator.stats;
        let mut flows: Vec<FlowRecord> = self
            .megaflow
            .iter()
            .map(|e| {
                let (hits, bytes) = (e.hits.get(), e.bytes.get());
                let mut uk = e.ukey.borrow_mut();
                uk.push(stats, hits, bytes);
                // After the push pushed == hits, except for flows that
                // were themselves restored-and-unreconciled (a restart
                // during a restore window): their marks carry over
                // untouched.
                // The record keeps the masked key, not the UFID: that is
                // keyed by this process's secret, and restore recomputes it.
                FlowRecord {
                    key: e.key,
                    mask: e.mask,
                    actions: e.actions.clone(),
                    hits,
                    bytes,
                    used_ns: e.used_ns.get(),
                    created_ns: e.created_ns.get(),
                    pushed_packets: uk.pushed_packets,
                    pushed_bytes: uk.pushed_bytes,
                }
            })
            .collect();
        // Classifier iteration order is not deterministic; the snapshot
        // must be (byte-identical runs, resumable goldens).
        flows.sort_by_key(|f| f.key.hash());
        coverage!("dp_snapshot");
        DpSnapshot {
            version: SNAPSHOT_VERSION,
            taken_at_ns: now_ns,
            flows,
            conns: self.ct.snapshot_conns(),
        }
    }

    /// Rebuild datapath state from a snapshot and raise the
    /// `flow-restore-wait` gate for `gate_ns`: restored megaflows (and
    /// conntrack entries) forward immediately, while megaflow misses are
    /// gated until the rule table is repopulated and the gate lifts
    /// (deadline, or [`flow_restore_complete`](Self::flow_restore_complete)).
    /// Restored ukeys carry no rule refs; the bounded reconciliation
    /// sweep in [`revalidate`](Self::revalidate) adopts or orphans them.
    pub fn restore_from(&mut self, snap: &DpSnapshot, now_ns: u64, gate_ns: u64) {
        assert_eq!(
            snap.version, SNAPSHOT_VERSION,
            "refusing snapshot from a different layout generation"
        );
        let mut st = RestoreState::begin(now_ns, gate_ns);
        for f in &snap.flows {
            let entry = self
                .megaflow
                .install_at(f.key, f.mask, f.actions.clone(), now_ns);
            // install_at zeroes the counters; the restored flow resumes
            // its old life, including its hard-timeout base.
            entry.hits.set(f.hits);
            entry.bytes.set(f.bytes);
            entry.used_ns.set(f.used_ns);
            entry.created_ns.set(f.created_ns);
            entry
                .ukey
                .replace(Ukey::restored(f.pushed_packets, f.pushed_bytes));
            self.stats.flows_installed += 1;
            coverage!("flow_restored");
        }
        st.restored_flows = snap.flows.len() as u64;
        st.restored_conns = self.ct.restore_conns(&snap.conns) as u64;
        st.hits_at_restore = self.stats.emc_hits + self.stats.smc_hits + self.stats.megaflow_hits;
        self.restore = st;
        coverage!("dp_restore");
    }

    /// Lift the `flow-restore-wait` gate: upcalls resume and the
    /// gate-window forwarding count is finalized. Idempotent.
    pub fn flow_restore_complete(&mut self, now_ns: u64) {
        if !self.restore.wait {
            return;
        }
        self.restore.wait = false;
        self.restore.completed_at_ns = Some(now_ns);
        self.restore.gated_forwarded = self.gate_window_hits();
        coverage!("flow_restore_complete");
    }

    /// Cache-tier hits since the restore — during the gate window every
    /// hit is a packet forwarded from a restored megaflow (no new flow
    /// can install while upcalls are gated).
    fn gate_window_hits(&self) -> u64 {
        (self.stats.emc_hits + self.stats.smc_hits + self.stats.megaflow_hits)
            .saturating_sub(self.restore.hits_at_restore)
    }

    /// Auto-lift the gate once its deadline passes — a wedged or crashed
    /// restorer must not gate the slow path forever.
    fn maybe_complete_restore(&mut self, now_ns: u64) {
        if self.restore.wait && now_ns >= self.restore.gate_until_ns {
            self.flow_restore_complete(now_ns);
        }
    }

    /// `ovs-appctl flow-restore/show`: gate state, restored counts, the
    /// gate-window forwarding proof, and reconciliation progress.
    pub fn flow_restore_show(&self) -> String {
        let secs = |ns: u64| format!("{:.3}s", ns as f64 / 1e9);
        let r = &self.restore;
        if !r.active_or_done() {
            return "flow-restore: idle (no snapshot restored)\n".to_string();
        }
        let state = if r.wait {
            format!("waiting (gate lifts at {})", secs(r.gate_until_ns))
        } else {
            match r.completed_at_ns {
                Some(t) => format!("complete (gate lifted at {})", secs(t)),
                None => "complete".to_string(),
            }
        };
        let forwarded = if r.wait {
            self.gate_window_hits()
        } else {
            r.gated_forwarded
        };
        format!(
            "flow-restore: {state}\n\
             \x20 restored      : {} flows, {} conns (at {})\n\
             \x20 gated upcalls : {}\n\
             \x20 forwarded     : {forwarded} packets from restored flows during gate\n\
             \x20 reconciled    : {} adopted, {} orphaned, {} pending\n",
            r.restored_flows,
            r.restored_conns,
            secs(r.restored_at_ns),
            self.stats.upcalls_gated,
            self.stats.restore_adopted,
            self.stats.restore_orphaned,
            self.restored_count(),
        )
    }

    /// Restored megaflows still awaiting reconciliation.
    pub fn restored_count(&self) -> usize {
        self.megaflow
            .iter()
            .filter(|e| e.ukey.borrow().is_restored())
            .count()
    }

    /// Delete one megaflow (by UFID), pushing its outstanding stats up
    /// to the OpenFlow rules first. Every megaflow deletion comes here.
    fn delete_megaflow(&mut self, ufid: Ufid) {
        if let Some(e) = self.megaflow.remove(ufid) {
            let stats = &mut self.revalidator.stats;
            e.ukey.borrow_mut().push(stats, e.hits.get(), e.bytes.get());
            self.stats.flows_deleted += 1;
        }
    }

    /// Delete the flows a walk condemned, in the order it condemned
    /// them, and keep the emptied list for the next walk.
    fn delete_condemned(&mut self, mut condemned: Vec<Ufid>) {
        for ufid in condemned.drain(..) {
            self.delete_megaflow(ufid);
        }
        self.condemned = condemned;
    }

    /// The pass's per-flow step on one megaflow: the entry is the flow as
    /// a dump returns it (masked key, mask, actions, counters and ukey),
    /// and a re-translation (when the step needs one) goes through
    /// `ofproto`. The walk that calls it holds the megaflow cache, so a
    /// flow this condemns is deleted after the walk.
    fn revalidate_megaflow(
        revalidator: &mut Revalidator,
        ofproto: &mut Ofproto,
        sweep: &mut Sweep,
        e: &MegaflowEntry<Vec<DpAction>>,
    ) -> Verdict {
        // The ukey's borrow ends with this statement.
        revalidator.revalidate_flow(
            sweep,
            DumpedFlow {
                key: &e.key,
                mask: &e.mask,
                actions: &e.actions,
                counters: e.counters(),
                ukey: &mut e.ukey.borrow_mut(),
            },
            ofproto,
        )
    }

    /// One full revalidator round over the userspace datapath: the
    /// shared pass ([`Revalidator::revalidate_flow`] per megaflow, then
    /// LRU eviction down to the dynamic flow limit) plus what only this
    /// datapath has — restore reconciliation, the EMC/SMC purge, the
    /// conntrack expiry slice, and the virtual-clock charges. The
    /// simulated dump duration feeds [`Revalidator::note_dump`], which
    /// adjusts the limit for the next round — OVS's `udpif_revalidator`
    /// loop.
    pub fn revalidate(&mut self, kernel: &mut Kernel, core: usize) -> SweepSummary {
        let t0 = kernel.sim.cpus.core_ns(core);
        let mut timer = StageTimer::new(t0);
        let now = kernel.sim.clock.now_ns();
        self.maybe_complete_restore(now);
        // Reconciliation waits for the gate and is budgeted per sweep so
        // reconvergence never starves the fast path.
        let mut budget = if self.restore.wait {
            0
        } else {
            self.restore.reconcile_budget
        };
        let mut sweep =
            self.revalidator
                .begin_sweep(self.megaflow.len(), now, self.ofproto.version());
        // The walk holds the cache and only condemns; the deletes follow
        // it, so the flows are walked, charged and judged in the same
        // order as if each were deleted on the spot.
        let mut condemned = std::mem::take(&mut self.condemned);
        for e in self.megaflow.iter() {
            let c = kernel.sim.costs.revalidate_flow_ns;
            kernel.sim.charge(core, Context::User, c);
            // Orphan reconciliation of a restored flow: re-translating
            // the masked key against the repopulated table either
            // re-adopts the flow (rules re-resolved, stats pushback
            // resumes exactly where the snapshot left off) or deletes it
            // as an orphan.
            match Self::revalidate_megaflow(&mut self.revalidator, &mut self.ofproto, &mut sweep, e)
            {
                Verdict::Delete => {
                    condemned.push(e.ufid);
                    continue;
                }
                Verdict::Reconcile if budget > 0 => {}
                _ => continue,
            }
            budget -= 1;
            let version = self.ofproto.version();
            let t = self.ofproto.translate(&e.key);
            let c = t.tables_visited as f64 * kernel.sim.costs.upcall_per_table_ns;
            kernel.sim.charge(core, Context::User, c);
            if t.actions == e.actions && t.mask == e.mask {
                let mut uk = e.ukey.borrow_mut();
                uk.adopt(t.rules, version);
                uk.push(&mut self.revalidator.stats, e.hits.get(), e.bytes.get());
                self.stats.restore_adopted += 1;
                coverage!("restore_adopted");
                sweep.summary.adopted += 1;
            } else {
                self.stats.restore_orphaned += 1;
                coverage!("restore_orphaned");
                sweep.summary.orphaned += 1;
                condemned.push(e.ufid);
            }
        }
        self.delete_condemned(condemned);
        // While the gate is up the restored flows are the only
        // forwarding state there is — never evict them.
        let gated = self.restore.wait;
        let candidates = self
            .megaflow
            .iter()
            .filter(|e| !(gated && e.ukey.borrow().is_restored()))
            .map(|e| (e.used_ns.get(), e.key.hash(), e.ufid));
        let victims = self
            .revalidator
            .evict(&mut sweep, self.megaflow.len(), candidates);
        for ufid in victims {
            self.delete_megaflow(ufid);
        }
        self.emc.purge_dead();
        self.smc.purge_dead();

        // Conntrack expiry rides the revalidator cadence: each round
        // sweeps a rotating slice of shards (an eighth of the table),
        // so idle connections are reclaimed within 8 rounds without a
        // full-table scan ever happening at once.
        let ct_slice = (self.ct.n_shards() / 8).max(1);
        let ct_expired = self.ct.sweep_slice(now, ct_slice);
        if ct_expired > 0 {
            let c = kernel.sim.costs.userspace_ct_ns * ct_expired as f64;
            kernel.sim.charge(core, Context::User, c);
        }

        // The simulated dump duration drives the dynamic flow limit.
        let dump_ms = (kernel.sim.cpus.core_ns(core) - t0) / 1_000_000;
        let summary = self.revalidator.end_sweep(sweep, dump_ms);

        timer.mark(Stage::Revalidate, kernel.sim.cpus.core_ns(core));
        self.perf.entry(core).or_default().commit(&timer, 0);
        assert!(
            self.stats.coherent(),
            "dpif stats drifted: {:?}",
            self.stats
        );
        assert_eq!(
            self.megaflow.len() as u64,
            self.stats.flows_installed - self.stats.flows_deleted,
            "flow lifecycle accounting drifted"
        );
        assert_eq!(
            self.megaflow.len(),
            self.megaflow.subtable_flows(),
            "the megaflow index and the dpcls subtables drifted apart"
        );
        summary
    }

    /// `ovs-appctl upcall/show` equivalent: flow counts against the
    /// dynamic flow limit, last dump duration, and sweep totals.
    pub fn upcall_show(&self) -> String {
        let mut out = self.revalidator.show(
            "netdev@ovs-netdev",
            self.megaflow.len(),
            self.stats.flow_limit_hits,
        );
        // The backpressure counter: misses shed because the upcall queue
        // was full (bounded memory, never unbounded buffering).
        out.push_str(&format!(
            "  queue full    : {}\n",
            ovs_obs::coverage::total("upcall_queue_full")
        ));
        out.push_str(&format!(
            "  restore       : {} pending, {} adopted, {} orphaned, {} gated\n",
            self.restored_count(),
            self.stats.restore_adopted,
            self.stats.restore_orphaned,
            self.stats.upcalls_gated,
        ));
        out
    }

    /// `ovs-appctl dpif-netdev/pmd-stats-show` equivalent.
    pub fn pmd_stats(&self) -> String {
        let s = &self.stats;
        let lookups = s.emc_hits + s.smc_hits + s.megaflow_hits + s.upcalls;
        let pct = |n: u64| {
            if lookups == 0 {
                0.0
            } else {
                100.0 * n as f64 / lookups as f64
            }
        };
        let mut out = format!(
            "packets received: {}
packets transmitted: {}
             emc hits: {} ({:.1}%)
smc hits: {} ({:.1}%)
megaflow hits: {} ({:.1}%)
             upcalls (miss): {} ({:.1}%)
recirculations: {}
             tunnel encap/decap: {}/{}
tso segments: {}
             meter drops: {}
dropped: {}
             vhost tx disconnected: {}
xsk tx ring full: {}
             upcall queue full: {}
xsk degraded mode: {}
megaflows installed: {}
",
            s.rx_packets,
            s.tx_packets,
            s.emc_hits,
            pct(s.emc_hits),
            s.smc_hits,
            pct(s.smc_hits),
            s.megaflow_hits,
            pct(s.megaflow_hits),
            s.upcalls,
            pct(s.upcalls),
            s.recirculations,
            s.tunnel_encaps,
            s.tunnel_decaps,
            s.tso_segments,
            s.meter_drops,
            s.dropped,
            s.vhost_tx_drops,
            s.tx_full_drops,
            ovs_obs::coverage::total("upcall_queue_full"),
            ovs_obs::coverage::total("xsk_degraded_mode"),
            self.megaflow_count(),
        );
        out.push_str(&format!(
            "             rx-to-tx latency: {}\n",
            LatencySummary::of(&self.latency.all).render_line()
        ));
        out
    }

    /// `ovs-appctl dpif-netdev/pmd-perf-show` equivalent: per-PMD stage
    /// cycle attribution plus a merged all-PMD summary, optionally
    /// extended (`-hist`) with the per-stage *latency* contribution —
    /// where delivered packets spent their rx→tx time, alongside where
    /// the PMD spent its cycles.
    pub fn pmd_perf_show(&self, cpu_hz: u64, hist: bool) -> String {
        let mut out = String::new();
        let mut merged = PmdPerf::new();
        for (core, perf) in &self.perf {
            out.push_str(&perf.render(&format!("pmd thread core {core}"), cpu_hz));
            merged.merge(perf);
        }
        if self.perf.is_empty() {
            out.push_str("(no pmd activity)\n");
        } else {
            // Always render the merged block, even for a single PMD —
            // matches OVS, whose `pmd-perf-show` ends with the summary
            // unconditionally.
            out.push_str(&merged.render("all pmd threads", cpu_hz));
        }
        if hist {
            out.push_str(&self.render_stage_latency());
        }
        out
    }

    /// The per-stage latency decomposition block shared by
    /// `pmd-perf-show -hist` and `latency-show`: each stage's
    /// delivered-weighted contribution, the invariant totals, and the
    /// batch-amortization gap.
    fn render_stage_latency(&self) -> String {
        let mut out = String::from("per-stage latency (delivered-weighted):\n");
        let total = self.latency.stage_latency_total();
        for (stage, ns) in STAGES.iter().zip(self.latency.stage_latency_ns()) {
            if *ns == 0 {
                continue;
            }
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * *ns as f64 / total as f64
            };
            out.push_str(&format!(
                "  {:<18} {:>14} ns ({:>5.1}%)\n",
                stage.label(),
                ns,
                pct
            ));
        }
        out.push_str(&format!(
            "  stage-weighted total: {} ns (== delivered-weighted poll {} ns)\n",
            total,
            self.latency.weighted_poll_ns()
        ));
        out.push_str(&format!(
            "  end-to-end total    : {} ns (amortization gap {:.1}%)\n",
            self.latency.end_to_end_ns(),
            100.0 * self.latency.amortization_gap()
        ));
        out
    }

    /// `ovs-appctl dpif-netdev/latency-show` equivalent: rx→tx latency
    /// percentile summaries — merged, per egress port, per PMD core —
    /// plus the per-stage decomposition.
    pub fn latency_show(&self) -> String {
        let mut out = String::from("rx-to-tx latency (ns):\n");
        out.push_str(&format!(
            "  all ports: {}\n",
            LatencySummary::of(&self.latency.all).render_line()
        ));
        for (no, h) in &self.latency.per_port {
            let name = self
                .port(*no)
                .map(|p| p.name.as_str())
                .unwrap_or("<removed>");
            out.push_str(&format!(
                "  port {no} ({name}): {}\n",
                LatencySummary::of(h).render_line()
            ));
        }
        for (core, h) in &self.latency.per_pmd {
            out.push_str(&format!(
                "  pmd core {core}: {}\n",
                LatencySummary::of(h).render_line()
            ));
        }
        out.push_str(&self.render_stage_latency());
        out
    }

    /// `ovs-appctl dpif-netdev/latency-hist` equivalent: the summary
    /// line plus the full log2 bucket dump, merged and per PMD.
    pub fn latency_hist(&self) -> String {
        let mut out = String::from("rx-to-tx latency histogram (ns):\n");
        out.push_str(&format!(
            "  all ports: {}\n",
            LatencySummary::of(&self.latency.all).render_line()
        ));
        out.push_str(&self.latency.all.render("  "));
        for (core, h) in &self.latency.per_pmd {
            out.push_str(&format!(
                "  pmd core {core}: {}\n",
                LatencySummary::of(h).render_line()
            ));
            out.push_str(&h.render("  "));
        }
        out
    }

    /// `ovs-appctl dpif-netdev/pmd-stats-clear` equivalent: zero the
    /// datapath counters, the per-PMD perf accumulation, and the
    /// latency histograms.
    pub fn pmd_stats_clear(&mut self) {
        self.stats = DpifStats::default();
        self.perf.clear();
        self.latency.clear();
    }

    /// `ovs-appctl ofproto/trace` equivalent: run `frame` through the
    /// full pipeline as if received on `in_port`, recording every
    /// decision, and render the trace. The packet is really forwarded
    /// (caches warm, counters move) — same as tracing with a live
    /// datapath in OVS.
    pub fn ofproto_trace(
        &mut self,
        kernel: &mut Kernel,
        frame: &[u8],
        in_port: PortNo,
        core: usize,
    ) -> String {
        let mut t = TraceCtx::new();
        t.note(format!(
            "Trace: {} byte frame on in_port={in_port}",
            frame.len()
        ));
        self.trace = Some(t);
        let mut pkt = self.pool.take();
        pkt.set_data(frame);
        pkt.in_port = in_port;
        self.process_packet(kernel, pkt, core);
        let t = self.trace.take().expect("trace ctx survives the pipeline");
        t.render()
    }

    /// `ovs-appctl dpctl/dump-flows` equivalent: one line per installed
    /// megaflow with its significant fields, packet/byte counters, time
    /// since last use (`used:`), and actions, sorted so the output is
    /// deterministic. The userspace datapath makes this kind of
    /// introspection trivial — one of the paper's "easier
    /// troubleshooting" lessons (§6). `now_ns` is the current sim-time
    /// the `used:` ages are computed against.
    pub fn dump_flows(&self, now_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut lines: Vec<String> = Vec::new();
        for e in self.megaflow.iter() {
            let k = e.key;
            let mut out = String::new();
            let _ = write!(
                out,
                "in_port({}),recirc({}),eth_type(0x{:04x})",
                k.in_port(),
                k.recirc_id(),
                k.eth_type_raw()
            );
            if k.nw_dst_v4() != [0, 0, 0, 0] || k.nw_src_v4() != [0, 0, 0, 0] {
                let s = k.nw_src_v4();
                let d = k.nw_dst_v4();
                let _ = write!(
                    out,
                    ",ipv4(src={}.{}.{}.{},dst={}.{}.{}.{})",
                    s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3]
                );
            }
            if k.ct_state() != 0 {
                let _ = write!(out, ",ct_state(0x{:02x})", k.ct_state());
            }
            if k.tun_id() != 0 {
                let _ = write!(out, ",tun_id({})", k.tun_id());
            }
            let _ = write!(
                out,
                " packets:{} bytes:{} used:{} mask_bits:{}",
                e.hits.get(),
                e.bytes.get(),
                format_used(now_ns, e.used_ns.get(), e.hits.get()),
                e.mask.bit_count()
            );
            let _ = write!(out, " actions:{:?}", e.actions);
            lines.push(out);
        }
        lines.sort_unstable();
        let mut out = String::new();
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// One PMD iteration over one port queue: receive a burst and run
    /// it through the two-phase batched pipeline. Returns packets
    /// processed.
    pub fn pmd_poll(
        &mut self,
        kernel: &mut Kernel,
        port: PortNo,
        queue: usize,
        core: usize,
    ) -> usize {
        if port == NF_WORK_PORT {
            return self.nf_poll(kernel, queue as u32, core);
        }
        // Stamp rx at poll entry so the rx burst cost itself counts
        // toward every received packet's latency.
        self.maybe_complete_restore(kernel.sim.clock.now_ns());
        let rx_stamp = pmd_now_ns(kernel, core);
        let mut timer = StageTimer::new(kernel.sim.cpus.core_ns(core));
        let mut rx = std::mem::take(&mut self.rx);
        self.port_rx(kernel, port, queue, core, &mut rx);
        timer.mark(Stage::Rx, kernel.sim.cpus.core_ns(core));
        if rx.is_empty() {
            // An empty poll is still an iteration: commit its timer as
            // `run_burst` would for zero packets, and skip the pipeline.
            self.rx = rx;
            self.latency.commit_burst(&timer);
            self.perf.entry(core).or_default().commit(&timer, 0);
            return 0;
        }
        let pkts = rx.drain().map(|mut pkt| {
            pkt.in_port = port;
            pkt.rx_ts = Some(rx_stamp);
            pkt
        });
        let n = self.run_burst(kernel, pkts, core, timer);
        self.rx = rx;
        n
    }

    /// One PMD iteration over one NF instance (scheduled under
    /// [`NF_WORK_PORT`]): pop a batch off the NF's ring, run it under the
    /// manager's panic boundary, route the verdicts, and flush chain
    /// exits as a real tx burst. Returns packets processed, so the
    /// scheduler's cycle accounting sees NF work exactly like rxq work.
    pub fn nf_poll(&mut self, kernel: &mut Kernel, nf_id: u32, core: usize) -> usize {
        use ovs_sim::faults::FaultKind;
        if self.nfv.nf(nf_id).is_none() {
            return 0;
        }
        let mut timer = StageTimer::new(kernel.sim.cpus.core_ns(core));
        let now_ns = kernel.sim.clock.now_ns();
        // A fault armed against this NF makes this invocation panic
        // inside the manager's catch_unwind; consuming it here keeps the
        // crash attributable to exactly the targeted NF.
        let force_panic = kernel.sim.faults.take_for(FaultKind::NfPanic, nf_id);
        let out = self.nfv.poll_nf(nf_id, now_ns, force_panic, &mut self.pool);
        if out.restarted {
            coverage!("nf_restart");
        }
        if out.crashed {
            coverage!("nf_crash");
        }
        let n = out.processed;
        if n > 0 {
            // Ring dequeue crossing plus the invocation itself; exits pay
            // their hand-back to the datapath below.
            let c = (kernel.sim.costs.nf_ring_ns + kernel.sim.costs.nf_exec_ns) * n as f64;
            kernel.sim.charge(core, Context::User, c);
        }
        self.stats.nf_verdict_drops += out.verdict_drops;
        self.stats.nf_ring_full += out.ring_full;
        self.stats.nf_fail_closed_drops += out.fail_closed;
        self.stats.nf_crash_drops += out.crash_drops;
        self.stats.dropped += out.verdict_drops + out.ring_full + out.fail_closed + out.crash_drops;
        if out.verdict_drops > 0 {
            coverage!("nf_verdict_drop", out.verdict_drops);
        }
        if out.ring_full > 0 {
            coverage!("nf_ring_full", out.ring_full);
        }
        if out.fail_closed > 0 {
            coverage!("nf_fail_closed", out.fail_closed);
        }
        if out.crash_drops > 0 {
            coverage!("nf_crash_drop", out.crash_drops);
        }
        timer.mark(Stage::NfExec, kernel.sim.cpus.core_ns(core));
        if out.exits > 0 {
            let mut tx = std::mem::take(&mut self.scratch.tx);
            let now = pmd_now_ns(kernel, core);
            while let Some((mut pkt, port)) = self.nfv.pop_exit() {
                // Cross-core handoff: the rx stamp lives in the rx
                // core's virtual-time domain, which is not ordered
                // against this core's. Clamp it so the recorded latency
                // stays non-negative in the consumer's domain.
                if let Some(ts) = pkt.rx_ts {
                    pkt.rx_ts = Some(ts.min(now));
                }
                // The hand-back out of the NF framework's memory.
                let c = kernel.sim.costs.copy_ns(pkt.len());
                kernel.sim.charge(core, Context::User, c);
                self.port_send(kernel, port, pkt, core, &mut tx);
            }
            timer.mark(Stage::NfExec, kernel.sim.cpus.core_ns(core));
            self.flush_tx(kernel, &mut tx, core, &mut timer);
            self.scratch.tx = tx;
        }
        self.perf.entry(core).or_default().commit(&timer, n as u64);
        debug_assert!(
            self.stats.coherent(),
            "dpif stats drifted: {:?}",
            self.stats
        );
        n
    }

    /// Receive a burst from a port's backend into `rx`, every frame in a
    /// descriptor from the pool.
    fn port_rx(
        &mut self,
        kernel: &mut Kernel,
        port: PortNo,
        queue: usize,
        core: usize,
        rx: &mut PacketBatch,
    ) {
        let Some(Some(p)) = self.ports.get_mut(port as usize) else {
            return;
        };
        let pool = &mut self.pool;
        match &mut p.ty {
            PortType::Afxdp(a) => {
                a.rx_burst(kernel, queue, core, pool, rx);
            }
            PortType::Dpdk(d) => {
                for m in d.rx_burst(kernel, queue, core) {
                    let mut pkt = pool.take();
                    pkt.set_data(m.data());
                    pkt.rxhash = Some(m.rss_hash);
                    d.pool.free(m);
                    let _ = rx.push(pkt);
                }
            }
            PortType::Tap { ifindex }
            | PortType::Internal {
                tap_ifindex: ifindex,
            } => {
                // OVS reaches the tap's *kernel* side over a raw socket
                // (the fd side belongs to the VM's vhost backend).
                let ifx = *ifindex;
                while !rx.is_full() {
                    let Some(f) = kernel.raw_socket_recv(ifx, core) else {
                        break;
                    };
                    let mut pkt = pool.take();
                    pkt.set_data(&f);
                    let _ = rx.push(pkt);
                }
            }
            PortType::VhostUser(v) => {
                v.dequeue_burst(kernel, core, pool, rx);
            }
            PortType::AfPacket(a) => {
                while !rx.is_full() {
                    let Some(f) = a.recv(kernel, core) else {
                        break;
                    };
                    let mut pkt = pool.take();
                    pkt.set_data(&f);
                    let _ = rx.push(pkt);
                }
            }
            PortType::Tunnel(_) => {}
        }
        self.stats.rx_packets += rx.len() as u64;
        coverage!("dpif_rx", rx.len());
    }

    /// Run one packet through decap, the cache hierarchy, and actions —
    /// a burst of one through the batched pipeline.
    pub fn process_packet(&mut self, kernel: &mut Kernel, pkt: DpPacket, core: usize) {
        self.process_burst(kernel, [pkt], core);
    }

    /// Run an injected burst through the full two-phase pipeline,
    /// committing perf attribution. `pmd_poll` is this plus the rx.
    pub fn process_burst(
        &mut self,
        kernel: &mut Kernel,
        pkts: impl IntoIterator<Item = DpPacket>,
        core: usize,
    ) {
        self.maybe_complete_restore(kernel.sim.clock.now_ns());
        let timer = StageTimer::new(kernel.sim.cpus.core_ns(core));
        self.run_burst(kernel, pkts, core, timer);
    }

    /// The pipeline proper, attributing spans of core time to `timer`
    /// and committing them: admit the burst (stamp the packets that
    /// arrive unstamped — injected ones; received ones carry the
    /// poll-entry stamp from `pmd_poll` — and decapsulate those that
    /// target one of our tunnel endpoints), classify it into
    /// per-megaflow batches (`dfc_processing` + `fast_path_processing`),
    /// execute each batch's actions once, loop recirculated packets back
    /// as a sub-burst, and finally flush the accumulated output as real
    /// per-port tx bursts. Returns the packets admitted.
    fn run_burst(
        &mut self,
        kernel: &mut Kernel,
        pkts: impl IntoIterator<Item = DpPacket>,
        core: usize,
        mut timer: StageTimer,
    ) -> usize {
        let mut s = std::mem::take(&mut self.scratch);
        let mut n = 0;
        for mut pkt in pkts {
            pkt.rx_ts.get_or_insert_with(|| pmd_now_ns(kernel, core));
            self.stats.packets_processed += 1;
            coverage!("dpif_packet");
            self.try_tunnel_rx(kernel, &mut pkt, core);
            s.burst.push(BurstPkt { pkt, pass: 0 });
            n += 1;
        }
        timer.mark(Stage::Parse, kernel.sim.cpus.core_ns(core));
        while !s.burst.is_empty() {
            self.dfc_processing(kernel, &mut s, core, &mut timer);
            self.fast_path_processing(kernel, &mut s, core, &mut timer);
            self.execute_batches(kernel, &mut s, core, &mut timer);
        }
        self.flush_tx(kernel, &mut s.tx, core, &mut timer);
        self.scratch = s;
        self.latency.commit_burst(&timer);
        self.perf.entry(core).or_default().commit(&timer, n as u64);
        debug_assert!(
            self.stats.coherent(),
            "dpif stats drifted: {:?}",
            self.stats
        );
        n
    }

    /// Phase one: probe the datapath flow caches (EMC, then SMC) for
    /// every packet of `s.burst`, in order, sorting hits into
    /// per-megaflow batches and collecting misses for the fast path.
    ///
    /// Everything here runs on the sparse [`Miniflow`] straight out of
    /// extraction — no full `FlowKey` is materialized on the hit path —
    /// and the slot hash is computed once and cached in
    /// `DpPacket::flow_hash` for every probe tier to reuse.
    ///
    /// A run of one flow is looked up once: a packet whose miniflow
    /// equals the previous packet's reuses its hash, and, when that
    /// packet hit the EMC, its hit too (nothing touched the EMC in
    /// between, so the probe would return the same entry). A miss is
    /// probed again: the previous packet's SMC hit may have just put
    /// the flow in the EMC. Every charge, mark and counter stays per
    /// packet.
    fn dfc_processing(
        &mut self,
        kernel: &mut Kernel,
        s: &mut BurstScratch,
        core: usize,
        timer: &mut StageTimer,
    ) {
        // The previous packet's key, hash and EMC hit.
        let mut prev: Option<(Miniflow, u64, Option<FlowRef>)> = None;
        for mut bp in s.burst.drain(..) {
            if bp.pass == MAX_RECIRC {
                // Recirculation limit exceeded.
                self.stats.recirc_limit_drops += 1;
                self.stats.dropped += 1;
                coverage!("dpif_recirc_limit");
                if let Some(t) = self.trace.as_mut() {
                    t.note(format!("recirculation limit ({MAX_RECIRC}) exceeded: drop"));
                }
                self.pool.put(bp.pkt);
                continue;
            }
            if bp.pass > 0 {
                self.stats.recirculations += 1;
                coverage!("dpif_recirc");
            }
            let mf = extract_miniflow(&mut bp.pkt);
            let run = prev.take().filter(|(key, ..)| *key == mf);
            let hash = run.as_ref().map_or_else(|| mf.hash(), |&(_, h, _)| h);
            bp.pkt.flow_hash = Some(hash);
            self.miniflow_stats.record(&mf);
            let c = kernel.sim.costs.miniflow_extract_ns + kernel.sim.costs.flow_hash_ns;
            kernel.sim.charge(core, Context::User, c);
            timer.mark(Stage::Parse, kernel.sim.cpus.core_ns(core));
            if let Some(t) = self.trace.as_mut() {
                t.enter(format!("pass {}: flow {}", bp.pass + 1, describe_key(&mf)));
            }

            // Level 1: EMC. Hit or miss, the probe is paid here.
            let hit = match run.and_then(|(.., e)| e) {
                Some(e) => Some(self.emc.repeat_hit(e)),
                None => self.emc.lookup(&mf, hash),
            };
            prev = Some((mf, hash, hit.clone()));
            let mut c = kernel.sim.costs.emc_mini_hit_ns;
            if hit.is_some() && self.emc.len() > kernel.sim.costs.emc_pressure_threshold {
                c += kernel.sim.costs.emc_pressure_ns;
            }
            kernel.sim.charge(core, Context::User, c);
            timer.mark(Stage::EmcLookup, kernel.sim.cpus.core_ns(core));
            if let Some(e) = hit {
                self.emc_hit(&mut s.batches, e, bp, kernel.sim.clock.now_ns());
                continue;
            }

            // Level 2: signature match cache, when enabled.
            if self.smc_enable {
                let c = kernel.sim.costs.smc_mini_hit_ns;
                kernel.sim.charge(core, Context::User, c);
                let hit = self.smc.lookup(&mf, hash);
                timer.mark(Stage::SmcLookup, kernel.sim.cpus.core_ns(core));
                if let Some(e) = hit {
                    self.smc_hit(&mut s.batches, e, bp, mf, hash, kernel.sim.clock.now_ns());
                    continue;
                }
                coverage!("smc_miss");
            }
            s.misses.push((bp, mf));
        }
    }

    /// Count an EMC hit and queue the packet on its flow's batch. The
    /// caller charges the probe.
    fn emc_hit(&mut self, batches: &mut FlowBatches, e: FlowRef, bp: BurstPkt, now_ns: u64) {
        self.stats.emc_hits += 1;
        coverage!("dpif_emc_hit");
        if let Some(t) = self.trace.as_mut() {
            t.note("cache: EMC hit (exact match)");
        }
        e.note_use(bp.pkt.len(), now_ns);
        self.enqueue_classified(batches, BatchActions::Flow(e), bp);
    }

    /// Count an SMC hit, promote the flow into the EMC (SMC hits feed the
    /// EMC, like dpcls hits) and queue the packet on its flow's batch.
    /// The caller charges the probe.
    fn smc_hit(
        &mut self,
        batches: &mut FlowBatches,
        e: FlowRef,
        bp: BurstPkt,
        mf: Miniflow,
        hash: u64,
        now_ns: u64,
    ) {
        self.stats.smc_hits += 1;
        coverage!("smc_hit");
        if let Some(t) = self.trace.as_mut() {
            t.note(format!("cache: SMC hit (mask {} bits)", e.mask.bit_count()));
        }
        e.note_use(bp.pkt.len(), now_ns);
        self.emc.maybe_insert(mf, hash, Rc::clone(&e));
        self.enqueue_classified(batches, BatchActions::Flow(e), bp);
    }

    /// Phase two: resolve the dfc misses (`s.misses`) through the
    /// megaflow classifier and the upcall slow path. The flow caches are
    /// re-probed first (uncharged — the probes were paid in phase one)
    /// because an earlier miss in the same burst may have installed or
    /// promoted the flow; the survivors then go through the dpcls
    /// **together** as one wide-lane bulk probe (the AVX-512
    /// signature-compare model), and only bulk misses fall back to
    /// scalar probing and upcalls, in original packet order.
    fn fast_path_processing(
        &mut self,
        kernel: &mut Kernel,
        s: &mut BurstScratch,
        core: usize,
        timer: &mut StageTimer,
    ) {
        for (bp, mf) in s.misses.drain(..) {
            let hash = bp
                .pkt
                .flow_hash
                .expect("flow_hash cached by dfc_processing");
            let now = kernel.sim.clock.now_ns();
            if let Some(e) = self.emc.lookup(&mf, hash) {
                self.emc_hit(&mut s.batches, e, bp, now);
                continue;
            }
            if self.smc_enable {
                if let Some(e) = self.smc.lookup(&mf, hash) {
                    self.smc_hit(&mut s.batches, e, bp, mf, hash, now);
                    continue;
                }
            }
            s.pending.push((bp, mf));
        }
        if s.pending.is_empty() {
            return;
        }

        // Level 3: megaflow classifier, probed for the whole remainder
        // of the burst at once in `lane_width`-wide steps. The cost
        // model charges per lane step (one wide signature compare +
        // gather) plus per key carried (mask application) — batching
        // amortizes the subtable walk the way the vectorized dpcls
        // amortizes loads.
        s.keys.clear();
        s.keys.extend(s.pending.iter().map(|(_, mf)| *mf));
        let steps_before = self.megaflow.lane_steps();
        let keys_before = self.megaflow.lane_keys();
        let gen_at_bulk = self.megaflow.generation();
        self.megaflow.lookup_bulk(&s.keys, &mut s.results);
        let steps = self.megaflow.lane_steps() - steps_before;
        let lane_keys = self.megaflow.lane_keys() - keys_before;
        let c = kernel.sim.costs.dpcls_bulk_step_ns * steps as f64
            + kernel.sim.costs.dpcls_bulk_key_ns * lane_keys as f64;
        kernel.sim.charge(core, Context::User, c);
        timer.mark(Stage::MegaflowLookup, kernel.sim.cpus.core_ns(core));

        for ((bp, mf), bulk_hit) in s.pending.drain(..).zip(s.results.drain(..)) {
            let hash = bp
                .pkt
                .flow_hash
                .expect("flow_hash cached by dfc_processing");
            let hit = match bulk_hit {
                Some(e) => Some(e),
                None if self.megaflow.generation() != gen_at_bulk => {
                    // The table changed since the bulk probe — an
                    // earlier miss in this burst installed a flow — so
                    // the miss verdict is stale: scalar re-probe
                    // (charged), the same re-lookup OVS does in
                    // handle_packet_upcall().
                    let probed_before = self.megaflow.subtables_probed();
                    let hit = self.megaflow.lookup_mini(&mf);
                    let probed = self.megaflow.subtables_probed() - probed_before;
                    let c = kernel.sim.costs.dpcls_lookup_ns
                        + kernel.sim.costs.dpcls_subtable_extra_ns
                            * probed.saturating_sub(1) as f64;
                    kernel.sim.charge(core, Context::User, c);
                    timer.mark(Stage::MegaflowLookup, kernel.sim.cpus.core_ns(core));
                    hit
                }
                None => {
                    // Table unchanged: the bulk miss is definitive.
                    self.megaflow.count_miss();
                    None
                }
            };
            if let Some(e) = hit {
                self.stats.megaflow_hits += 1;
                coverage!("dpif_megaflow_hit");
                if let Some(t) = self.trace.as_mut() {
                    t.note(format!(
                        "cache: megaflow hit (mask {} bits)",
                        e.mask.bit_count()
                    ));
                }
                e.note_use(bp.pkt.len(), kernel.sim.clock.now_ns());
                if self.smc_enable {
                    self.smc.insert(hash, Rc::clone(&e));
                }
                self.emc.maybe_insert(mf, hash, Rc::clone(&e));
                self.enqueue_classified(&mut s.batches, BatchActions::Flow(e), bp);
                continue;
            }

            // Level 4 gate: while `flow-restore-wait` is up the rule
            // table is still being repopulated, so a translation would
            // be wrong — the miss drops with a named counter and the
            // restored megaflows keep forwarding. Checked before any
            // slow-path work so the gate costs nothing.
            if self.restore.wait {
                self.stats.upcalls_gated += 1;
                coverage!("upcalls_gated");
                if let Some(t) = self.trace.as_mut() {
                    t.note("upcall gated: flow-restore-wait, drop");
                }
                self.pool.put(bp.pkt);
                continue;
            }
            // Secure fail mode: the controller is gone, so no new flows
            // — existing megaflows already hit above; the miss drops
            // into the named fail_secure_drop verdict.
            if self.fail_secure {
                self.stats.fail_secure_drop += 1;
                coverage!("fail_secure_drop");
                if let Some(t) = self.trace.as_mut() {
                    t.note("fail mode secure: controller disconnected, drop");
                }
                self.pool.put(bp.pkt);
                continue;
            }

            // Level 4: upcall into ofproto — the only point where the
            // sparse key inflates back to a full FlowKey.
            coverage!("miniflow_expand");
            self.miniflow_stats.expands += 1;
            let key = mf.expand();
            self.stats.upcalls += 1;
            coverage!("dpif_upcall");
            if let Some(t) = self.trace.as_mut() {
                t.enter("cache: miss, upcall to ofproto");
            }
            let version = self.ofproto.version();
            let t = self.ofproto.translate_traced(&key, self.trace.as_mut());
            if let Some(tr) = self.trace.as_mut() {
                tr.exit();
                tr.note(format!(
                    "megaflow installed: {} tables visited, mask {} bits",
                    t.tables_visited,
                    t.mask.bit_count()
                ));
            }
            let c = t.tables_visited as f64 * kernel.sim.costs.upcall_per_table_ns;
            kernel.sim.charge(core, Context::User, c);
            timer.mark(Stage::Upcall, kernel.sim.cpus.core_ns(core));
            // The upcalled packet is credited at translation time;
            // everything after it is credited by stats pushback.
            for r in &t.rules {
                r.credit(1, bp.pkt.len() as u64);
            }
            let now = kernel.sim.clock.now_ns();
            // Building the entry hashes the masked key, once, into its UFID.
            let entry = MegaflowEntry::new(key.masked(&t.mask), t.mask, t.actions, now);
            if self.megaflow.contains(entry.ufid) {
                // Masked-key collision under a different mask: replace
                // the stale flow.
                self.delete_megaflow(entry.ufid);
            }
            if self.revalidator.should_install(self.megaflow.len()) {
                entry.ukey.replace(Ukey::new(t.rules, version));
                let entry = self.megaflow.insert(entry);
                self.stats.flows_installed += 1;
                if self.smc_enable {
                    self.smc.insert(hash, Rc::clone(&entry));
                }
                self.emc.maybe_insert(mf, hash, Rc::clone(&entry));
                self.enqueue_classified(&mut s.batches, BatchActions::Flow(entry), bp);
            } else {
                // At the dynamic flow limit: forward without installing
                // (OVS upcall handlers do the same).
                self.stats.flow_limit_hits += 1;
                coverage!("flow_limit_hit");
                if let Some(tr) = self.trace.as_mut() {
                    tr.note(format!(
                        "flow limit reached ({}): megaflow not installed",
                        self.revalidator.flow_limit
                    ));
                }
                self.enqueue_classified(&mut s.batches, BatchActions::OneOff(entry.actions), bp);
            }
        }
    }

    /// Sort one classified packet into its per-megaflow batch, creating
    /// the batch on first use. Empty action lists drop here.
    fn enqueue_classified(
        &mut self,
        batches: &mut FlowBatches,
        actions: BatchActions,
        bp: BurstPkt,
    ) {
        if actions.as_slice().is_empty() {
            self.stats.dropped += 1;
            coverage!("dpif_drop");
            if let Some(t) = self.trace.as_mut() {
                t.note("Datapath actions: drop");
                t.exit();
            }
            self.pool.put(bp.pkt);
            return;
        }
        if let BatchActions::Flow(e) = &actions {
            if let Some(b) = batches
                .live
                .iter_mut()
                .find(|b| matches!(&b.actions, BatchActions::Flow(be) if Rc::ptr_eq(be, e)))
            {
                b.pkts.push(bp);
                return;
            }
        }
        let mut pkts = batches.spare.pop().unwrap_or_default();
        pkts.push(bp);
        batches.live.push(FlowBatch { actions, pkts });
    }

    /// Phase three: execute each batch's actions — the per-batch fixed
    /// cost is paid once per megaflow, not once per packet. The
    /// recirculated packets refill `s.burst` as the next sub-burst.
    ///
    /// When the actions start with their only `ct`, as every
    /// `ct(...),recirc(...)` freeze does, conntrack tracks the whole
    /// batch first, in packet order (OVS's `conntrack_execute` over a
    /// batch), and each packet's `ct` action takes its verdict. No
    /// action ahead of the `ct` can change a packet, and nothing after
    /// it touches conntrack, so each verdict is the one the packet
    /// would get at its turn.
    fn execute_batches(
        &mut self,
        kernel: &mut Kernel,
        s: &mut BurstScratch,
        core: usize,
        timer: &mut StageTimer,
    ) {
        for mut b in s.batches.live.drain(..) {
            let c = kernel.sim.costs.dp_batch_fixed_ns
                + kernel.sim.costs.dp_batch_pkt_ns * b.pkts.len() as f64;
            kernel.sim.charge(core, Context::User, c);
            timer.mark(Stage::Batch, kernel.sim.cpus.core_ns(core));
            coverage!("batch_flush");
            let actions = b.actions.as_slice();
            s.ct_verdicts.clear();
            if let [DpAction::Ct { zone, commit, nat }, rest @ ..] = actions {
                if !rest.iter().any(|a| matches!(a, DpAction::Ct { .. })) {
                    s.ct_pkts.clear();
                    s.ct_pkts
                        .extend(b.pkts.iter_mut().map(|bp| ct_packet(&mut bp.pkt, *zone)));
                    let action = CtAction {
                        zone: *zone,
                        commit: *commit,
                        mark: None,
                        nat: *nat,
                    };
                    let now = kernel.sim.clock.now_ns();
                    self.ct
                        .execute(&s.ct_pkts, action, Some(core), now, &mut s.ct_verdicts);
                }
            }
            for (i, bp) in b.pkts.drain(..).enumerate() {
                if let Some(t) = self.trace.as_mut() {
                    t.note(format!("Datapath actions: {actions:?}"));
                }
                let pass = bp.pass;
                let verdict = s.ct_verdicts.get(i).copied();
                if let Some(p) =
                    self.execute_actions(kernel, bp.pkt, actions, verdict, core, timer, &mut s.tx)
                {
                    s.burst.push(BurstPkt {
                        pkt: p,
                        pass: pass + 1,
                    });
                }
                if let Some(t) = self.trace.as_mut() {
                    t.exit();
                }
            }
            s.batches.spare.push(b.pkts);
        }
    }

    /// Flush the accumulated output as one real tx burst per port —
    /// the batched replacement for the old per-packet backend calls.
    /// Each descriptor goes back to the pool once the backend has copied
    /// it out; `tx` is left empty.
    ///
    /// This is where a packet's life ends, one way or the other: every
    /// frame the backend really accepted records its rx→tx latency
    /// sample; every frame it refused is a counted drop with *no*
    /// sample — the lossless-accounting contract extended to
    /// timestamps.
    fn flush_tx(
        &mut self,
        kernel: &mut Kernel,
        tx: &mut TxAccum,
        core: usize,
        timer: &mut StageTimer,
    ) {
        let TxAccum {
            ports,
            spare,
            delivered_ts,
            batch,
            batch_ts,
        } = tx;
        for (port, mut pkts) in ports.drain(..) {
            let mut dropped = 0u64;
            let mut tx_full = 0u64;
            let mut vhost_down = 0u64;
            delivered_ts.clear();
            let Some(Some(p)) = self.ports.get_mut(port as usize) else {
                // The port vanished after accumulation (cannot happen
                // within one burst, but stay defensive).
                self.stats.dropped += pkts.len() as u64;
                for pkt in pkts.drain(..) {
                    self.pool.put(pkt);
                }
                spare.push(pkts);
                continue;
            };
            let pool = &mut self.pool;
            match &mut p.ty {
                PortType::Afxdp(a) => {
                    // TX on queue 0 of the egress port (single-queue TX
                    // model), in chunks of the ring burst size. A burst's
                    // shortfall (tx ring full) is a counted drop — the
                    // PMD never blocks on a full ring. The ring accepts
                    // each chunk's prefix, so the first `sent` stamps of
                    // a chunk are the delivered ones.
                    let mut attempted = 0usize;
                    let mut sent = 0usize;
                    for pkt in pkts.drain(..) {
                        if batch.is_full() {
                            attempted += batch.len();
                            let n_sent = a.tx_burst(kernel, 0, core, batch, pool);
                            sent += n_sent;
                            delivered_ts.extend(batch_ts.drain(..).take(n_sent));
                        }
                        batch_ts.push(pkt.rx_ts);
                        let _ = batch.push(pkt);
                    }
                    if !batch.is_empty() {
                        attempted += batch.len();
                        let n_sent = a.tx_burst(kernel, 0, core, batch, pool);
                        sent += n_sent;
                        delivered_ts.extend(batch_ts.drain(..).take(n_sent));
                    }
                    let shortfall = (attempted - sent) as u64;
                    dropped += shortfall;
                    tx_full += shortfall;
                }
                PortType::Dpdk(d) => {
                    // Per-packet mbuf allocation: an exhausted pool drops
                    // exactly the frames that failed to allocate.
                    let mut mbufs = Vec::with_capacity(pkts.len());
                    for pkt in pkts.drain(..) {
                        match d.pool.alloc() {
                            Some(mut m) => {
                                m.set_data(pkt.data());
                                mbufs.push(m);
                                delivered_ts.push(pkt.rx_ts);
                            }
                            None => dropped += 1,
                        }
                        pool.put(pkt);
                    }
                    if !mbufs.is_empty() {
                        d.tx_burst(kernel, mbufs, core);
                    }
                }
                PortType::Tap { ifindex }
                | PortType::Internal {
                    tap_ifindex: ifindex,
                } => {
                    let ifx = *ifindex;
                    for pkt in pkts.drain(..) {
                        delivered_ts.push(pkt.rx_ts);
                        kernel.raw_socket_send(ifx, pkt.data().to_vec(), core);
                        pool.put(pkt);
                    }
                }
                PortType::VhostUser(v) => {
                    // The vring accepts a prefix of the burst; the rest
                    // is a counted drop (guest disconnected or ring
                    // full).
                    let accepted = v.enqueue_burst(kernel, pkts.iter().map(|p| p.data()), core);
                    delivered_ts.extend(pkts.iter().take(accepted).map(|p| p.rx_ts));
                    let lost = (pkts.len() - accepted) as u64;
                    dropped += lost;
                    vhost_down += lost;
                    for pkt in pkts.drain(..) {
                        pool.put(pkt);
                    }
                }
                PortType::AfPacket(a) => {
                    for pkt in pkts.drain(..) {
                        delivered_ts.push(pkt.rx_ts);
                        a.send(kernel, pkt.data().to_vec(), core);
                        pool.put(pkt);
                    }
                }
                PortType::Tunnel(_) => unreachable!("tunnel handled in port_send"),
            }
            spare.push(pkts);
            self.stats.dropped += dropped;
            self.stats.tx_full_drops += tx_full;
            self.stats.vhost_tx_drops += vhost_down;
            timer.mark(Stage::Tx, kernel.sim.cpus.core_ns(core));
            // Sample after the tx mark so the backend handoff cost is
            // part of the measured latency.
            let now = pmd_now_ns(kernel, core);
            for &ts in delivered_ts.iter().flatten() {
                debug_assert!(now >= ts, "tx time precedes the rx stamp");
                self.latency.record(port, core, now.saturating_sub(ts));
            }
        }
    }

    /// Execute actions; returns `Some(pkt)` if the packet recirculates.
    /// Output actions queue frames on `tx` (tunnel encap and software
    /// TSO still run here); the real burst leaves in `flush_tx`.
    /// `ct_verdict` is the packet's verdict for the first `ct` action
    /// when its batch was tracked ahead; a `ct` action without one
    /// tracks the packet as a batch of one.
    #[allow(clippy::too_many_arguments)]
    fn execute_actions(
        &mut self,
        kernel: &mut Kernel,
        mut pkt: DpPacket,
        actions: &[DpAction],
        mut ct_verdict: Option<CtVerdict>,
        core: usize,
        timer: &mut StageTimer,
        tx: &mut TxAccum,
    ) -> Option<DpPacket> {
        for (i, act) in actions.iter().enumerate() {
            match act {
                DpAction::Output(p) => {
                    timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
                    let last = i + 1 == actions.len();
                    if last {
                        self.port_send(kernel, *p, pkt, core, tx);
                        timer.mark(Stage::Tx, kernel.sim.cpus.core_ns(core));
                        return None;
                    }
                    let mut clone = self.pool.take();
                    clone.set_data(pkt.data());
                    clone.tunnel = pkt.tunnel;
                    clone.offloads = pkt.offloads;
                    clone.rx_ts = pkt.rx_ts;
                    self.port_send(kernel, *p, clone, core, tx);
                    timer.mark(Stage::Tx, kernel.sim.cpus.core_ns(core));
                }
                DpAction::SetTunnel { id, dst } => {
                    pkt.tunnel = Some(ovs_packet::dp_packet::TunnelMetadata {
                        tun_id: *id,
                        src: [0, 0, 0, 0], // filled from the tunnel port's local_ip
                        dst: *dst,
                        tos: 0,
                        ttl: 64,
                    });
                }
                DpAction::SetEthSrc(m) => {
                    if pkt.len() >= 14 {
                        let mut f = ovs_packet::EthernetFrame::new_unchecked(pkt.data_mut());
                        f.set_src(*m);
                    }
                }
                DpAction::SetEthDst(m) => {
                    if pkt.len() >= 14 {
                        let mut f = ovs_packet::EthernetFrame::new_unchecked(pkt.data_mut());
                        f.set_dst(*m);
                    }
                }
                DpAction::PushVlan(tci) => pkt.push_vlan(*tci),
                DpAction::PopVlan => pkt.pop_vlan(),
                DpAction::Ct { zone, commit, nat } => {
                    // Everything up to here was generic action work;
                    // the conntrack pass gets its own stage.
                    timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
                    let v = ct_verdict.take().unwrap_or_else(|| {
                        let p = ct_packet(&mut pkt, *zone);
                        let action = CtAction {
                            zone: *zone,
                            commit: *commit,
                            mark: None,
                            nat: *nat,
                        };
                        let now = kernel.sim.clock.now_ns();
                        self.ct
                            .process_full(p.key, action, p.tcp_flags, Some(core), now)
                    });
                    coverage!("dpif_ct_lookup");
                    pkt.ct_state = v.state;
                    pkt.ct_zone = *zone;
                    pkt.ct_mark = v.mark;
                    let c = kernel.sim.costs.userspace_ct_ns;
                    kernel.sim.charge(core, Context::User, c);
                    if let Some(reason) = v.drop {
                        match reason {
                            ovs_ct::CtDrop::ZoneLimit => self.stats.ct_limit_drops += 1,
                            ovs_ct::CtDrop::TableFull => self.stats.ct_full_drops += 1,
                            ovs_ct::CtDrop::InvalidState => self.stats.ct_invalid_drops += 1,
                        }
                        self.stats.dropped += 1;
                        coverage!("dpif_ct_drop");
                        timer.mark(Stage::CtLookup, kernel.sim.cpus.core_ns(core));
                        if let Some(t) = self.trace.as_mut() {
                            t.note(format!(
                                "ct(zone={zone}): refused ({}), drop",
                                reason.label()
                            ));
                        }
                        self.pool.put(pkt);
                        return None;
                    }
                    if let Some(t) = self.trace.as_mut() {
                        t.note(format!(
                            "ct(zone={zone},commit={commit}): verdict ct_state=0x{:02x}{}",
                            v.state,
                            if v.nat.is_some() {
                                ", nat rewrite applied"
                            } else {
                                ""
                            }
                        ));
                    }
                    if let Some(rw) = v.nat {
                        coverage!("dpif_ct_nat");
                        ovs_ct::apply_rewrite(pkt.data_mut(), &rw);
                        let c = kernel.sim.costs.csum_ns(pkt.len());
                        kernel.sim.charge(core, Context::User, c);
                    }
                    timer.mark(Stage::CtLookup, kernel.sim.cpus.core_ns(core));
                }
                DpAction::Recirc(rid) => {
                    pkt.recirc_id = *rid;
                    timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
                    let c = kernel.sim.costs.recirc_ns;
                    kernel.sim.charge(core, Context::User, c);
                    timer.mark(Stage::Recirc, kernel.sim.cpus.core_ns(core));
                    if let Some(t) = self.trace.as_mut() {
                        t.note(format!("recirc(0x{rid:x})"));
                    }
                    return Some(pkt);
                }
                DpAction::Meter(id) => {
                    let now = kernel.sim.clock.now_ns();
                    if !self.meters.offer(*id, now, pkt.len()) {
                        self.stats.meter_drops += 1;
                        self.stats.dropped += 1;
                        coverage!("dpif_meter_drop");
                        timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
                        if let Some(t) = self.trace.as_mut() {
                            t.note(format!("meter({id}): rate exceeded, drop"));
                        }
                        self.pool.put(pkt);
                        return None;
                    }
                }
                DpAction::NfChain(chain_id) => {
                    // Terminal: the packet leaves the classification
                    // pipeline and enters the NF subsystem. One ring
                    // enqueue plus the hand-off into the NF framework's
                    // memory (DESIGN.md §17).
                    timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
                    let c = kernel.sim.costs.nf_ring_ns + kernel.sim.costs.copy_ns(pkt.len());
                    kernel.sim.charge(core, Context::User, c);
                    match self.nfv.ingress(*chain_id, pkt, &mut self.pool) {
                        ovs_nfv::Ingress::Queued { nf } => {
                            coverage!("nf_chain_enqueue");
                            if let Some(t) = self.trace.as_mut() {
                                t.note(format!("nf_chain({chain_id}): queued on nf {nf}"));
                            }
                        }
                        ovs_nfv::Ingress::Exit { pkt, port } => {
                            // Every NF bypassed (or empty chain): the
                            // chain degenerates to an output.
                            timer.mark(Stage::NfExec, kernel.sim.cpus.core_ns(core));
                            if let Some(t) = self.trace.as_mut() {
                                t.note(format!(
                                    "nf_chain({chain_id}): all NFs bypassed, output:{port}"
                                ));
                            }
                            self.port_send(kernel, port, pkt, core, tx);
                            timer.mark(Stage::Tx, kernel.sim.cpus.core_ns(core));
                            return None;
                        }
                        ovs_nfv::Ingress::RingFull { nf } => {
                            self.stats.nf_ring_full += 1;
                            self.stats.dropped += 1;
                            coverage!("nf_ring_full");
                            if let Some(t) = self.trace.as_mut() {
                                t.note(format!("nf_chain({chain_id}): nf {nf} ring full, drop"));
                            }
                        }
                        ovs_nfv::Ingress::FailClosed { nf } => {
                            self.stats.nf_fail_closed_drops += 1;
                            self.stats.dropped += 1;
                            coverage!("nf_fail_closed");
                            if let Some(t) = self.trace.as_mut() {
                                t.note(format!(
                                    "nf_chain({chain_id}): nf {nf} dead (fail-closed), drop"
                                ));
                            }
                        }
                        ovs_nfv::Ingress::NoChain => {
                            // Misconfiguration fails closed, never open.
                            self.stats.nf_fail_closed_drops += 1;
                            self.stats.dropped += 1;
                            coverage!("nf_fail_closed");
                            if let Some(t) = self.trace.as_mut() {
                                t.note(format!("nf_chain({chain_id}): no such chain, drop"));
                            }
                        }
                    }
                    timer.mark(Stage::NfExec, kernel.sim.cpus.core_ns(core));
                    return None;
                }
            }
        }
        timer.mark(Stage::Actions, kernel.sim.cpus.core_ns(core));
        self.pool.put(pkt);
        None
    }

    /// Attempt tunnel decapsulation on a received frame, in place: the
    /// outer headers are pulled off the front of the packet.
    fn try_tunnel_rx(&mut self, kernel: &mut Kernel, pkt: &mut DpPacket, core: usize) {
        for no in 0..self.ports.len() {
            let Some(Some(Port {
                ty: PortType::Tunnel(cfg),
                ..
            })) = self.ports.get(no)
            else {
                continue;
            };
            let cfg = *cfg;
            if let Some(meta) = tunnel::decap_in_place(&cfg, pkt) {
                let no = no as PortNo;
                self.stats.tunnel_decaps += 1;
                coverage!("dpif_tunnel_decap");
                let c = kernel.sim.costs.userspace_tunnel_ns;
                kernel.sim.charge(core, Context::User, c);
                if let Some(t) = self.trace.as_mut() {
                    t.note(format!(
                        "tunnel decap ({:?}): tun_id={}, inner {} bytes, in_port={no}",
                        cfg.kind,
                        meta.tun_id,
                        pkt.len()
                    ));
                }
                pkt.tunnel = Some(meta);
                pkt.in_port = no;
                return;
            }
        }
    }

    /// Send a packet out a port, segmenting for TSO-less egress. The
    /// frame(s) land on `tx` for the end-of-burst flush.
    fn port_send(
        &mut self,
        kernel: &mut Kernel,
        port: PortNo,
        mut pkt: DpPacket,
        core: usize,
        tx: &mut TxAccum,
    ) {
        // Tunnel output: encapsulate, then re-send on the egress port.
        let tunnel_cfg = match self.ports.get(port as usize) {
            Some(Some(Port {
                ty: PortType::Tunnel(cfg),
                ..
            })) => Some(*cfg),
            _ => None,
        };
        if let Some(cfg) = tunnel_cfg {
            // A TSO super-frame must be segmented before encapsulation:
            // neither our uplinks nor the paper's support tunnel TSO.
            if pkt.len() > 1514 {
                let segs = tso::segment(pkt.data(), 1460);
                if segs.len() > 1 {
                    self.stats.tso_segments += segs.len() as u64;
                    for seg in segs {
                        let mut p = self.pool.take();
                        p.set_data(&seg);
                        p.tunnel = pkt.tunnel;
                        p.offloads = pkt.offloads;
                        p.rx_ts = pkt.rx_ts;
                        self.port_send(kernel, port, p, core, tx);
                    }
                    self.pool.put(pkt);
                    return;
                }
            }
            let Some(mut meta) = pkt.tunnel else {
                self.stats.dropped += 1;
                coverage!("dpif_tunnel_no_md");
                self.pool.put(pkt);
                return;
            };
            meta.src = cfg.local_ip;
            let entropy = pkt.parse().rss_hash() as u16;
            let c = kernel.sim.costs.userspace_tunnel_ns;
            kernel.sim.charge(core, Context::User, c);
            // The egress MAC is the MAC of the datapath port on the
            // route's device, so a resolved route always has its port.
            let ports = &self.ports;
            let egress_mac = |ifindex: u32| {
                ports
                    .iter()
                    .flatten()
                    .any(|p| p.ifindex() == Some(ifindex))
                    .then(|| kernel.device(ifindex).mac)
            };
            let egress =
                tunnel::encap_in_place(&cfg, &self.rtnl, egress_mac, &meta, &mut pkt, entropy)
                    .ok()
                    .and_then(|ifindex| {
                        self.ports
                            .iter()
                            .position(|p| p.as_ref().and_then(|p| p.ifindex()) == Some(ifindex))
                    });
            let Some(egress) = egress else {
                // No route, ARP entry or egress MAC.
                self.stats.dropped += 1;
                coverage!("dpif_tunnel_encap_fail");
                self.pool.put(pkt);
                return;
            };
            self.stats.tunnel_encaps += 1;
            coverage!("dpif_tunnel_encap");
            if let Some(t) = self.trace.as_mut() {
                t.note(format!(
                    "tunnel encap ({:?}): tun_id={}, dst={}.{}.{}.{}, outer {} bytes",
                    cfg.kind,
                    meta.tun_id,
                    meta.dst[0],
                    meta.dst[1],
                    meta.dst[2],
                    meta.dst[3],
                    pkt.len()
                ));
            }
            // The outer frame leaves as a packet of its own: only the rx
            // stamp carries over.
            let rx_ts = pkt.rx_ts;
            pkt.reset_metadata();
            pkt.rx_ts = rx_ts;
            self.port_send(kernel, egress as PortNo, pkt, core, tx);
            return;
        }

        // Software TSO when the egress cannot segment.
        let needs_segmentation = match self.ports.get(port as usize).and_then(|p| p.as_ref()) {
            Some(p) => match &p.ty {
                // XDP/AF_XDP has no TSO yet (§6) — segment in software.
                PortType::Afxdp(_) | PortType::AfPacket(_) => pkt.len() > 1514,
                PortType::Dpdk(d) => pkt.len() > 1514 && !kernel.device(d.ifindex).caps.tso,
                // virtio (vhostuser, tap with vnet headers) passes
                // super-frames through.
                PortType::VhostUser(_) | PortType::Tap { .. } | PortType::Internal { .. } => false,
                PortType::Tunnel(_) => false,
            },
            None => false,
        };
        if needs_segmentation {
            let segs = tso::segment(pkt.data(), 1460);
            self.stats.tso_segments += segs.len() as u64;
            coverage!("dpif_tso_segment", segs.len());
            if let Some(t) = self.trace.as_mut() {
                t.note(format!(
                    "software TSO: segmented into {} frames",
                    segs.len()
                ));
            }
            for seg in segs {
                let mut p = self.pool.take();
                p.set_data(&seg);
                p.offloads = pkt.offloads;
                p.rx_ts = pkt.rx_ts;
                self.port_tx_raw(kernel, port, p, core, tx);
            }
            self.pool.put(pkt);
            return;
        }
        self.port_tx_raw(kernel, port, pkt, core, tx);
    }

    /// Account and queue one outgoing frame. The backend I/O happens in
    /// `flush_tx`, once per port per burst.
    fn port_tx_raw(
        &mut self,
        kernel: &mut Kernel,
        port: PortNo,
        pkt: DpPacket,
        core: usize,
        tx: &mut TxAccum,
    ) {
        // ERSPAN mirroring: copy watched traffic toward its collector
        // before normal transmission.
        // Indexed, because sending the copy needs `&mut self`.
        for i in 0..self.mirrors.len() {
            let out = self.mirrors[i].out_port;
            if self.mirrors[i].watch_port != port || out == port {
                continue;
            }
            let wrapped = self.mirrors[i].encapsulate(pkt.data());
            let c = kernel.sim.costs.userspace_tunnel_ns + kernel.sim.costs.copy_ns(pkt.len());
            kernel.sim.charge(core, Context::User, c);
            let mut mirror_pkt = self.pool.take();
            mirror_pkt.set_data(&wrapped);
            mirror_pkt.rx_ts = pkt.rx_ts;
            self.port_tx_raw(kernel, out, mirror_pkt, core, tx);
        }
        let Some(Some(p)) = self.ports.get_mut(port as usize) else {
            self.stats.dropped += 1;
            coverage!("dpif_tx_no_port");
            self.pool.put(pkt);
            return;
        };
        self.stats.tx_packets += 1;
        coverage!("dpif_tx");
        if let Some(t) = self.trace.as_mut() {
            t.note(format!("output: port {port} ({}, {:?})", p.name, p.ty));
            // Let packet-level tools correlate the transmitted frame with
            // this trace (`tcpdump` prints a "[traced]" tag).
            kernel.mark_traced(pkt.data());
        }
        tx.push(port, pkt);
    }
}

/// Driver for the in-kernel datapath (`dpif-netlink`): handles kernel
/// upcalls by translating through `ofproto` and installing kernel
/// megaflows.
#[derive(Default)]
pub struct DpifNetlink {
    /// The OpenFlow pipeline.
    pub ofproto: Ofproto,
    /// Upcalls handled.
    pub upcalls_handled: u64,
    /// Upcalls that skipped installation at the dynamic flow limit.
    pub flow_limit_hits: u64,
    /// Flows this dpif deleted from the kernel: swept, evicted or
    /// replaced.
    pub flows_deleted: u64,
    /// udpif revalidator state over the kernel flow table.
    pub revalidator: Revalidator,
    /// The kernel flows this dpif installed, by UFID.
    flows: UfidMap<KernelFlow>,
}

/// A kernel flow as the dpif installed it: the masked key and mask
/// `OvsModule` finds it by, the actions a re-translation is compared
/// against, and its ukey. The kernel table lives in another address
/// space, so OVS's `udpif_key` keeps these too.
#[derive(Debug)]
struct KernelFlow {
    key: FlowKey,
    mask: FlowMask,
    actions: Vec<DpAction>,
    ukey: Ukey,
}

impl DpifNetlink {
    /// A handler for a kernel datapath. The kernel module runs the
    /// translated actions as they are: a tunnel output takes its source
    /// address from the Geneve vport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flows this dpif installed and tracks. The kernel table may also
    /// hold flows installed behind its back.
    pub fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    /// Drain and handle all pending kernel upcalls: translate, install the
    /// megaflow, and re-execute the packet. `core` is the handler thread's
    /// core (charged as user time for translation).
    pub fn handle_upcalls(&mut self, kernel: &mut Kernel, core: usize) -> usize {
        let mut handled = 0;
        while let Some(u) = kernel.upcalls.pop_front() {
            handled += 1;
            self.upcalls_handled += 1;
            let version = self.ofproto.version();
            let t = self.ofproto.translate(&u.key);
            let c = t.tables_visited as f64 * kernel.sim.costs.upcall_per_table_ns;
            kernel.sim.charge(core, Context::User, c);
            // Credit the upcalled packet itself; the installed flow's
            // later hits arrive via revalidator stats pushback.
            for r in &t.rules {
                r.credit(1, u.frame.len() as u64);
            }
            let key = u.key.masked(&t.mask);
            let ufid = Ufid::of(&Miniflow::from_key(&key));
            // One flow per masked key, as in the userspace datapath: the
            // kernel would keep a flow under another mask beside the new
            // one, so replace it.
            self.delete_flow(kernel, ufid);
            if self.revalidator.should_install(kernel.ovs.flow_count()) {
                let now = kernel.sim.clock.now_ns();
                kernel
                    .ovs
                    .install_flow_at(&u.key, &t.mask, t.actions.clone(), now);
                let flow = KernelFlow {
                    key,
                    mask: t.mask,
                    actions: t.actions.clone(),
                    ukey: Ukey::new(t.rules, version),
                };
                self.flows.insert(ufid, flow);
            } else {
                self.flow_limit_hits += 1;
                coverage!("flow_limit_hit");
            }
            let mut pkt = DpPacket::from_data(&u.frame);
            pkt.in_port = u.in_port;
            pkt.tunnel = u.tunnel;
            pkt.recirc_id = u.key.recirc_id();
            kernel.ovs_execute(pkt, &t.actions, u.pass, core);
        }
        handled
    }

    /// Delete one tracked flow (by UFID) from the kernel, pushing its
    /// outstanding stats up to the OpenFlow rules first. Every deletion
    /// of a flow this dpif installed comes here.
    fn delete_flow(&mut self, kernel: &mut Kernel, ufid: Ufid) {
        let Some(mut f) = self.flows.remove(&ufid) else {
            return;
        };
        if let Some((packets, bytes, _, _)) = kernel.ovs.flow_stats(&f.key, &f.mask) {
            f.ukey.push(&mut self.revalidator.stats, packets, bytes);
        }
        kernel.ovs.remove_flow(&f.key, &f.mask);
        self.flows_deleted += 1;
    }

    /// One full revalidator round over the **kernel** flow table, via the
    /// flows installed at upcall time, in masked-key-hash order — the
    /// same pass as [`DpifNetdev::revalidate`], driven over Netlink in
    /// real OVS. Flows installed behind the dpif's back (e.g. pre-warmed
    /// scenario flows) have no ukey and are left alone.
    pub fn revalidate(&mut self, kernel: &mut Kernel, core: usize) -> SweepSummary {
        let t0 = kernel.sim.cpus.core_ns(core);
        let now = kernel.sim.clock.now_ns();
        let mut sweep =
            self.revalidator
                .begin_sweep(kernel.ovs.flow_count(), now, self.ofproto.version());
        let mut order: Vec<_> = self
            .flows
            .iter()
            .map(|(&ufid, f)| (f.key.hash(), ufid))
            .collect();
        order.sort_unstable_by_key(|&(h, _)| h);
        for (_, ufid) in order {
            let c = kernel.sim.costs.revalidate_flow_ns;
            kernel.sim.charge(core, Context::User, c);
            let f = self
                .flows
                .get_mut(&ufid)
                .expect("a sweep deletes only the flow at hand");
            let Some(counters) = kernel.ovs.flow_stats(&f.key, &f.mask) else {
                // The kernel lost the flow behind the dpif's back.
                self.delete_flow(kernel, ufid);
                continue;
            };
            let flow = DumpedFlow {
                key: &f.key,
                mask: &f.mask,
                actions: &f.actions,
                counters,
                ukey: &mut f.ukey,
            };
            let verdict = self
                .revalidator
                .revalidate_flow(&mut sweep, flow, &mut self.ofproto);
            if verdict == Verdict::Delete {
                self.delete_flow(kernel, ufid);
            }
        }
        let ovs = &kernel.ovs;
        let candidates = self.flows.iter().filter_map(|(&ufid, f)| {
            let (_, _, used, _) = ovs.flow_stats(&f.key, &f.mask)?;
            Some((used, f.key.hash(), ufid))
        });
        let victims = self
            .revalidator
            .evict(&mut sweep, ovs.flow_count(), candidates);
        for ufid in victims {
            self.delete_flow(kernel, ufid);
        }
        let dump_ms = (kernel.sim.cpus.core_ns(core) - t0) / 1_000_000;
        self.revalidator.end_sweep(sweep, dump_ms)
    }

    /// `ovs-appctl upcall/show` equivalent for the kernel datapath.
    pub fn upcall_show(&self, kernel: &Kernel) -> String {
        let mut out = self.revalidator.show(
            "system@ovs-system",
            kernel.ovs.flow_count(),
            self.flow_limit_hits,
        );
        out.push_str(&format!("  queue full    : {}\n", kernel.upcall_drops));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofproto::{OfAction, OfRule};
    use ovs_afxdp::OptLevel;
    use ovs_kernel::dev::{DeviceKind, NetDevice};
    use ovs_kernel::guest::{Guest, GuestRole, VirtioBackend};
    use ovs_packet::ethernet::EtherType;
    use ovs_packet::flow::{fields, FlowKey, FlowMask};
    use ovs_packet::{builder, MacAddr};

    const M1: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const M2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    fn frame64() -> Vec<u8> {
        builder::udp_ipv4_frame(M1, M2, [10, 0, 0, 1], [10, 0, 0, 2], 100, 200, 64)
    }

    fn port_forward_rule(in_port: PortNo, out_port: PortNo) -> OfRule {
        let mut key = FlowKey::default();
        key.set_in_port(in_port);
        OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![OfAction::Output(out_port)],
            cookie: 0,
        }
    }

    /// Two AF_XDP physical ports, forwarding p0 -> p1 (the P2P shape).
    fn p2p_setup() -> (Kernel, DpifNetdev, u32, u32) {
        let mut k = Kernel::new(8);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let eth1 = k.add_device(NetDevice::new(
            "eth1",
            M2,
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let mut dp = DpifNetdev::new();
        let a0 = AfxdpPort::open(&mut k, eth0, 256, OptLevel::O5).unwrap();
        let a1 = AfxdpPort::open(&mut k, eth1, 256, OptLevel::O5).unwrap();
        let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
        let p1 = dp.add_port("eth1", PortType::Afxdp(a1));
        dp.ofproto.add_rule(port_forward_rule(p0, p1));
        (k, dp, eth0, eth1)
    }

    #[test]
    fn p2p_forwarding_through_cache_hierarchy() {
        let (mut k, mut dp, eth0, eth1) = p2p_setup();
        // First packet: upcall. Later packets: megaflow/EMC hits.
        for _ in 0..10 {
            k.receive(eth0, 0, frame64());
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        assert_eq!(k.device(eth1).tx_wire.len(), 10);
        assert_eq!(dp.stats.upcalls, 1, "only the first packet upcalls");
        assert_eq!(dp.stats.megaflow_hits + dp.stats.emc_hits, 9);
        assert_eq!(dp.megaflow_count(), 1);
    }

    #[test]
    fn a_runt_through_a_push_vlan_rule_is_forwarded_unchanged() {
        let (mut k, mut dp, _eth0, eth1) = p2p_setup();
        let mut rule = port_forward_rule(0, 1);
        rule.priority = 20;
        rule.actions = vec![OfAction::PushVlan(100), OfAction::Output(1)];
        dp.ofproto.add_rule(rule);
        let runt = [0xabu8; 10];
        let mut pkt = DpPacket::from_data(&runt);
        pkt.in_port = 0;
        dp.process_packet(&mut k, pkt, 1);
        assert_eq!(k.device(eth1).tx_wire, [runt.to_vec()]);
    }

    #[test]
    fn emc_promotion_after_repeated_hits() {
        let (mut k, mut dp, eth0, _eth1) = p2p_setup();
        dp.emc.insert_inv_prob = 1; // promote on first megaflow hit
        for _ in 0..3 {
            k.receive(eth0, 0, frame64());
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        assert_eq!(dp.stats.upcalls, 1);
        // With insertion probability 1, the upcall itself populates the
        // EMC, so the second and third packets both hit it.
        assert_eq!(dp.stats.megaflow_hits, 0);
        assert_eq!(dp.stats.emc_hits, 2);
    }

    #[test]
    fn thousand_flows_spread_across_megaflow() {
        let (mut k, mut dp, eth0, eth1) = p2p_setup();
        // The in_port-only rule wildcards addresses, so all 1000 flows
        // share ONE megaflow — the point of megaflows.
        for i in 0..1000u16 {
            let f = builder::udp_ipv4_frame(
                M1,
                M2,
                [10, 0, (i >> 8) as u8, i as u8],
                [10, 1, (i >> 8) as u8, i as u8],
                1000 + i,
                2000,
                64,
            );
            k.receive(eth0, 0, f);
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        assert_eq!(dp.stats.upcalls, 1, "one megaflow covers all flows");
        assert_eq!(dp.megaflow_count(), 1);
        assert_eq!(k.device(eth1).tx_wire.len(), 1000);
    }

    #[test]
    fn specific_rules_make_per_flow_megaflows() {
        let (mut k, mut dp, eth0, _) = p2p_setup();
        // Replace pipeline: match on nw_dst -> per-/32 megaflows.
        dp.ofproto = Ofproto::new();
        let mut mask = FlowMask::of_fields(&[&fields::IN_PORT]);
        mask.set_nw_dst_v4_prefix(32);
        for i in 0..16u8 {
            let mut key = FlowKey::default();
            key.set_in_port(0);
            key.set_nw_dst_v4([10, 1, 0, i]);
            dp.ofproto.add_rule(OfRule {
                table: 0,
                priority: 1,
                key,
                mask,
                actions: vec![OfAction::Output(1)],
                cookie: 0,
            });
        }
        for i in 0..16u8 {
            let f = builder::udp_ipv4_frame(M1, M2, [10, 0, 0, 1], [10, 1, 0, i], 5, 6, 64);
            k.receive(eth0, 0, f);
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        assert_eq!(dp.stats.upcalls, 16, "per-destination megaflows");
        assert_eq!(dp.megaflow_count(), 16);
    }

    #[test]
    fn ct_pipeline_recirculates_and_tracks() {
        let (mut k, mut dp, eth0, eth1) = p2p_setup();
        dp.ofproto = Ofproto::new();
        // Table 0: ct(zone 5, commit) -> resume at table 1.
        let mut key = FlowKey::default();
        key.set_in_port(0);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![OfAction::Ct {
                zone: 5,
                commit: true,
                resume_table: 1,
                nat: None,
            }],
            cookie: 0,
        });
        // Table 1: tracked packets out port 1.
        dp.ofproto.add_rule(OfRule {
            table: 1,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Output(1)],
            cookie: 0,
        });
        k.receive(eth0, 0, frame64());
        dp.pmd_poll(&mut k, 0, 0, 1);
        assert_eq!(k.device(eth1).tx_wire.len(), 1);
        assert_eq!(dp.stats.recirculations, 1);
        assert_eq!(dp.ct.len(), 1, "connection committed in userspace CT");
        assert_eq!(dp.stats.upcalls, 2, "one per pipeline pass");
    }

    #[test]
    fn vhostuser_pvp_roundtrip() {
        // phys -> vm (vhostuser, PMD forwarder) -> phys: the PVP loop.
        let mut k = Kernel::new(8);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 25.0 },
            1,
        ));
        let g = k.add_guest(Guest::new(
            "vm0",
            M2,
            [10, 0, 0, 2],
            GuestRole::PmdForwarder,
            VirtioBackend::VhostUser,
            4,
        ));
        let mut dp = DpifNetdev::new();
        let a0 = AfxdpPort::open(&mut k, eth0, 256, OptLevel::O5).unwrap();
        let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
        let pv = dp.add_port("vhost0", PortType::VhostUser(VhostUserDev::new(g)));
        dp.ofproto.add_rule(port_forward_rule(p0, pv));
        dp.ofproto.add_rule(port_forward_rule(pv, p0));

        k.receive(eth0, 0, frame64());
        dp.pmd_poll(&mut k, p0, 0, 1); // NIC -> datapath -> vhost
        assert_eq!(k.guests[g].rx_ring.len(), 1);
        k.run_guest(g); // guest forwards
        dp.pmd_poll(&mut k, pv, 0, 1); // vhost -> datapath -> NIC
        assert_eq!(k.device(eth0).tx_wire.len(), 1);
        let out = &k.device(eth0).tx_wire[0];
        assert_eq!(&out[0..6], M1.as_bytes(), "guest swapped MACs");
    }

    /// Overlay: port 0 (afxdp "vm-facing"), an AF_XDP uplink on
    /// 172.16.0.1/24 with a neighbour at .2, and a geneve tunnel port.
    /// Returns the kernel, the datapath, eth0's and the uplink's
    /// ifindex, and the vm-facing and tunnel port numbers.
    fn overlay_setup() -> (Kernel, DpifNetdev, u32, u32, PortNo, PortNo) {
        let mut k = Kernel::new(4);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let uplink = k.add_device(NetDevice::new(
            "uplink",
            M2,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        k.add_addr(uplink, [172, 16, 0, 1], 24);
        ovs_kernel::tools::ip_neigh_add(
            &mut k,
            [172, 16, 0, 2],
            MacAddr::new(4, 0, 0, 0, 0, 2),
            "uplink",
        )
        .unwrap();

        let mut dp = DpifNetdev::new();
        let a0 = AfxdpPort::open(&mut k, eth0, 128, OptLevel::O5).unwrap();
        let au = AfxdpPort::open(&mut k, uplink, 128, OptLevel::O5).unwrap();
        let p0 = dp.add_port("eth0", PortType::Afxdp(a0));
        let _pu = dp.add_port("uplink", PortType::Afxdp(au));
        let pt = dp.add_port(
            "gnv0",
            PortType::Tunnel(TunnelConfig {
                kind: tunnel::TunnelKind::Geneve,
                local_ip: [172, 16, 0, 1],
            }),
        );
        dp.sync_rtnl(&k);
        (k, dp, eth0, uplink, p0, pt)
    }

    #[test]
    fn geneve_tunnel_tx_and_rx() {
        let (mut k, mut dp, eth0, uplink, p0, pt) = overlay_setup();
        let mut key = FlowKey::default();
        key.set_in_port(p0);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![
                OfAction::SetTunnel {
                    id: 5001,
                    dst: [172, 16, 0, 2],
                },
                OfAction::Output(pt),
            ],
            cookie: 0,
        });

        k.receive(eth0, 0, frame64());
        dp.pmd_poll(&mut k, p0, 0, 1);
        assert_eq!(dp.stats.tunnel_encaps, 1);
        let outer = k
            .dev_mut(uplink)
            .tx_wire
            .pop_front()
            .expect("encapsulated frame on uplink");
        // Decap side: a second datapath with the remote endpoint.
        let mut dp2 = DpifNetdev::new();
        let pt2 = dp2.add_port(
            "gnv0",
            PortType::Tunnel(TunnelConfig {
                kind: tunnel::TunnelKind::Geneve,
                local_ip: [172, 16, 0, 2],
            }),
        );
        let mut key2 = FlowKey::default();
        key2.set_in_port(pt2);
        key2.set_tun_id(5001);
        dp2.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key: key2,
            mask: FlowMask::of_fields(&[&fields::IN_PORT, &fields::TUN_ID]),
            actions: vec![],
            cookie: 0,
        });
        let pkt = DpPacket::from_data(&outer);
        dp2.process_packet(&mut k, pkt, 1);
        assert_eq!(dp2.stats.tunnel_decaps, 1, "remote side decapsulated");
    }

    #[test]
    fn tunnel_drops_are_named_and_return_their_descriptors() {
        // UDP from port 1 leaves on the tunnel with no tunnel metadata;
        // from port 2 it is tunnelled toward an address with no route.
        let (mut k, mut dp, eth0, uplink, p0, pt) = overlay_setup();
        let rule = |tp: u16, actions: Vec<OfAction>| {
            let mut key = FlowKey::default();
            key.set_in_port(p0);
            key.set_eth_type(EtherType::Ipv4);
            key.set_nw_proto(17);
            key.set_tp_src(tp);
            OfRule {
                table: 0,
                priority: 10,
                key,
                mask: FlowMask::of_fields(&[
                    &fields::IN_PORT,
                    &fields::ETH_TYPE,
                    &fields::NW_PROTO,
                    &fields::TP_SRC,
                ]),
                actions,
                cookie: 0,
            }
        };
        dp.ofproto.add_rule(rule(1, vec![OfAction::Output(pt)]));
        let unroutable = OfAction::SetTunnel {
            id: 5001,
            dst: [10, 99, 0, 1],
        };
        dp.ofproto
            .add_rule(rule(2, vec![unroutable, OfAction::Output(pt)]));
        const N: u64 = 40;
        for (tp, counter) in [(1, "dpif_tunnel_no_md"), (2, "dpif_tunnel_encap_fail")] {
            let mut drive = |n: u64| {
                for _ in 0..n {
                    let f =
                        builder::udp_ipv4_frame(M1, M2, [10, 0, 0, 1], [10, 0, 0, 2], tp, 9, 64);
                    k.receive(eth0, 0, f);
                    assert_eq!(dp.pmd_poll(&mut k, p0, 0, 1), 1);
                }
                let pool = dp.packet_pool();
                (
                    dp.stats.dropped,
                    coverage::total(counter),
                    pool.available(),
                    pool.fresh_allocs,
                )
            };
            // Warm-up: the upcall installs the flow, the pool fills.
            let (dropped, named, available, fresh) = drive(4);
            let after = drive(N);
            assert_eq!(after.0 - dropped, N, "{counter}: dropped");
            assert_eq!(after.1 - named, N, "{counter}: named");
            assert_eq!((after.2, after.3), (available, fresh), "{counter}: pool");
        }
        assert!(k.device(uplink).tx_wire.is_empty(), "nothing was sent");
    }

    #[test]
    fn tx_only_socket_keeps_metadata_pool_bounded() {
        // An AF_XDP port that only transmits (an uplink toward a peer
        // that never answers) returns every sent descriptor to the
        // datapath's pool and takes none: the pool must stop at its
        // bound, the O4 ports' umem frames, not grow.
        let (mut k, mut dp, _eth0, eth1) = p2p_setup();
        let bound = dp.packet_pool().bound();
        assert_eq!(bound, 2 * 256, "one descriptor per O4 umem frame");
        for _ in 0..10 * bound / 8 {
            let burst = (0..8).map(|_| {
                let mut p = DpPacket::from_data(&frame64());
                p.in_port = 0;
                p
            });
            dp.process_burst(&mut k, burst, 1);
            k.dev_mut(eth1).tx_wire.clear();
            assert!(
                dp.packet_pool().available() <= bound,
                "descriptor pool grew to {} (bound {bound})",
                dp.packet_pool().available()
            );
        }
        assert_eq!(dp.stats.tx_packets, 10 * bound as u64);
        assert_eq!(dp.packet_pool().available(), bound, "filled to the bound");
        assert_eq!(dp.packet_pool().fresh_allocs, 0, "nothing was received");
    }

    #[test]
    fn tso_segmentation_on_afxdp_egress() {
        let (mut k, mut dp, _eth0, eth1) = p2p_setup();
        // A 4380-byte TCP super-frame injected directly.
        let payload = vec![0u8; 4380];
        let f = builder::tcp_ipv4(
            M1,
            M2,
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1,
            2,
            100,
            0,
            ovs_packet::tcp::flags::ACK,
            &payload,
        );
        let mut pkt = DpPacket::from_data(&f);
        pkt.in_port = 0;
        dp.process_packet(&mut k, pkt, 1);
        assert_eq!(
            dp.stats.tso_segments, 3,
            "segmented to MSS on AF_XDP egress"
        );
        assert_eq!(k.device(eth1).tx_wire.len(), 3);
        // A second, warm super-frame: each segment reuses a descriptor
        // the first frame returned to the pool.
        let reuses = dp.packet_pool().reuses;
        let mut pkt = DpPacket::from_data(&f);
        pkt.in_port = 0;
        dp.process_packet(&mut k, pkt, 1);
        assert_eq!(dp.stats.tso_segments, 6);
        assert_eq!(k.device(eth1).tx_wire.len(), 6);
        assert_eq!(
            dp.packet_pool().reuses,
            reuses + 3,
            "a segment took a fresh descriptor beside a warm pool"
        );
    }

    #[test]
    fn meter_limits_rate() {
        let (mut k, mut dp, eth0, eth1) = p2p_setup();
        dp.ofproto = Ofproto::new();
        let mut key = FlowKey::default();
        key.set_in_port(0);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 1,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![OfAction::Meter(1), OfAction::Output(1)],
            cookie: 0,
        });
        // A meter passing only ~one 64-byte packet.
        dp.meters.set(1, crate::meter::Meter::new(1_000, 512));
        for _ in 0..5 {
            k.receive(eth0, 0, frame64());
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        assert_eq!(k.device(eth1).tx_wire.len(), 1);
        assert_eq!(dp.stats.meter_drops, 4);
    }

    #[test]
    fn stats_invariant_coherent_across_paths() {
        // Exercise every accounting path: upcalls, cache hits, ct
        // recirculation, and meter drops — the invariant must hold after
        // each poll (it is also debug_asserted inside the datapath).
        let (mut k, mut dp, eth0, _eth1) = p2p_setup();
        dp.ofproto = Ofproto::new();
        let mut key = FlowKey::default();
        key.set_in_port(0);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![
                OfAction::Meter(1),
                OfAction::Ct {
                    zone: 5,
                    commit: true,
                    resume_table: 1,
                    nat: None,
                },
            ],
            cookie: 0,
        });
        dp.ofproto.add_rule(OfRule {
            table: 1,
            priority: 0,
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            actions: vec![OfAction::Output(1)],
            cookie: 0,
        });
        dp.meters.set(1, crate::meter::Meter::new(1_000, 512));
        for _ in 0..6 {
            k.receive(eth0, 0, frame64());
            dp.pmd_poll(&mut k, 0, 0, 1);
            assert!(dp.stats.coherent(), "{:?}", dp.stats);
        }
        assert!(dp.stats.meter_drops > 0, "meter engaged");
        assert!(dp.stats.recirculations > 0, "ct recirculated");
        let s = dp.stats;
        assert_eq!(
            s.emc_hits + s.megaflow_hits + s.upcalls,
            s.packets_processed + s.recirculations
        );
    }

    #[test]
    fn trace_renders_pipeline_decisions() {
        let (mut k, mut dp, _eth0, eth1) = p2p_setup();
        // Cold caches: the trace shows the upcall and the translation.
        let cold = dp.ofproto_trace(&mut k, &frame64(), 0, 0);
        assert!(cold.contains("Trace: "), "{cold}");
        assert!(cold.contains("upcall to ofproto"), "{cold}");
        assert!(cold.contains("table 0: matched priority 10"), "{cold}");
        assert!(cold.contains("megaflow installed"), "{cold}");
        assert!(cold.contains("output: port 1"), "{cold}");
        // The traced packet was really forwarded.
        assert_eq!(k.device(eth1).tx_wire.len(), 1);
        assert!(dp.trace.is_none(), "trace detached after rendering");
        // Warm caches: the same packet now shows a cache hit, no upcall.
        let warm = dp.ofproto_trace(&mut k, &frame64(), 0, 0);
        assert!(
            warm.contains("EMC hit") || warm.contains("megaflow hit"),
            "{warm}"
        );
        assert!(!warm.contains("upcall"), "{warm}");
    }

    #[test]
    fn perf_stage_cycles_sum_exactly_to_poll_total() {
        let (mut k, mut dp, eth0, _eth1) = p2p_setup();
        for _ in 0..20 {
            k.receive(eth0, 0, frame64());
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
        let perf = dp.perf.get(&1).expect("core 1 polled");
        assert!(perf.poll_ns_total() > 0, "sim time advanced");
        assert_eq!(
            perf.stage_ns_total(),
            perf.poll_ns_total(),
            "exact attribution"
        );
        let show = dp.pmd_perf_show(k.sim.cpus.hz, false);
        assert!(show.contains("pmd thread core 1"), "{show}");
        assert!(show.contains("emc lookup"), "{show}");
        // Clearing zeroes both counters and perf.
        dp.pmd_stats_clear();
        assert!(dp.perf.is_empty());
        assert_eq!(dp.stats.rx_packets, 0);
    }

    #[test]
    fn netlink_dpif_installs_kernel_flows() {
        // Kernel datapath baseline: miss -> upcall -> install -> fast path.
        let mut k = Kernel::new(4);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            M1,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let eth1 = k.add_device(NetDevice::new(
            "eth1",
            M2,
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let p0 = k
            .ovs
            .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: eth0 });
        let p1 = k
            .ovs
            .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: eth1 });
        k.dev_mut(eth0).attachment = ovs_kernel::Attachment::OvsBridge { port: p0 };
        k.dev_mut(eth1).attachment = ovs_kernel::Attachment::OvsBridge { port: p1 };

        let mut dpif = DpifNetlink::new();
        dpif.ofproto.add_rule(port_forward_rule(p0, p1));

        // First packet misses in the kernel and upcalls.
        k.receive(eth0, 0, frame64());
        assert_eq!(k.upcalls.len(), 1);
        assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
        // The re-executed packet went out eth1, and the flow is installed.
        assert_eq!(k.device(eth1).tx_wire.len(), 1);
        assert_eq!(k.ovs.flow_count(), 1);
        // Subsequent packets take the kernel fast path: no upcalls.
        k.receive(eth0, 0, frame64());
        assert!(k.upcalls.is_empty());
        assert_eq!(k.device(eth1).tx_wire.len(), 2);
    }
}
