//! The NF manager: owns every NF instance, its ring, and the per-tenant
//! chain table.
//!
//! The shape is openNetVM's: a centralized manager owns the rings and the
//! chain table; NFs are isolated workers that only ever see the packets
//! handed to them through their ring. As openNetVM's rings carry buffer
//! pointers, a ring here carries `DpPacket` handles: the packet that
//! matched `nf_chain:N` is the one that moves from NF to NF and leaves
//! the chain, with no copy in or out, and the datapath's O4 descriptor
//! pool is the only pool. The manager owns a packet while it is queued;
//! one it refuses, drops or loses to a crash goes back to the pool the
//! caller lends `ingress` and `poll_nf`.
//!
//! The manager is deliberately kernel-free: it never charges simulated
//! cycles, reads clocks, or touches datapath stats. `ovs-core` drives it
//! (`DpifNetdev::nf_poll`) and owns all cost/ledger accounting; the
//! manager just reports exact outcomes.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ovs_packet::DpPacket;
use ovs_ring::{DpPacketPool, BATCH_SIZE};

use crate::chain::{ChainId, ChainPolicy, NfChain};
use crate::nf::{NetworkFunction, NfSpec, NfVerdict};

pub type NfId = u32;

/// Panic payload for a simulated NF crash. A `&'static str` literal so
/// the test-side quiet panic hook (which filters on the
/// "simulated datapath bug" prefix) can downcast and suppress it.
pub const NF_PANIC_MSG: &str = "simulated datapath bug: nf worker hit a poisoned frame";

/// Per-NF counters, rendered by `nfv/stats` and the goldens.
#[derive(Debug, Clone, Copy, Default)]
pub struct NfStats {
    /// Packets popped from this NF's ring and handed to `process`.
    pub rx: u64,
    /// Packets this NF forwarded onward (next NF, default output, or steer).
    pub tx: u64,
    /// Packets this NF steered out mid-chain (subset of `tx`).
    pub steered: u64,
    /// Packets this NF dropped by verdict.
    pub verdict_drops: u64,
    /// Packets lost because this NF's ring was full at enqueue time.
    pub ring_full_drops: u64,
    /// Packets lost in-flight when this NF crashed mid-batch.
    pub crash_drops: u64,
    /// Packets refused because this NF was dead under a fail-closed chain.
    pub fail_closed_drops: u64,
    /// Times this NF panicked.
    pub crashes: u64,
    /// Times this NF was rebuilt from spec after a crash.
    pub restarts: u64,
}

/// Lifecycle of an NF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfState {
    Running,
    /// Crashed; eligible for rebuild once the sim clock passes
    /// `restart_at_ns` (exponential backoff, doubled per crash).
    Dead {
        restart_at_ns: u64,
    },
    /// Out of restart budget; stays down for good.
    Failed,
}

/// One NF worker: the spec it was built from, the live instance, and its
/// ring of queued packets.
pub struct NfInstance {
    pub id: NfId,
    pub name: String,
    spec: NfSpec,
    nf: Box<dyn NetworkFunction>,
    /// Queued packets, oldest first.
    ring: VecDeque<DpPacket>,
    /// Most packets `ring` holds: a power of two, as an SPSC ring's.
    capacity: usize,
    pub stats: NfStats,
    pub state: NfState,
    backoff_ns: u64,
    /// Chain this instance belongs to and its position in it.
    chain: ChainId,
    pos: usize,
}

impl NfInstance {
    /// Queued packets (ring occupancy).
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    pub fn ring_capacity(&self) -> usize {
        self.capacity
    }

    fn state_label(&self) -> &'static str {
        match self.state {
            NfState::Running => "running",
            NfState::Dead { .. } => "dead",
            NfState::Failed => "failed",
        }
    }
}

/// Outcome of handing a datapath packet to a chain. A refused packet
/// (every outcome but `Queued` and `Exit`) went back to the pool.
pub enum Ingress {
    /// Queued on an NF ring.
    Queued { nf: NfId },
    /// Every NF was bypassed (dead under a bypass policy, or the chain is
    /// empty): the packet exits immediately on this port, untouched.
    Exit { pkt: DpPacket, port: u32 },
    /// The target NF's ring was full; the packet must be accounted as a
    /// named `nf_ring_full` drop.
    RingFull { nf: NfId },
    /// A dead NF under a fail-closed policy refused the packet.
    FailClosed { nf: NfId },
    /// No such chain; callers treat this as fail-closed (misconfiguration
    /// must not silently forward).
    NoChain,
}

/// Outcome of polling one NF: everything `nf_poll` needs to charge costs
/// and settle the ledger. The packets leaving the chain wait in the
/// manager's exit list ([`NfManager::pop_exit`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PollOutcome {
    /// Packets popped from the ring and offered to `process`.
    pub processed: usize,
    /// Packets this poll put on the exit list.
    pub exits: u64,
    /// Forward verdicts whose next-hop enqueue succeeded.
    pub forwarded: u64,
    pub verdict_drops: u64,
    /// Forward verdicts that hit a full next-hop ring: (nf, count) pairs
    /// folded into a single total; per-NF stats already updated.
    pub ring_full: u64,
    pub fail_closed: u64,
    /// This invocation panicked; the whole popped batch was lost.
    pub crashed: bool,
    pub crash_drops: u64,
    /// The NF was rebuilt from spec at the start of this poll.
    pub restarted: bool,
}

/// The manager. See module docs for the ownership story.
pub struct NfManager {
    nfs: Vec<NfInstance>,
    chains: Vec<NfChain>,
    tenant_chain: BTreeMap<u32, ChainId>,
    /// The batch a poll pops and the verdicts it gets, kept between polls.
    batch: Vec<DpPacket>,
    verdicts: Vec<NfVerdict>,
    /// Packets leaving the subsystem: (packet, output port), oldest first.
    exits: VecDeque<(DpPacket, u32)>,
    /// First-crash restart delay; doubles per crash, capped at 64x.
    pub restart_backoff_ns: u64,
    /// Rebuilds allowed per NF before it is marked `Failed`.
    pub restart_budget: u32,
}

impl Default for NfManager {
    fn default() -> Self {
        Self::new()
    }
}

impl NfManager {
    pub fn new() -> Self {
        NfManager {
            nfs: Vec::new(),
            chains: Vec::new(),
            tenant_chain: BTreeMap::new(),
            batch: Vec::new(),
            verdicts: Vec::new(),
            exits: VecDeque::new(),
            restart_backoff_ns: 1_000_000,
            restart_budget: 8,
        }
    }

    pub fn nf(&self, id: NfId) -> Option<&NfInstance> {
        self.nfs.get(id as usize)
    }

    pub fn chains(&self) -> &[NfChain] {
        &self.chains
    }

    pub fn chain_of_tenant(&self, tenant: u32) -> Option<&NfChain> {
        self.tenant_chain
            .get(&tenant)
            .and_then(|c| self.chains.get(*c as usize))
    }

    /// Add a chain for `tenant` built from `specs`, instantiating one
    /// dedicated NF per position, each with a ring of
    /// `ring_capacity.max(2).next_power_of_two()` packets. Returns the
    /// chain id used by `DpAction::NfChain`.
    pub fn add_chain(
        &mut self,
        tenant: u32,
        specs: Vec<(String, NfSpec)>,
        ring_capacity: usize,
        default_output: u32,
        policy: ChainPolicy,
    ) -> ChainId {
        let chain_id = self.chains.len() as ChainId;
        let mut nf_ids = Vec::with_capacity(specs.len());
        for (pos, (name, spec)) in specs.into_iter().enumerate() {
            let id = self.nfs.len() as NfId;
            let capacity = ring_capacity.max(2).next_power_of_two();
            self.nfs.push(NfInstance {
                id,
                name,
                nf: spec.build(),
                spec,
                ring: VecDeque::with_capacity(capacity),
                capacity,
                stats: NfStats::default(),
                state: NfState::Running,
                backoff_ns: 0,
                chain: chain_id,
                pos,
            });
            nf_ids.push(id);
        }
        self.chains.push(NfChain {
            id: chain_id,
            tenant,
            nfs: nf_ids,
            default_output,
            policy,
        });
        self.tenant_chain.insert(tenant, chain_id);
        chain_id
    }

    /// Queue a datapath packet on the chain's first live NF. A packet the
    /// chain refuses goes back to `pool`.
    pub fn ingress(&mut self, chain: ChainId, pkt: DpPacket, pool: &mut DpPacketPool) -> Ingress {
        if self.chains.get(chain as usize).is_none() {
            pool.put(pkt);
            return Ingress::NoChain;
        }
        self.enqueue_from(chain, 0, pkt, pool)
    }

    /// Queue `pkt` on the first live NF at or after `from_pos`, honoring
    /// the chain's dead-NF policy. Walking off the end of the chain exits
    /// on the default output.
    fn enqueue_from(
        &mut self,
        chain: ChainId,
        from_pos: usize,
        pkt: DpPacket,
        pool: &mut DpPacketPool,
    ) -> Ingress {
        let c = &self.chains[chain as usize];
        for &nf_id in &c.nfs[from_pos..] {
            let nf = &mut self.nfs[nf_id as usize];
            if nf.state != NfState::Running {
                match c.policy {
                    ChainPolicy::Bypass => continue,
                    ChainPolicy::FailClosed => {
                        nf.stats.fail_closed_drops += 1;
                        pool.put(pkt);
                        return Ingress::FailClosed { nf: nf_id };
                    }
                }
            }
            if nf.ring.len() == nf.capacity {
                nf.stats.ring_full_drops += 1;
                pool.put(pkt);
                return Ingress::RingFull { nf: nf_id };
            }
            nf.ring.push_back(pkt);
            return Ingress::Queued { nf: nf_id };
        }
        // Ran past the last NF: the packet leaves the subsystem.
        Ingress::Exit {
            pkt,
            port: c.default_output,
        }
    }

    /// Pass a packet NF `pos` is done with down the chain, onto the next
    /// live NF's ring or the exit list. Returns whether it went on rather
    /// than being refused.
    fn pass_on(
        &mut self,
        chain: ChainId,
        pos: usize,
        pkt: DpPacket,
        pool: &mut DpPacketPool,
        out: &mut PollOutcome,
    ) -> bool {
        match self.enqueue_from(chain, pos + 1, pkt, pool) {
            Ingress::Queued { .. } => out.forwarded += 1,
            Ingress::Exit { pkt, port } => {
                self.exits.push_back((pkt, port));
                out.exits += 1;
            }
            Ingress::RingFull { .. } => {
                out.ring_full += 1;
                return false;
            }
            Ingress::FailClosed { .. } => {
                out.fail_closed += 1;
                return false;
            }
            Ingress::NoChain => unreachable!("instance chains always exist"),
        }
        true
    }

    /// The oldest packet on the exit list, with its output port.
    pub fn pop_exit(&mut self) -> Option<(DpPacket, u32)> {
        self.exits.pop_front()
    }

    /// Rebuild a dead NF if its backoff has elapsed and budget remains.
    /// Queued packets survive the restart — the ring belongs to the
    /// manager, not the worker.
    pub fn maybe_restart(&mut self, id: NfId, now_ns: u64) -> bool {
        let nf = &mut self.nfs[id as usize];
        if let NfState::Dead { restart_at_ns } = nf.state {
            if now_ns >= restart_at_ns {
                nf.nf = nf.spec.build();
                nf.state = NfState::Running;
                nf.stats.restarts += 1;
                return true;
            }
        }
        false
    }

    /// Pop up to [`BATCH_SIZE`] packets off NF `id`'s ring, run `process`
    /// on each under one panic boundary, and route the verdicts: onward, onto the
    /// exit list, or back to `pool`. `force_panic` arms a simulated crash
    /// for this invocation (driven by the fault plan). A poll allocates
    /// nothing once the kept batch and exit lists have grown.
    pub fn poll_nf(
        &mut self,
        id: NfId,
        now_ns: u64,
        force_panic: bool,
        pool: &mut DpPacketPool,
    ) -> PollOutcome {
        let mut out = PollOutcome {
            restarted: self.maybe_restart(id, now_ns),
            ..Default::default()
        };
        let nf = &mut self.nfs[id as usize];
        let n = nf.ring.len().min(BATCH_SIZE);
        if nf.state != NfState::Running || n == 0 {
            return out;
        }
        let (mut batch, mut verdicts) = (
            std::mem::take(&mut self.batch),
            std::mem::take(&mut self.verdicts),
        );
        batch.extend(nf.ring.drain(..n));
        nf.stats.rx += n as u64;
        out.processed = n;
        let (chain, pos) = (nf.chain, nf.pos);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if force_panic {
                // panic_any keeps the payload a &'static str so test
                // harness hooks can recognize and quiet it.
                std::panic::panic_any(NF_PANIC_MSG);
            }
            verdicts.extend(batch.iter_mut().map(|p| nf.nf.process(p)));
        }));

        if ran.is_err() {
            // The worker died mid-batch: its in-flight packets are
            // unrecoverable, its state is garbage. Account the loss,
            // schedule the rebuild, leave the ring (manager-owned)
            // intact for the survivors' packets. A panic part-way through
            // the batch leaves the verdicts of the packets before it.
            verdicts.clear();
            let nf = &mut self.nfs[id as usize];
            nf.stats.crashes += 1;
            out.crashed = true;
            out.crash_drops = n as u64;
            nf.stats.crash_drops += out.crash_drops;
            let failed = nf.stats.restarts >= self.restart_budget as u64;
            if failed {
                nf.state = NfState::Failed;
            } else {
                nf.backoff_ns = if nf.backoff_ns == 0 {
                    self.restart_backoff_ns
                } else {
                    (nf.backoff_ns * 2).min(self.restart_backoff_ns * 64)
                };
                nf.state = NfState::Dead {
                    restart_at_ns: now_ns + nf.backoff_ns,
                };
            }
            for p in batch.drain(..) {
                pool.put(p);
            }
            if failed {
                // Restart budget exhausted: nothing will ever drain this
                // ring again, so flush the queued packets through the
                // dead-NF policy — otherwise they are stranded,
                // offered-but-uncounted, and the ledger breaks silently.
                let policy = self.chains[chain as usize].policy;
                while let Some(pkt) = self.nfs[id as usize].ring.pop_front() {
                    match policy {
                        ChainPolicy::FailClosed => {
                            self.nfs[id as usize].stats.fail_closed_drops += 1;
                            out.fail_closed += 1;
                            pool.put(pkt);
                        }
                        ChainPolicy::Bypass => {
                            self.pass_on(chain, pos, pkt, pool, &mut out);
                        }
                    }
                }
            }
        } else {
            for (pkt, verdict) in batch.drain(..).zip(verdicts.drain(..)) {
                match verdict {
                    NfVerdict::Forward => {
                        if self.pass_on(chain, pos, pkt, pool, &mut out) {
                            self.nfs[id as usize].stats.tx += 1;
                        }
                    }
                    NfVerdict::Steer(port) => {
                        let nf = &mut self.nfs[id as usize];
                        nf.stats.tx += 1;
                        nf.stats.steered += 1;
                        self.exits.push_back((pkt, port));
                        out.exits += 1;
                    }
                    NfVerdict::Drop => {
                        self.nfs[id as usize].stats.verdict_drops += 1;
                        out.verdict_drops += 1;
                        pool.put(pkt);
                    }
                }
            }
        }
        (self.batch, self.verdicts) = (batch, verdicts);
        out
    }

    /// Sum of ring occupancies across a chain (in-flight packets).
    pub fn chain_occupancy(&self, chain: &NfChain) -> usize {
        chain
            .nfs
            .iter()
            .map(|id| self.nfs[*id as usize].ring_len())
            .sum()
    }

    /// Aggregate stats across all NFs, in `NfStats` shape.
    pub fn totals(&self) -> NfStats {
        let mut t = NfStats::default();
        for nf in &self.nfs {
            t.rx += nf.stats.rx;
            t.tx += nf.stats.tx;
            t.steered += nf.stats.steered;
            t.verdict_drops += nf.stats.verdict_drops;
            t.ring_full_drops += nf.stats.ring_full_drops;
            t.crash_drops += nf.stats.crash_drops;
            t.fail_closed_drops += nf.stats.fail_closed_drops;
            t.crashes += nf.stats.crashes;
            t.restarts += nf.stats.restarts;
        }
        t
    }

    /// `nfv/show`: one line per NF.
    pub fn show(&self) -> String {
        let mut s = format!(
            "nfv manager: {} NFs, {} chains, backoff {} us, restart budget {}\n",
            self.nfs.len(),
            self.chains.len(),
            self.restart_backoff_ns / 1000,
            self.restart_budget
        );
        for nf in &self.nfs {
            s.push_str(&format!(
                "nf {:>3} {:<12} ({:<11}) {:<8} chain {:>3} rx {:>8} tx {:>8} drops {:>6} ring {:>3}/{:<3} restarts {}\n",
                nf.id,
                nf.name,
                nf.spec.kind(),
                nf.state_label(),
                nf.chain,
                nf.stats.rx,
                nf.stats.tx,
                nf.stats.verdict_drops + nf.stats.crash_drops + nf.stats.ring_full_drops + nf.stats.fail_closed_drops,
                nf.ring_len(),
                nf.ring_capacity(),
                nf.stats.restarts
            ));
        }
        s
    }

    /// `nfv/chain-show <tenant>`: the tenant's chain, hop by hop. The
    /// caller supplies PMD placement (the manager doesn't know the
    /// scheduler) via `pmd_of: nf_id -> Option<core>`.
    pub fn chain_show(&self, tenant: u32, pmd_of: &dyn Fn(NfId) -> Option<usize>) -> String {
        let Some(chain) = self.chain_of_tenant(tenant) else {
            return format!("no chain for tenant {tenant}\n");
        };
        let mut s = format!(
            "tenant {} chain {} (policy {}, default output {}):\n",
            chain.tenant,
            chain.id,
            chain.policy.label(),
            chain.default_output
        );
        for (pos, id) in chain.nfs.iter().enumerate() {
            let nf = &self.nfs[*id as usize];
            let pmd = match pmd_of(*id) {
                Some(core) => format!("pmd core {core}"),
                None => "unassigned".to_string(),
            };
            s.push_str(&format!(
                "  [{}] nf {} {} ({}) state {} {} ring {}/{}\n",
                pos,
                nf.id,
                nf.name,
                nf.spec.kind(),
                nf.state_label(),
                pmd,
                nf.ring_len(),
                nf.ring_capacity()
            ));
        }
        s.push_str(&format!("  in-flight: {}\n", self.chain_occupancy(chain)));
        s
    }

    /// `nfv/stats`: subsystem totals.
    pub fn stats_show(&self) -> String {
        let t = self.totals();
        format!(
            "nfv totals: rx {} tx {} steered {} verdict-drops {} ring-full {} crash-drops {} fail-closed {}\n\
             nfv health: crashes {} restarts {}\n",
            t.rx,
            t.tx,
            t.steered,
            t.verdict_drops,
            t.ring_full_drops,
            t.crash_drops,
            t.fail_closed_drops,
            t.crashes,
            t.restarts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::FwRule;

    fn udp_frame(dport: u16) -> Vec<u8> {
        let mut f = vec![0u8; 60];
        f[12] = 0x08; // IPv4
        f[14] = 0x45;
        f[23] = 17; // UDP
        f[26..30].copy_from_slice(&[10, 0, 0, 1]);
        f[30..34].copy_from_slice(&[10, 0, 0, 2]);
        f[34..36].copy_from_slice(&1234u16.to_be_bytes());
        f[36..38].copy_from_slice(&dport.to_be_bytes());
        f
    }

    fn one_nf_chain(spec: NfSpec, policy: ChainPolicy) -> (NfManager, ChainId) {
        let mut m = NfManager::new();
        let c = m.add_chain(7, vec![("nf0".into(), spec)], 8, 1, policy);
        (m, c)
    }

    /// A pool that keeps up to 64 descriptors, and a packet from it.
    fn pool() -> DpPacketPool {
        DpPacketPool::new(64, 256)
    }

    fn packet(pool: &mut DpPacketPool, dport: u16) -> DpPacket {
        let mut p = pool.take();
        p.set_data(&udp_frame(dport));
        p
    }

    /// Run `f` with panic messages silenced (simulated NF crashes).
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn passthrough_chain_hands_back_the_same_packet() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::Bypass);
        let mut pool = pool();
        let mut pkt = packet(&mut pool, 6000);
        pkt.in_port = 3;
        pkt.rx_ts = Some(42);
        let at: *const ovs_packet::dp_packet::Descriptor = &*pkt;
        let Ingress::Queued { nf } = m.ingress(c, pkt, &mut pool) else {
            panic!("expected queue")
        };
        let out = m.poll_nf(nf, 0, false, &mut pool);
        assert_eq!((out.processed, out.exits), (1, 1));
        let (pkt, port) = m.pop_exit().expect("one exit");
        assert_eq!(port, 1);
        assert!(std::ptr::eq(&*pkt, at), "the chain swapped the descriptor");
        assert_eq!(pkt.data(), &udp_frame(6000)[..]);
        assert_eq!((pkt.in_port, pkt.rx_ts), (3, Some(42)));
        assert!(m.pop_exit().is_none());
        assert_eq!((pool.fresh_allocs, pool.reuses), (1, 0), "nothing copied");
    }

    #[test]
    fn firewall_drops_by_rule() {
        let spec = NfSpec::Firewall {
            rules: vec![FwRule {
                proto: Some(17),
                dport_lo: 6000,
                dport_hi: 6099,
                allow: false,
            }],
            default_allow: true,
        };
        let (mut m, c) = one_nf_chain(spec, ChainPolicy::Bypass);
        let mut pool = pool();
        for dport in [6050u16, 7000] {
            let pkt = packet(&mut pool, dport);
            let Ingress::Queued { nf } = m.ingress(c, pkt, &mut pool) else {
                panic!()
            };
            m.poll_nf(nf, 0, false, &mut pool);
        }
        let t = m.totals();
        assert_eq!(t.verdict_drops, 1);
        assert_eq!(t.tx, 1);
        assert_eq!(
            (pool.fresh_allocs, pool.reuses),
            (1, 1),
            "the dropped packet's descriptor served the next"
        );
    }

    #[test]
    fn ring_full_is_named_loss() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::Bypass);
        let mut pool = pool();
        let cap = m.nf(0).unwrap().ring_capacity();
        for _ in 0..cap {
            let pkt = packet(&mut pool, 6000);
            assert!(matches!(
                m.ingress(c, pkt, &mut pool),
                Ingress::Queued { .. }
            ));
        }
        let pkt = packet(&mut pool, 6000);
        assert!(matches!(
            m.ingress(c, pkt, &mut pool),
            Ingress::RingFull { .. }
        ));
        assert_eq!(m.totals().ring_full_drops, 1);
        assert_eq!(pool.available(), 1, "the refused packet went back");
    }

    #[test]
    fn a_ring_holds_a_power_of_two_of_at_least_two() {
        let mut m = NfManager::new();
        for (asked, holds) in [(5, 8), (8, 8), (16, 16), (1, 2), (0, 2)] {
            let c = m.add_chain(
                asked as u32,
                vec![("nf".into(), NfSpec::PassThrough)],
                asked,
                1,
                ChainPolicy::Bypass,
            );
            let nf = m.chains()[c as usize].nfs[0];
            assert_eq!(
                m.nf(nf).unwrap().ring_capacity(),
                holds,
                "asked for {asked}"
            );
            let mut pool = pool();
            let queued = (0..holds + 1)
                .filter(|_| {
                    let pkt = packet(&mut pool, 6000);
                    matches!(m.ingress(c, pkt, &mut pool), Ingress::Queued { .. })
                })
                .count();
            assert_eq!(queued, holds, "asked for {asked}");
            assert_eq!(m.nf(nf).unwrap().ring_len(), holds);
        }
    }

    #[test]
    fn every_packet_the_manager_gives_up_goes_back_to_the_pool() {
        // Warm a pool with 64 descriptors; every outcome below returns
        // its packet, so the pool ends as it began.
        let mut pool = pool();
        let warm: Vec<DpPacket> = (0..64).map(|_| pool.take()).collect();
        for p in warm {
            pool.put(p);
        }
        let start = pool.available();
        let mut m = NfManager::new();
        m.restart_budget = 0;
        let fw = NfSpec::Firewall {
            rules: vec![FwRule {
                proto: None,
                dport_lo: 0,
                dport_hi: 0xffff,
                allow: false,
            }],
            default_allow: false,
        };
        let drop_all = m.add_chain(0, vec![("fw".into(), fw)], 4, 1, ChainPolicy::Bypass);
        let two_nfs = |a: &str, b: &str| {
            vec![
                (a.to_string(), NfSpec::PassThrough),
                (b.to_string(), NfSpec::Monitor),
            ]
        };
        let closed = m.add_chain(1, two_nfs("a", "b"), 64, 1, ChainPolicy::FailClosed);
        let bypass = m.add_chain(2, two_nfs("c", "d"), 64, 2, ChainPolicy::Bypass);
        let nf_of = |m: &NfManager, c: ChainId, pos: usize| m.chains()[c as usize].nfs[pos];
        let mut exits = 0;
        let mut offer = |m: &mut NfManager, pool: &mut DpPacketPool, c: ChainId, n: usize| {
            for _ in 0..n {
                let pkt = packet(pool, 6000);
                if let Ingress::Exit { pkt, .. } = m.ingress(c, pkt, pool) {
                    exits += 1;
                    pool.put(pkt);
                }
            }
        };
        // Verdict drops, ring full, and no such chain.
        offer(&mut m, &mut pool, drop_all, 6);
        m.poll_nf(nf_of(&m, drop_all, 0), 0, false, &mut pool);
        offer(&mut m, &mut pool, 99, 1);
        // A crash out of budget: its batch is lost, the rest of its ring
        // flushed fail-closed, and later traffic refused fail-closed.
        offer(&mut m, &mut pool, closed, BATCH_SIZE + 2);
        let out = quietly(|| m.poll_nf(nf_of(&m, closed, 0), 0, true, &mut pool));
        assert_eq!((out.crash_drops, out.fail_closed), (BATCH_SIZE as u64, 2));
        offer(&mut m, &mut pool, closed, 3);
        // A crash out of budget on a bypass chain: the rest of its ring
        // flushes into the next NF, which later traffic reaches directly.
        offer(&mut m, &mut pool, bypass, BATCH_SIZE + 2);
        quietly(|| m.poll_nf(nf_of(&m, bypass, 0), 0, true, &mut pool));
        offer(&mut m, &mut pool, bypass, 1);
        let out = m.poll_nf(nf_of(&m, bypass, 1), 0, false, &mut pool);
        assert_eq!(out.exits, 3);
        while let Some((pkt, port)) = m.pop_exit() {
            assert_eq!(port, 2);
            exits += 1;
            pool.put(pkt);
        }
        let t = m.totals();
        assert_eq!(t.verdict_drops, 4);
        assert_eq!(t.ring_full_drops, 2);
        assert_eq!(t.crash_drops, 2 * BATCH_SIZE as u64);
        assert_eq!(t.fail_closed_drops, 5);
        assert_eq!(exits, 3);
        assert_eq!(m.chain_occupancy(&m.chains()[closed as usize]), 0);
        assert_eq!(pool.available(), start, "a packet went missing");
        assert_eq!(pool.fresh_allocs, 64, "a packet was copied");
    }

    #[test]
    fn crash_restart_backoff_and_policies() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::FailClosed);
        let mut pool = pool();
        let pkt = packet(&mut pool, 6000);
        let Ingress::Queued { nf } = m.ingress(c, pkt, &mut pool) else {
            panic!()
        };
        let out = quietly(|| m.poll_nf(nf, 1000, true, &mut pool));
        assert!(out.crashed);
        assert_eq!(out.crash_drops, 1);
        // Dead + fail-closed: new ingress refused with a named drop.
        let pkt = packet(&mut pool, 6000);
        assert!(matches!(
            m.ingress(c, pkt, &mut pool),
            Ingress::FailClosed { .. }
        ));
        // Before backoff elapses: still dead.
        assert!(!m.maybe_restart(nf, 1000));
        // After: rebuilt, traffic flows again.
        assert!(m.maybe_restart(nf, 1000 + m.restart_backoff_ns));
        let pkt = packet(&mut pool, 6000);
        assert!(matches!(
            m.ingress(c, pkt, &mut pool),
            Ingress::Queued { .. }
        ));
        let out = m.poll_nf(nf, 0, false, &mut pool);
        assert_eq!(out.exits, 1);
        assert_eq!(m.totals().restarts, 1);
    }

    #[test]
    fn bypass_chain_survives_dead_nf() {
        let mut m = NfManager::new();
        let c = m.add_chain(
            1,
            vec![
                ("a".into(), NfSpec::PassThrough),
                ("b".into(), NfSpec::Monitor),
            ],
            8,
            2,
            ChainPolicy::Bypass,
        );
        let mut pool = pool();
        // Kill NF 0.
        let pkt = packet(&mut pool, 6000);
        let Ingress::Queued { nf } = m.ingress(c, pkt, &mut pool) else {
            panic!()
        };
        quietly(|| m.poll_nf(nf, 0, true, &mut pool));
        // New traffic bypasses straight into NF 1 and still exits.
        let pkt = packet(&mut pool, 6000);
        let Ingress::Queued { nf } = m.ingress(c, pkt, &mut pool) else {
            panic!("bypass should queue on b")
        };
        assert_eq!(nf, 1);
        let out = m.poll_nf(nf, 0, false, &mut pool);
        assert_eq!(out.exits, 1);
        assert_eq!(m.pop_exit().map(|(_, port)| port), Some(2));
    }
}
