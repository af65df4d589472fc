//! The NF manager: owns every NF instance, its SPSC descriptor ring, the
//! shared packet mempool, and the per-tenant chain table.
//!
//! The shape is openNetVM's: a centralized manager owns ports, rings and
//! the mempool; NFs are isolated workers that only ever see batches of
//! packets handed to them through their ring. Crossing from the datapath
//! into the NF subsystem copies the frame into a pooled descriptor (the
//! "shared mempool"); between NFs the pooled descriptor moves ring-to-ring
//! with no further copies; exiting back to the datapath copies out and
//! returns the descriptor to the pool. Every descriptor taken is
//! eventually put back, so pool reuse statistics directly measure NF
//! subsystem throughput.
//!
//! The manager is deliberately kernel-free: it never charges simulated
//! cycles, reads clocks, or touches datapath stats. `ovs-core` drives it
//! (`DpifNetdev::nf_poll`) and owns all cost/ledger accounting; the
//! manager just reports exact outcomes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ovs_packet::DpPacket;
use ovs_ring::{Desc, DpPacketPool, SpscRing, BATCH_SIZE};

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

/// One NF worker: the spec it was built from, the live instance, its
/// SPSC descriptor ring, and the slot slab the ring's `Desc::frame`
/// indexes into.
pub struct NfInstance {
    pub id: NfId,
    pub name: String,
    spec: NfSpec,
    nf: Box<dyn NetworkFunction>,
    ring: SpscRing,
    slots: Vec<Option<DpPacket>>,
    free: Vec<u32>,
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
        self.ring.capacity()
    }

    pub fn kind(&self) -> &'static str {
        self.spec.kind()
    }

    pub fn chain(&self) -> ChainId {
        self.chain
    }

    fn state_label(&self) -> &'static str {
        match self.state {
            NfState::Running => "running",
            NfState::Dead { .. } => "dead",
            NfState::Failed => "failed",
        }
    }
}

/// Outcome of handing a datapath packet to a chain.
pub enum Ingress {
    /// Copied into the mempool and queued on an NF ring.
    Queued { nf: NfId },
    /// Every NF was bypassed (dead under a bypass policy, or the chain is
    /// empty): the packet exits immediately on this port, untouched.
    Exit { pkt: DpPacket, port: u32 },
    /// The target NF's ring was full; the packet is gone and must be
    /// accounted as a named `nf_ring_full` drop.
    RingFull { nf: NfId },
    /// A dead NF under a fail-closed policy refused the packet.
    FailClosed { nf: NfId },
    /// No such chain; callers treat this as fail-closed (misconfiguration
    /// must not silently forward).
    NoChain,
}

/// Outcome of polling one NF: everything `nf_poll` needs to charge costs
/// and settle the ledger, with exits carrying fully materialized packets.
#[derive(Default)]
pub struct PollOutcome {
    /// Packets popped from the ring and offered to `process`.
    pub processed: usize,
    /// Packets leaving the NF subsystem: (packet, output port).
    pub exits: Vec<(DpPacket, u32)>,
    /// Forward verdicts whose next-hop enqueue succeeded: (next NF, count).
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
    pool: DpPacketPool,
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
            pool: DpPacketPool::with_preallocated(256, 2048),
            restart_backoff_ns: 1_000_000,
            restart_budget: 8,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.nfs.is_empty()
    }

    pub fn nf(&self, id: NfId) -> Option<&NfInstance> {
        self.nfs.get(id as usize)
    }

    pub fn nfs(&self) -> &[NfInstance] {
        &self.nfs
    }

    pub fn chains(&self) -> &[NfChain] {
        &self.chains
    }

    pub fn chain_of_tenant(&self, tenant: u32) -> Option<&NfChain> {
        self.tenant_chain
            .get(&tenant)
            .and_then(|c| self.chains.get(*c as usize))
    }

    /// Descriptor-pool reuse counters: (reuses, fresh allocations).
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.reuses, self.pool.fresh_allocs)
    }

    /// Add a chain for `tenant` built from `specs`, instantiating one
    /// dedicated NF per position. Returns the chain id used by
    /// `DpAction::NfChain`.
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
            let ring = SpscRing::new(ring_capacity);
            let cap = ring.capacity();
            self.nfs.push(NfInstance {
                id,
                name,
                nf: spec.build(),
                spec,
                ring,
                slots: (0..cap).map(|_| None).collect(),
                free: (0..cap as u32).rev().collect(),
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

    /// Copy a datapath packet into the mempool and queue it on the
    /// chain's first live NF.
    pub fn ingress(&mut self, chain: ChainId, pkt: &DpPacket) -> Ingress {
        if self.chains.get(chain as usize).is_none() {
            return Ingress::NoChain;
        }
        let mut pooled = self.pool.take();
        pooled.set_data(pkt.data());
        copy_meta(&mut pooled, pkt);
        self.enqueue_from(chain, 0, pooled)
    }

    /// Queue `pkt` (already pooled) on the first live NF at or after
    /// `from_pos`, honoring the chain's dead-NF policy. Walking off the
    /// end of the chain exits on the default output.
    fn enqueue_from(&mut self, chain: ChainId, from_pos: usize, pkt: DpPacket) -> Ingress {
        let (nf_ids, default_output, policy) = {
            let c = &self.chains[chain as usize];
            (c.nfs.clone(), c.default_output, c.policy)
        };
        for &nf_id in &nf_ids[from_pos..] {
            let nf = &mut self.nfs[nf_id as usize];
            if nf.state != NfState::Running {
                match policy {
                    ChainPolicy::Bypass => continue,
                    ChainPolicy::FailClosed => {
                        nf.stats.fail_closed_drops += 1;
                        let id = nf.id;
                        self.pool.put(pkt);
                        return Ingress::FailClosed { nf: id };
                    }
                }
            }
            if nf.ring.is_full() {
                nf.stats.ring_full_drops += 1;
                let id = nf.id;
                self.pool.put(pkt);
                return Ingress::RingFull { nf: id };
            }
            let slot = nf.free.pop().expect("free slots track ring occupancy");
            let len = pkt.len() as u32;
            nf.slots[slot as usize] = Some(pkt);
            let pushed = nf.ring.push_batch(&[Desc { frame: slot, len }]);
            debug_assert_eq!(pushed, 1);
            return Ingress::Queued { nf: nf_id };
        }
        // Ran past the last NF: the packet leaves the subsystem.
        Ingress::Exit {
            pkt: self.egress(pkt),
            port: default_output,
        }
    }

    /// Copy a pooled packet back out for the datapath and return the
    /// descriptor to the mempool.
    fn egress(&mut self, pooled: DpPacket) -> DpPacket {
        let mut out = DpPacket::from_data(pooled.data());
        copy_meta(&mut out, &pooled);
        self.pool.put(pooled);
        out
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

    /// Pop up to `max` packets (at most [`BATCH_SIZE`]) off NF `id`'s
    /// ring, run `process` under a panic boundary, and route the
    /// verdicts. `force_panic` arms a simulated crash for this invocation
    /// (driven by the fault plan). A poll of an empty ring allocates
    /// nothing.
    pub fn poll_nf(&mut self, id: NfId, max: usize, now_ns: u64, force_panic: bool) -> PollOutcome {
        let mut out = PollOutcome {
            restarted: self.maybe_restart(id, now_ns),
            ..Default::default()
        };
        let (chain, pos, batch) = {
            let nf = &mut self.nfs[id as usize];
            if nf.state != NfState::Running {
                return out;
            }
            let mut descs = [Desc { frame: 0, len: 0 }; BATCH_SIZE];
            let n = nf.ring.pop_batch(&mut descs[..max.min(BATCH_SIZE)]);
            if n == 0 {
                return out;
            }
            let mut batch = Vec::with_capacity(n);
            for d in &descs[..n] {
                batch.push(
                    nf.slots[d.frame as usize]
                        .take()
                        .expect("desc points at a filled slot"),
                );
                nf.free.push(d.frame);
            }
            nf.stats.rx += n as u64;
            (nf.chain, nf.pos, batch)
        };
        out.processed = batch.len();

        let mut batch = batch;
        let verdicts = {
            let nf = &mut self.nfs[id as usize];
            catch_unwind(AssertUnwindSafe(|| {
                if force_panic {
                    // panic_any keeps the payload a &'static str so test
                    // harness hooks can recognize and quiet it.
                    std::panic::panic_any(NF_PANIC_MSG);
                }
                let v = nf.nf.process(&mut batch);
                assert_eq!(v.len(), batch.len(), "NF returned wrong verdict count");
                v
            }))
        };

        let verdicts = match verdicts {
            Ok(v) => v,
            Err(_) => {
                // The worker died mid-batch: its in-flight packets are
                // unrecoverable, its state is garbage. Account the loss,
                // schedule the rebuild, leave the ring (manager-owned)
                // intact for the survivors' packets.
                let nf = &mut self.nfs[id as usize];
                nf.stats.crashes += 1;
                out.crashed = true;
                out.crash_drops = batch.len() as u64;
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
                for p in batch {
                    self.pool.put(p);
                }
                if failed {
                    // Restart budget exhausted: nothing will ever drain
                    // this ring again, so flush the queued packets
                    // through the dead-NF policy — otherwise they are
                    // stranded, offered-but-uncounted, and the ledger
                    // breaks silently.
                    let mut stranded = Vec::new();
                    {
                        let nf = &mut self.nfs[id as usize];
                        let mut descs = vec![Desc { frame: 0, len: 0 }; nf.slots.len()];
                        let n = nf.ring.pop_batch(&mut descs);
                        for d in &descs[..n] {
                            stranded.push(
                                nf.slots[d.frame as usize]
                                    .take()
                                    .expect("desc points at a filled slot"),
                            );
                            nf.free.push(d.frame);
                        }
                    }
                    let policy = self.chains[chain as usize].policy;
                    for pkt in stranded {
                        match policy {
                            ChainPolicy::FailClosed => {
                                self.nfs[id as usize].stats.fail_closed_drops += 1;
                                out.fail_closed += 1;
                                self.pool.put(pkt);
                            }
                            ChainPolicy::Bypass => match self.enqueue_from(chain, pos + 1, pkt) {
                                Ingress::Queued { .. } => out.forwarded += 1,
                                Ingress::Exit { pkt, port } => out.exits.push((pkt, port)),
                                Ingress::RingFull { .. } => out.ring_full += 1,
                                Ingress::FailClosed { .. } => out.fail_closed += 1,
                                Ingress::NoChain => {
                                    unreachable!("instance chains always exist")
                                }
                            },
                        }
                    }
                }
                return out;
            }
        };

        for (pkt, verdict) in batch.into_iter().zip(verdicts) {
            match verdict {
                NfVerdict::Forward => match self.enqueue_from(chain, pos + 1, pkt) {
                    Ingress::Queued { .. } => {
                        self.nfs[id as usize].stats.tx += 1;
                        out.forwarded += 1;
                    }
                    Ingress::Exit { pkt, port } => {
                        self.nfs[id as usize].stats.tx += 1;
                        out.exits.push((pkt, port));
                    }
                    Ingress::RingFull { .. } => out.ring_full += 1,
                    Ingress::FailClosed { .. } => out.fail_closed += 1,
                    Ingress::NoChain => unreachable!("instance chains always exist"),
                },
                NfVerdict::Steer(port) => {
                    let nf = &mut self.nfs[id as usize];
                    nf.stats.tx += 1;
                    nf.stats.steered += 1;
                    let pkt = self.egress(pkt);
                    out.exits.push((pkt, port));
                }
                NfVerdict::Drop => {
                    self.nfs[id as usize].stats.verdict_drops += 1;
                    out.verdict_drops += 1;
                    self.pool.put(pkt);
                }
            }
        }
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
                nf.kind(),
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
                nf.kind(),
                nf.state_label(),
                pmd,
                nf.ring_len(),
                nf.ring_capacity()
            ));
        }
        s.push_str(&format!("  in-flight: {}\n", self.chain_occupancy(chain)));
        s
    }

    /// `nfv/stats`: subsystem totals plus the mempool reuse counters.
    pub fn stats_show(&self) -> String {
        let t = self.totals();
        let (reuses, fresh) = self.pool_stats();
        format!(
            "nfv totals: rx {} tx {} steered {} verdict-drops {} ring-full {} crash-drops {} fail-closed {}\n\
             nfv health: crashes {} restarts {}\n\
             nfv mempool: reuses {} fresh-allocs {}\n",
            t.rx,
            t.tx,
            t.steered,
            t.verdict_drops,
            t.ring_full_drops,
            t.crash_drops,
            t.fail_closed_drops,
            t.crashes,
            t.restarts,
            reuses,
            fresh
        )
    }
}

/// Carry the metadata that must survive the mempool crossing: provenance
/// (`in_port`), hashes (so EMC/SMC-computed work isn't redone), offload
/// flags and tunnel state, and above all `rx_ts` — NF transit time must
/// show up in the end-to-end latency histograms, not vanish from them.
fn copy_meta(dst: &mut DpPacket, src: &DpPacket) {
    dst.in_port = src.in_port;
    dst.rxhash = src.rxhash;
    dst.flow_hash = src.flow_hash;
    dst.l3_ofs = src.l3_ofs;
    dst.l4_ofs = src.l4_ofs;
    dst.offloads = src.offloads;
    dst.tunnel = src.tunnel;
    dst.rx_ts = src.rx_ts;
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

    #[test]
    fn passthrough_chain_round_trips_packets() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::Bypass);
        let pkt = DpPacket::from_data(&udp_frame(6000));
        let Ingress::Queued { nf } = m.ingress(c, &pkt) else {
            panic!("expected queue")
        };
        let out = m.poll_nf(nf, 32, 0, false);
        assert_eq!(out.processed, 1);
        assert_eq!(out.exits.len(), 1);
        assert_eq!(out.exits[0].1, 1);
        assert_eq!(out.exits[0].0.data(), pkt.data());
        // Descriptor went back: one reuse on the next ingress.
        let before = m.pool_stats().0;
        m.ingress(c, &pkt);
        assert_eq!(m.pool_stats().0, before + 1);
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
        for dport in [6050u16, 7000] {
            let pkt = DpPacket::from_data(&udp_frame(dport));
            let Ingress::Queued { nf } = m.ingress(c, &pkt) else {
                panic!()
            };
            m.poll_nf(nf, 32, 0, false);
        }
        let t = m.totals();
        assert_eq!(t.verdict_drops, 1);
        assert_eq!(t.tx, 1);
    }

    #[test]
    fn ring_full_is_named_loss() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::Bypass);
        let pkt = DpPacket::from_data(&udp_frame(6000));
        let cap = m.nf(0).unwrap().ring_capacity();
        for _ in 0..cap {
            assert!(matches!(m.ingress(c, &pkt), Ingress::Queued { .. }));
        }
        assert!(matches!(m.ingress(c, &pkt), Ingress::RingFull { .. }));
        assert_eq!(m.totals().ring_full_drops, 1);
    }

    #[test]
    fn crash_restart_backoff_and_policies() {
        let (mut m, c) = one_nf_chain(NfSpec::PassThrough, ChainPolicy::FailClosed);
        let pkt = DpPacket::from_data(&udp_frame(6000));
        let Ingress::Queued { nf } = m.ingress(c, &pkt) else {
            panic!()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = m.poll_nf(nf, 32, 1000, true);
        std::panic::set_hook(hook);
        assert!(out.crashed);
        assert_eq!(out.crash_drops, 1);
        // Dead + fail-closed: new ingress refused with a named drop.
        assert!(matches!(m.ingress(c, &pkt), Ingress::FailClosed { .. }));
        // Before backoff elapses: still dead.
        assert!(!m.maybe_restart(nf, 1000));
        // After: rebuilt, traffic flows again.
        assert!(m.maybe_restart(nf, 1000 + m.restart_backoff_ns));
        assert!(matches!(m.ingress(c, &pkt), Ingress::Queued { .. }));
        let out = m.poll_nf(nf, 32, 0, false);
        assert_eq!(out.exits.len(), 1);
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
        let pkt = DpPacket::from_data(&udp_frame(6000));
        // Kill NF 0.
        let Ingress::Queued { nf } = m.ingress(c, &pkt) else {
            panic!()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        m.poll_nf(nf, 32, 0, true);
        std::panic::set_hook(hook);
        // New traffic bypasses straight into NF 1 and still exits.
        let Ingress::Queued { nf } = m.ingress(c, &pkt) else {
            panic!("bypass should queue on b")
        };
        assert_eq!(nf, 1);
        let out = m.poll_nf(nf, 32, 0, false);
        assert_eq!(out.exits.len(), 1);
        assert_eq!(out.exits[0].1, 2);
    }
}
