//! `ovs-ct` — sharded connection tracking at million-connection scale.
//!
//! The kernel netfilter feature NSX's distributed firewall depends on
//! (§4), rebuilt as a first-class userspace subsystem: the original
//! `kernel::conntrack` was a single flat `HashMap` with a full-table
//! `expire()` scan, fine for toy scale but hopeless against the
//! connection churn of a real DFW — and defenseless against the state
//! exhaustion variant of the Tuple Space Explosion attack (Csikor et
//! al.), where a SYN flood of unique 5-tuples fills the table and
//! evicts legitimate state.
//!
//! Structure:
//! - [`shard`]: hash-sharded buckets. The shard is chosen by a hash of
//!   the [`ConnKey`], so rxq→PMD stickiness (PR 5) makes per-PMD access
//!   rarely contend; each shard keeps its own second-chance CLOCK queue
//!   for eviction.
//! - [`expiry`]: the TCP-lite state machine (NEW / SYN_SENT /
//!   ESTABLISHED / FIN / TIME_WAIT) with per-state timeouts plus
//!   UDP/ICMP timeouts, and the rotating-slice sweep that rides the
//!   revalidator cadence — no full-table scans on the hot path.
//! - [`limits`]: per-zone connection limits (the nf_conncount feature
//!   whose out-of-tree backport cost 700+ lines, §2.1.1), the bounded
//!   global table, and the early-drop eviction policy that protects
//!   ESTABLISHED connections under SYN-flood pressure.
//!
//! Every refused or recycled connection is a *named* outcome
//! ([`CtDrop`], [`CtStats`]) so the datapath can keep the PR 4
//! zero-unaccounted-loss invariant: offered == delivered + Σ(drops).

use ovs_obs::coverage;
use ovs_packet::dp_packet::ct_state;
use std::hash::{Hash, Hasher};

pub mod expiry;
pub mod limits;
pub mod shard;

pub use expiry::{CtTimeouts, ProtoState};
pub use limits::{CtDrop, ZoneLimits};
pub use shard::Conn;
use shard::Shard;

/// A direction-oriented 5-tuple plus zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConnKey {
    pub zone: u16,
    pub src_ip: [u8; 4],
    pub dst_ip: [u8; 4],
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: u8,
}

impl ConnKey {
    /// The same connection seen from the reply direction.
    pub fn reversed(&self) -> ConnKey {
        ConnKey {
            zone: self.zone,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// FNV-1a over the tuple bytes with an avalanche finalizer — the
    /// multiply only carries entropy upward, and the shard index is
    /// taken from the low bits (same fix as `FlowKey::hash`).
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(self.zone as u8);
        eat((self.zone >> 8) as u8);
        for b in self.src_ip {
            eat(b);
        }
        for b in self.dst_ip {
            eat(b);
        }
        eat(self.src_port as u8);
        eat((self.src_port >> 8) as u8);
        eat(self.dst_port as u8);
        eat((self.dst_port >> 8) as u8);
        eat(self.proto);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// Shard maps hash the key as two packed words instead of one write per
/// field. The packing is injective, so it agrees with the derived `Eq`;
/// the maps keep std's keyed `RandomState`, because the tuples are
/// attacker-chosen (Csikor et al.'s tuple-space explosion).
impl Hash for ConnKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let addrs = (u64::from(u32::from_be_bytes(self.src_ip)) << 32)
            | u64::from(u32::from_be_bytes(self.dst_ip));
        let rest = (u64::from(self.src_port) << 48)
            | (u64::from(self.dst_port) << 32)
            | (u64::from(self.zone) << 16)
            | u64::from(self.proto);
        state.write_u64(addrs);
        state.write_u64(rest);
    }
}

/// NAT rewrite to apply when committing a connection, mirroring the OVS
/// `ct(nat(...))` action. The reverse mapping is applied automatically to
/// reply-direction traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatSpec {
    /// Source NAT: rewrite the source address (and optionally port).
    Snat { ip: [u8; 4], port: Option<u16> },
    /// Destination NAT: rewrite the destination address (and optionally
    /// port) — the load-balancer/VIP case.
    Dnat { ip: [u8; 4], port: Option<u16> },
}

/// What the caller asked conntrack to do, mirroring the OVS `ct()` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtAction {
    /// Zone to track in.
    pub zone: u16,
    /// Add the connection to the table if it is new.
    pub commit: bool,
    /// Set the connection mark on commit.
    pub mark: Option<u32>,
    /// NAT to set up on commit (ignored without `commit`).
    pub nat: Option<NatSpec>,
}

impl CtAction {
    /// A plain tracking action for `zone`.
    pub fn track(zone: u16) -> Self {
        Self {
            zone,
            commit: false,
            mark: None,
            nat: None,
        }
    }

    /// A committing action for `zone`.
    pub fn commit(zone: u16) -> Self {
        Self {
            zone,
            commit: true,
            mark: None,
            nat: None,
        }
    }
}

/// A concrete header rewrite the datapath must apply to this packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatRewrite {
    /// Rewrite the source address/port (forward direction of SNAT, or the
    /// reply direction of DNAT).
    Src { ip: [u8; 4], port: Option<u16> },
    /// Rewrite the destination address/port.
    Dst { ip: [u8; 4], port: Option<u16> },
}

/// Result of a conntrack pass: the `ct_state` bits for the packet, the
/// connection mark, any NAT rewrite the datapath must perform, and — if
/// the packet must be dropped — the named reason, so the datapath can
/// keep offered == delivered + Σ(drops) exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtVerdict {
    /// Bits from [`ovs_packet::dp_packet::ct_state`].
    pub state: u8,
    /// Connection mark (0 if none).
    pub mark: u32,
    /// Header rewrite to apply, if the connection is NATed.
    pub nat: Option<NatRewrite>,
    /// `Some(reason)` when conntrack refused the packet; the caller
    /// counts it under the matching named counter and drops the packet.
    pub drop: Option<CtDrop>,
}

impl CtVerdict {
    fn pass(state: u8, mark: u32, nat: Option<NatRewrite>) -> Self {
        CtVerdict {
            state,
            mark,
            nat,
            drop: None,
        }
    }

    fn refuse(reason: CtDrop) -> Self {
        CtVerdict {
            state: ct_state::TRACKED | ct_state::INVALID,
            mark: 0,
            nat: None,
            drop: Some(reason),
        }
    }
}

/// Tuning knobs for the table. Defaults match a software switch hosting
/// a distributed firewall: 64 shards, a 4M-connection bound, and the
/// early-drop defense on.
#[derive(Debug, Clone, Copy)]
pub struct CtConfig {
    /// Number of shards; rounded up to a power of two.
    pub shards: usize,
    /// Bound on the total number of tracked connections.
    pub max_conns: usize,
    /// Occupancy percentage above which the early-drop defense starts
    /// recycling NEW (never ESTABLISHED) connections to make room.
    pub pressure_pct: u8,
    /// The TSE defense: under pressure, evict only connections that
    /// never established; with this off the table falls back to pure
    /// LRU and an attacker's SYN flood evicts legitimate state.
    pub early_drop: bool,
    /// Accept mid-stream TCP packets (no SYN) as NEW connections, like
    /// `nf_conntrack_tcp_loose`. Stateful-firewall scenarios turn this
    /// off so data packets whose connection was evicted are refused as
    /// invalid instead of silently re-tracked.
    pub tcp_loose: bool,
}

impl Default for CtConfig {
    fn default() -> Self {
        CtConfig {
            shards: 64,
            max_conns: 1 << 22,
            pressure_pct: 90,
            early_drop: true,
            tcp_loose: true,
        }
    }
}

/// Named counters for everything the table did — the observability
/// surface behind `dpctl/ct-stats` and the accounting invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtStats {
    /// Total `process` calls (for cost accounting).
    pub ops: u64,
    /// Lookups that found a live connection (either direction).
    pub hits: u64,
    /// Lookups that found nothing (live).
    pub misses: u64,
    /// Connections committed into the table.
    pub commits: u64,
    /// NEW→ESTABLISHED transitions (reply seen).
    pub established: u64,
    /// Commits refused by a per-zone limit.
    pub zone_limit_drops: u64,
    /// Commits refused because the table was full and nothing was
    /// evictable under the policy.
    pub full_drops: u64,
    /// Packets refused as invalid (e.g. a committing RST, or a
    /// mid-stream TCP packet with `tcp_loose` off).
    pub invalid_drops: u64,
    /// Connections evicted to make room.
    pub evictions: u64,
    /// Evictions that recycled a never-established connection (the
    /// early-drop defense working as intended).
    pub early_drops: u64,
    /// Connections removed on idle timeout (lazy or swept).
    pub expired: u64,
    /// Rotating-slice sweep rounds.
    pub sweeps: u64,
    /// Shards visited by sweeps.
    pub swept_shards: u64,
    /// Connections removed by `ct/flush`.
    pub flushed: u64,
    /// Shard touched by the same PMD as last time (per-PMD shard
    /// affinity from rxq stickiness).
    pub affinity_hits: u64,
    /// Shard touched by a different PMD than last time.
    pub affinity_migrations: u64,
}

/// The sharded connection-tracking table.
#[derive(Debug)]
pub struct CtTable {
    shards: Vec<Shard>,
    shard_mask: usize,
    /// Per-shard id of the last PMD that touched it (+1; 0 = untouched).
    shard_pmd: Vec<u32>,
    /// Rotating sweep cursor (next shard to sweep).
    sweep_cursor: usize,
    total: usize,
    pub cfg: CtConfig,
    pub timeouts: CtTimeouts,
    pub zones: ZoneLimits,
    pub stats: CtStats,
}

impl Default for CtTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CtTable {
    /// An empty table with default config (64 shards, 4M bound).
    pub fn new() -> Self {
        Self::with_config(CtConfig::default())
    }

    pub fn with_config(cfg: CtConfig) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        CtTable {
            shards: (0..n).map(|_| Shard::default()).collect(),
            shard_mask: n - 1,
            shard_pmd: vec![0; n],
            sweep_cursor: 0,
            total: 0,
            cfg,
            timeouts: CtTimeouts::default(),
            zones: ZoneLimits::default(),
            stats: CtStats::default(),
        }
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Set a per-zone connection limit.
    pub fn set_zone_limit(&mut self, zone: u16, limit: usize) {
        self.zones.set_limit(zone, limit);
    }

    /// Set every idle timeout to `ns` (tests and soak scenarios).
    pub fn set_all_timeouts(&mut self, ns: u64) {
        self.timeouts = CtTimeouts::uniform(ns);
    }

    fn shard_of(&self, key: &ConnKey) -> usize {
        (key.hash() as usize) & self.shard_mask
    }

    /// Track one packet; legacy-compatible entry point (no TCP flags,
    /// no PMD attribution).
    pub fn process(&mut self, key: ConnKey, action: CtAction, now_ns: u64) -> CtVerdict {
        self.process_full(key, action, None, None, now_ns)
    }

    /// Track one packet. Looks the 5-tuple up in both directions (plus
    /// the NAT translation index), advances the protocol state machine
    /// using `tcp_flags` when available, optionally commits new
    /// connections, and updates liveness. Expired connections are
    /// reaped lazily on access, so a lookup never returns stale state
    /// even between sweep rounds.
    pub fn process_full(
        &mut self,
        key: ConnKey,
        action: CtAction,
        tcp_flags: Option<u8>,
        pmd: Option<usize>,
        now_ns: u64,
    ) -> CtVerdict {
        self.stats.ops += 1;
        let key = ConnKey {
            zone: action.zone,
            ..key
        };
        let si = self.shard_of(&key);
        self.note_affinity(si, pmd);

        // Original direction?
        if let Some(mut v) = self.probe(si, &key, false, tcp_flags, now_ns) {
            // Commit on an existing connection sets the mark only when
            // previously unset (OVS semantics: first commit wins); the
            // verdict carries the stored mark, so only a mark to set
            // costs a second lookup.
            if let (true, Some(m), 0) = (action.commit, action.mark, v.mark) {
                self.shards[si]
                    .conns
                    .get_mut(&key)
                    .expect("probed live")
                    .mark = m;
                v.mark = m;
            }
            return v;
        }
        // Reply direction?
        let rkey = key.reversed();
        let ri = self.shard_of(&rkey);
        if let Some(v) = self.probe(ri, &rkey, true, tcp_flags, now_ns) {
            return v;
        }
        // NATed reply: the reply arrives with the *translated* tuple,
        // so probe the translation index and restore the original
        // addresses. The index entry lives in the shard of the
        // translated key — i.e. exactly the shard we hash this packet
        // to, so the probe stays shard-local.
        if let Some((orig_key, nat)) = self.shards[si].nat_index.get(&key).copied() {
            let oi = self.shard_of(&orig_key);
            if let Some(mut v) = self.probe(oi, &orig_key, true, tcp_flags, now_ns) {
                v.nat = Some(reply_rewrite(&orig_key, nat));
                return v;
            }
        }

        // Miss: a connection this table has never seen (or one that
        // idled out and was lazily reaped above).
        self.stats.misses += 1;
        let verdict_bits = ct_state::TRACKED | ct_state::NEW;
        if !action.commit {
            return CtVerdict::pass(
                verdict_bits,
                action.mark.unwrap_or(0),
                action.nat.map(forward_rewrite),
            );
        }

        // Committing path: validate, make room, insert.
        if let Some(reason) = expiry::invalid_new(key.proto, tcp_flags, self.cfg.tcp_loose) {
            self.stats.invalid_drops += 1;
            coverage!("ct_invalid_drop");
            return CtVerdict::refuse(reason);
        }
        if !self.zones.admit(key.zone) {
            self.stats.zone_limit_drops += 1;
            coverage!("ct_limit_drop");
            return CtVerdict::refuse(CtDrop::ZoneLimit);
        }
        let over_cap = self.total >= self.cfg.max_conns;
        let pressured = limits::under_pressure(self.total, &self.cfg);
        if over_cap || pressured {
            // Over the bound we *must* free a slot; under pressure the
            // early-drop defense proactively recycles a NEW connection
            // so ESTABLISHED state is never the victim later.
            let evicted = self.evict_one(si, now_ns, over_cap && !self.cfg.early_drop);
            if over_cap && !evicted {
                self.stats.full_drops += 1;
                coverage!("ct_full_drop");
                return CtVerdict::refuse(CtDrop::TableFull);
            }
        }
        self.zones.inc(key.zone);
        self.total += 1;
        self.stats.commits += 1;
        coverage!("ct_new");
        let nat_tkey = action.nat.map(|nat| translated_reply_key(&key, nat));
        if let Some(tkey) = nat_tkey {
            let ti = self.shard_of(&tkey);
            self.shards[ti]
                .nat_index
                .insert(tkey, (key, action.nat.expect("nat_tkey implies nat")));
        }
        let state = expiry::initial_state(key.proto);
        self.shards[si].insert(
            key,
            Conn {
                state,
                created_ns: now_ns,
                last_seen_ns: now_ns,
                mark: action.mark.unwrap_or(0),
                nat: action.nat,
                nat_tkey,
                referenced: false,
                packets: 1,
            },
        );
        CtVerdict::pass(
            verdict_bits,
            action.mark.unwrap_or(0),
            action.nat.map(forward_rewrite),
        )
    }

    /// Probe one shard for `key`; reap it lazily if expired, otherwise
    /// advance the state machine and build the verdict. `reply` marks
    /// reply-direction traffic (establishes the connection).
    fn probe(
        &mut self,
        si: usize,
        key: &ConnKey,
        reply: bool,
        tcp_flags: Option<u8>,
        now_ns: u64,
    ) -> Option<CtVerdict> {
        let conn = self.shards[si].conns.get_mut(key)?;
        if now_ns.saturating_sub(conn.last_seen_ns) > conn.state.timeout(&self.timeouts) {
            self.remove_conn(key);
            self.stats.expired += 1;
            coverage!("ct_lazy_expire");
            return None;
        }
        conn.last_seen_ns = now_ns;
        conn.referenced = true;
        conn.packets += 1;
        let was_established = conn.state.is_established();
        conn.state = expiry::advance(conn.state, tcp_flags, reply);
        if !was_established && conn.state.is_established() {
            self.stats.established += 1;
            coverage!("ct_established");
        }
        self.stats.hits += 1;
        coverage!("ct_hit");
        let mut bits = ct_state::TRACKED
            | if conn.state.is_established() {
                ct_state::ESTABLISHED
            } else {
                ct_state::NEW
            };
        let nat = if reply {
            bits |= ct_state::REPLY;
            // Only REPLY bit + ESTABLISHED for replies, like before.
            bits = (bits & !ct_state::NEW) | ct_state::ESTABLISHED;
            conn.nat.map(|n| reply_rewrite(key, n))
        } else {
            conn.nat.map(forward_rewrite)
        };
        Some(CtVerdict::pass(bits, conn.mark, nat))
    }

    /// Remove `key`, fixing zone counts and the NAT index. Returns the
    /// removed connection.
    fn remove_conn(&mut self, key: &ConnKey) -> Option<Conn> {
        let si = self.shard_of(key);
        let conn = self.shards[si].conns.remove(key)?;
        if let Some(tkey) = conn.nat_tkey {
            let ti = self.shard_of(&tkey);
            self.shards[ti].nat_index.remove(&tkey);
        }
        self.zones.dec(key.zone);
        self.total -= 1;
        Some(conn)
    }

    /// Find and remove one victim, starting at `start_shard` and
    /// scanning a few neighbours. With `allow_established` false (the
    /// early-drop defense) only expired or never-established
    /// connections are eligible; with it true (undefended LRU) anything
    /// old enough to lose its second chance goes.
    fn evict_one(&mut self, start_shard: usize, now_ns: u64, allow_established: bool) -> bool {
        const SCAN_SHARDS: usize = 4;
        let timeouts = self.timeouts;
        for off in 0..SCAN_SHARDS.min(self.shards.len()) {
            let si = (start_shard + off) & self.shard_mask;
            if let Some(victim) =
                self.shards[si].evict_candidate(now_ns, &timeouts, allow_established)
            {
                let was_established = self.shards[si]
                    .conns
                    .get(&victim)
                    .map(|c| c.state.is_established())
                    .unwrap_or(false);
                let was_expired = self.shards[si]
                    .conns
                    .get(&victim)
                    .map(|c| now_ns.saturating_sub(c.last_seen_ns) > c.state.timeout(&timeouts))
                    .unwrap_or(false);
                self.remove_conn(&victim);
                if was_expired {
                    self.stats.expired += 1;
                } else {
                    self.stats.evictions += 1;
                    coverage!("ct_evict");
                    if !was_established {
                        self.stats.early_drops += 1;
                        coverage!("ct_early_drop");
                    }
                }
                return true;
            }
        }
        false
    }

    /// Sweep the next `n_shards` shards of the rotating cursor,
    /// removing idle connections. Rides the revalidator cadence so the
    /// whole table is covered every `shards / n_shards` rounds without
    /// ever scanning it at once. Returns connections removed.
    pub fn sweep_slice(&mut self, now_ns: u64, n_shards: usize) -> usize {
        let n = n_shards.clamp(1, self.shards.len());
        self.stats.sweeps += 1;
        let timeouts = self.timeouts;
        let mut removed = 0;
        for _ in 0..n {
            let si = self.sweep_cursor;
            self.sweep_cursor = (self.sweep_cursor + 1) & self.shard_mask;
            self.stats.swept_shards += 1;
            let expired = self.shards[si].expired_keys(now_ns, &timeouts);
            for k in expired {
                self.remove_conn(&k);
                self.stats.expired += 1;
                removed += 1;
            }
            self.shards[si].compact_clock();
        }
        removed
    }

    /// Full-table sweep (tests, `ct/flush`-style maintenance). One pass
    /// over every shard.
    pub fn sweep_all(&mut self, now_ns: u64) -> usize {
        self.sweep_slice(now_ns, self.shards.len())
    }

    /// Legacy name for a full-table expiry pass.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        self.sweep_all(now_ns)
    }

    /// Drop tracked connections — all of them, or one zone's. Returns
    /// how many were removed.
    pub fn flush(&mut self, zone: Option<u16>) -> usize {
        let keys: Vec<ConnKey> = self
            .shards
            .iter()
            .flat_map(|s| s.conns.keys().copied())
            .filter(|k| zone.is_none_or(|z| k.zone == z))
            .collect();
        let mut removed = 0;
        for k in keys {
            if self.remove_conn(&k).is_some() {
                removed += 1;
            }
        }
        for s in &mut self.shards {
            s.compact_clock();
        }
        self.stats.flushed += removed as u64;
        removed
    }

    /// Serialize every tracked connection for a datapath snapshot.
    /// Sorted by `(hash, key)` so the snapshot is byte-deterministic
    /// regardless of shard iteration order.
    pub fn snapshot_conns(&self) -> Vec<(ConnKey, Conn)> {
        let mut out: Vec<(ConnKey, Conn)> = self
            .shards
            .iter()
            .flat_map(|s| s.conns.iter().map(|(k, c)| (*k, *c)))
            .collect();
        out.sort_by_key(|(k, _)| (k.hash(), *k));
        out
    }

    /// Rebuild table state from a snapshot taken with
    /// [`snapshot_conns`](Self::snapshot_conns): re-shard each
    /// connection, re-derive the NAT reply index from `nat_tkey`, and
    /// restore zone accounting. Existing entries for the same key are
    /// replaced without double-counting. Returns how many connections
    /// were restored. `accounting_ok()` holds afterwards.
    pub fn restore_conns(&mut self, conns: &[(ConnKey, Conn)]) -> usize {
        let mut restored = 0;
        for (key, conn) in conns {
            let si = self.shard_of(key);
            if self.shards[si].conns.contains_key(key) {
                // Replace in place; zone/total accounting already counts it.
                self.shards[si].conns.insert(*key, *conn);
            } else {
                self.shards[si].insert(*key, *conn);
                self.zones.inc(key.zone);
                self.total += 1;
            }
            if let (Some(nat), Some(tkey)) = (conn.nat, conn.nat_tkey) {
                let ti = self.shard_of(&tkey);
                self.shards[ti].nat_index.insert(tkey, (*key, nat));
            }
            restored += 1;
        }
        debug_assert!(self.accounting_ok());
        restored
    }

    /// Record which PMD touched shard `si`; rxq→PMD stickiness means a
    /// shard is almost always re-touched by the same thread, which is
    /// what makes sharding pay off.
    fn note_affinity(&mut self, si: usize, pmd: Option<usize>) {
        let Some(p) = pmd else { return };
        let tag = p as u32 + 1;
        let prev = self.shard_pmd[si];
        if prev == tag {
            self.stats.affinity_hits += 1;
        } else if prev != 0 {
            self.stats.affinity_migrations += 1;
        }
        self.shard_pmd[si] = tag;
    }

    /// Per-zone `(zone, count, limit)` rows, sorted by zone.
    pub fn zone_rows(&self) -> Vec<(u16, usize, Option<usize>)> {
        self.zones.rows()
    }

    /// `dpctl/ct-dump`-style listing: one line per connection, sorted,
    /// optionally filtered by zone.
    pub fn dump(&self, zone: Option<u16>, now_ns: u64) -> String {
        let mut rows: Vec<(ConnKey, &Conn)> = self
            .shards
            .iter()
            .flat_map(|s| s.conns.iter())
            .filter(|(k, _)| zone.is_none_or(|z| k.zone == z))
            .map(|(k, c)| (*k, c))
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        let mut out = String::new();
        for (k, c) in &rows {
            let age_s = now_ns.saturating_sub(c.created_ns) / 1_000_000_000;
            out.push_str(&format!(
                "{},orig=(src={},dst={},sport={},dport={}),zone={},state={},age={}s,packets={}",
                proto_name(k.proto),
                ip_str(k.src_ip),
                ip_str(k.dst_ip),
                k.src_port,
                k.dst_port,
                k.zone,
                c.state.label(),
                age_s,
                c.packets,
            ));
            if c.mark != 0 {
                out.push_str(&format!(",mark=0x{:x}", c.mark));
            }
            match c.nat {
                Some(NatSpec::Snat { ip, port }) => {
                    out.push_str(&format!(",nat=snat({})", nat_str(ip, port)))
                }
                Some(NatSpec::Dnat { ip, port }) => {
                    out.push_str(&format!(",nat=dnat({})", nat_str(ip, port)))
                }
                None => {}
            }
            out.push('\n');
        }
        out.push_str(&format!("ct: {} connection(s)\n", rows.len()));
        out
    }

    /// `dpctl/ct-stats`-style summary: occupancy, shard spread, zone
    /// limits, and every named counter.
    pub fn stats_show(&self) -> String {
        let s = &self.stats;
        let occ = self.shards.iter().map(|sh| sh.conns.len());
        let (min, max) = occ
            .clone()
            .fold((usize::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
        let min = if self.total == 0 { 0 } else { min };
        let mut out = String::new();
        out.push_str(&format!(
            "conns: {} / {} max ({} shards, occupancy min {} max {})\n",
            self.total,
            self.cfg.max_conns,
            self.shards.len(),
            min,
            max
        ));
        out.push_str(&format!(
            "policy: early-drop {} (pressure {}%), tcp {}\n",
            if self.cfg.early_drop { "on" } else { "off" },
            self.cfg.pressure_pct,
            if self.cfg.tcp_loose {
                "loose"
            } else {
                "strict"
            },
        ));
        for (zone, count, limit) in self.zone_rows() {
            match limit {
                Some(l) => out.push_str(&format!("zone {zone}: {count} / {l} limit\n")),
                None => out.push_str(&format!("zone {zone}: {count}\n")),
            }
        }
        out.push_str(&format!(
            "ops:{} hits:{} misses:{} commits:{} established:{}\n",
            s.ops, s.hits, s.misses, s.commits, s.established
        ));
        out.push_str(&format!(
            "drops: zone-limit:{} table-full:{} invalid:{}\n",
            s.zone_limit_drops, s.full_drops, s.invalid_drops
        ));
        out.push_str(&format!(
            "evictions:{} (early-drop:{}) expired:{} flushed:{}\n",
            s.evictions, s.early_drops, s.expired, s.flushed
        ));
        out.push_str(&format!(
            "sweeps:{} shards-swept:{} pmd-affinity hits:{} migrations:{}\n",
            s.sweeps, s.swept_shards, s.affinity_hits, s.affinity_migrations
        ));
        out
    }

    /// Internal consistency: shard sums and zone counts must both equal
    /// the total (debug-asserted by soak tests).
    pub fn accounting_ok(&self) -> bool {
        let shard_sum: usize = self.shards.iter().map(|s| s.conns.len()).sum();
        shard_sum == self.total && self.zones.total() == self.total
    }
}

/// The rewrite applied to forward-direction packets of a NATed connection.
pub(crate) fn forward_rewrite(nat: NatSpec) -> NatRewrite {
    match nat {
        NatSpec::Snat { ip, port } => NatRewrite::Src { ip, port },
        NatSpec::Dnat { ip, port } => NatRewrite::Dst { ip, port },
    }
}

/// The rewrite applied to reply-direction packets: the inverse mapping,
/// restoring the addresses the connection's originator used. `orig` is the
/// stored (pre-NAT) forward key.
pub(crate) fn reply_rewrite(orig: &ConnKey, nat: NatSpec) -> NatRewrite {
    match nat {
        // SNAT rewrote the forward source; the reply's destination must be
        // restored to the original (private) source address.
        NatSpec::Snat { .. } => NatRewrite::Dst {
            ip: orig.src_ip,
            port: Some(orig.src_port),
        },
        // DNAT rewrote the forward destination; the reply's source must be
        // restored to the original (virtual) destination address.
        NatSpec::Dnat { .. } => NatRewrite::Src {
            ip: orig.dst_ip,
            port: Some(orig.dst_port),
        },
    }
}

/// The 5-tuple a reply to a NATed connection arrives with.
pub(crate) fn translated_reply_key(orig: &ConnKey, nat: NatSpec) -> ConnKey {
    let mut fwd = *orig;
    match nat {
        NatSpec::Snat { ip, port } => {
            fwd.src_ip = ip;
            if let Some(p) = port {
                fwd.src_port = p;
            }
        }
        NatSpec::Dnat { ip, port } => {
            fwd.dst_ip = ip;
            if let Some(p) = port {
                fwd.dst_port = p;
            }
        }
    }
    fwd.reversed()
}

/// Apply a NAT rewrite to an Ethernet/IPv4/{TCP,UDP} frame in place,
/// repairing the IP header checksum and the L4 checksum.
pub fn apply_rewrite(frame: &mut [u8], rw: &NatRewrite) -> bool {
    use ovs_packet::ethernet::{self, EthernetFrame};
    use ovs_packet::ipv4::{self, Ipv4Packet};
    use ovs_packet::{tcp, udp, EtherType};

    let Ok(eth) = EthernetFrame::new_checked(&*frame) else {
        return false;
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return false;
    }
    let l3 = ethernet::HEADER_LEN;
    let (proto, header_len) = {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[l3..]) else {
            return false;
        };
        (ip.protocol(), ip.header_len())
    };
    {
        let mut ip = Ipv4Packet::new_unchecked(&mut frame[l3..]);
        match rw {
            NatRewrite::Src { ip: a, .. } => ip.set_src(*a),
            NatRewrite::Dst { ip: a, .. } => ip.set_dst(*a),
        }
        ip.fill_checksum();
    }
    let (src, dst) = {
        let ip = Ipv4Packet::new_unchecked(&frame[l3..]);
        (ip.src(), ip.dst())
    };
    let l4 = l3 + header_len;
    match proto {
        ipv4::protocol::TCP => {
            if let Ok(mut t) = tcp::TcpSegment::new_checked(&mut frame[l4..]) {
                match rw {
                    NatRewrite::Src { port: Some(p), .. } => t.set_src_port(*p),
                    NatRewrite::Dst { port: Some(p), .. } => t.set_dst_port(*p),
                    _ => {}
                }
                t.fill_checksum_ipv4(src, dst);
            }
        }
        ipv4::protocol::UDP => {
            if let Ok(mut u) = udp::UdpDatagram::new_checked(&mut frame[l4..]) {
                match rw {
                    NatRewrite::Src { port: Some(p), .. } => u.set_src_port(*p),
                    NatRewrite::Dst { port: Some(p), .. } => u.set_dst_port(*p),
                    _ => {}
                }
                u.fill_checksum_ipv4(src, dst);
            }
        }
        _ => {}
    }
    true
}

/// The TCP flag byte of an Ethernet/IPv4/TCP frame, if it is one — the
/// datapath feeds this to [`CtTable::process_full`] so the state
/// machine can see SYN/FIN/RST.
pub fn tcp_flags_of(frame: &[u8]) -> Option<u8> {
    use ovs_packet::ethernet::{self, EthernetFrame};
    use ovs_packet::ipv4::{self, Ipv4Packet};
    use ovs_packet::{tcp, EtherType};

    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::Ipv4 {
        return None;
    }
    let l3 = ethernet::HEADER_LEN;
    let ip = Ipv4Packet::new_checked(&frame[l3..]).ok()?;
    if ip.protocol() != ipv4::protocol::TCP {
        return None;
    }
    let t = tcp::TcpSegment::new_checked(ip.payload()).ok()?;
    Some(t.flags())
}

fn ip_str(ip: [u8; 4]) -> String {
    format!("{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3])
}

fn nat_str(ip: [u8; 4], port: Option<u16>) -> String {
    match port {
        Some(p) => format!("{}:{}", ip_str(ip), p),
        None => ip_str(ip),
    }
}

fn proto_name(p: u8) -> &'static str {
    match p {
        1 => "icmp",
        6 => "tcp",
        17 => "udp",
        _ => "ip",
    }
}

#[cfg(test)]
mod tests;
