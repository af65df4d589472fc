//! One hash shard of the table: its connections, the slice of the NAT
//! translation index whose *translated* keys hash here, and a
//! second-chance CLOCK queue driving eviction. Shards are sized so the
//! per-PMD access pattern (flows pinned to rxqs pinned to PMDs) keeps
//! each shard hot in one thread's cache.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use crate::expiry::CtTimeouts;
use crate::{ConnKey, NatSpec, ProtoState};

/// One tracked connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conn {
    pub state: ProtoState,
    pub created_ns: u64,
    pub last_seen_ns: u64,
    pub mark: u32,
    pub nat: Option<NatSpec>,
    /// The translated reply key this connection indexed under, kept so
    /// removal can clean the NAT index in O(1).
    pub nat_tkey: Option<ConnKey>,
    /// Second-chance bit: set on every hit, cleared (with a requeue)
    /// when the CLOCK hand passes.
    pub referenced: bool,
    pub packets: u64,
}

/// How many CLOCK entries one eviction attempt may examine. Bounds the
/// worst-case work a single commit can trigger.
const CLOCK_PROBES: usize = 8;

#[derive(Debug, Default)]
pub struct Shard {
    pub conns: HashMap<ConnKey, Conn>,
    /// Reply-direction *translated* keys → (original key, spec) for
    /// NATed connections whose translated key hashes to this shard.
    pub nat_index: HashMap<ConnKey, (ConnKey, NatSpec)>,
    /// Insertion-ordered CLOCK queue over this shard's keys. May hold
    /// stale keys (removed connections); they are discarded when the
    /// hand reaches them and purged wholesale by `compact_clock`.
    clock: VecDeque<ConnKey>,
}

impl Shard {
    /// Insert (or replace) `key`'s connection and queue it on the
    /// CLOCK; returns the stored connection.
    pub fn insert(&mut self, key: ConnKey, conn: Conn) -> &mut Conn {
        self.clock.push_back(key);
        match self.conns.entry(key) {
            Entry::Occupied(mut e) => {
                e.insert(conn);
                e.into_mut()
            }
            Entry::Vacant(e) => e.insert(conn),
        }
    }

    /// Advance the CLOCK hand up to `CLOCK_PROBES` steps and return a
    /// victim. With `allow_established` false (the early-drop defense)
    /// the hand honours second chances and only ever returns expired or
    /// never-established entries — ESTABLISHED connections are immune.
    /// With it true (an undefended bounded table) eviction degrades to
    /// naive oldest-first FIFO: exactly the policy a state-exhaustion
    /// attack feasts on, since the oldest entries are the legitimate
    /// long-lived connections.
    pub fn evict_candidate(
        &mut self,
        now_ns: u64,
        timeouts: &CtTimeouts,
        allow_established: bool,
    ) -> Option<ConnKey> {
        for _ in 0..CLOCK_PROBES.min(self.clock.len().max(1)) {
            let key = self.clock.pop_front()?;
            let Some(conn) = self.conns.get_mut(&key) else {
                continue; // stale: connection already removed
            };
            if now_ns.saturating_sub(conn.last_seen_ns) > conn.state.timeout(timeouts) {
                return Some(key); // expired: free regardless of policy
            }
            if allow_established {
                return Some(key); // undefended: oldest-first, no immunity
            }
            if conn.referenced {
                conn.referenced = false;
                self.clock.push_back(key);
                continue; // second chance
            }
            if conn.state.is_established() {
                self.clock.push_back(key);
                continue; // immune under the early-drop policy
            }
            return Some(key);
        }
        None
    }

    /// Keys of every expired connection in this shard (sweep path).
    pub fn expired_keys(&self, now_ns: u64, timeouts: &CtTimeouts) -> Vec<ConnKey> {
        self.conns
            .iter()
            .filter(|(_, c)| now_ns.saturating_sub(c.last_seen_ns) > c.state.timeout(timeouts))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Drop stale CLOCK entries so the queue tracks the live population
    /// (called once per sweep visit; keeps memory bounded between
    /// evictions).
    pub fn compact_clock(&mut self) {
        if self.clock.len() > self.conns.len() {
            self.clock.retain(|k| self.conns.contains_key(k));
        }
    }
}
