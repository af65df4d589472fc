//! The NF API and the built-in network functions.
//!
//! An NF is handed one packet at a time and returns its [`NfVerdict`].
//! NFs are deliberately tiny state machines: they never touch the
//! datapath, the kernel, or each other — the manager owns all transport
//! (rings, the exit list) and all policy (chain wiring, crash handling).
//! That separation is what makes `catch_unwind` a meaningful isolation
//! boundary: a panicking NF can corrupt nothing but its own state, which
//! the manager throws away and rebuilds from the [`NfSpec`].

use ovs_packet::DpPacket;

/// Per-packet decision returned by an NF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfVerdict {
    /// Pass the packet to the next NF in the chain (or the chain's
    /// default output port if this is the last NF).
    Forward,
    /// Drop the packet. Accounted as a named `nf_verdict_drop` — an NF
    /// dropping traffic is policy, not loss.
    Drop,
    /// Short-circuit the rest of the chain and emit the packet on the
    /// given datapath port (e.g. a load balancer picking a backend).
    Steer(u32),
}

/// A network function: decides one packet at a time.
pub trait NetworkFunction {
    /// Short kind label rendered by `nfv/show` (e.g. `"firewall"`).
    fn kind(&self) -> &'static str;
    /// Process one packet, which the NF may rewrite, and decide its fate.
    fn process(&mut self, pkt: &mut DpPacket) -> NfVerdict;
}

/// Declarative NF config. The manager keeps the spec alongside the live
/// instance so a crashed NF can be rebuilt from scratch — restart means
/// "fresh state from spec", exactly like an openNetVM worker respawn.
#[derive(Debug, Clone)]
pub enum NfSpec {
    /// Forwards everything untouched. Exists so parity tests can prove
    /// a chain of pass-throughs is observationally equal to no chain.
    PassThrough,
    /// Stateless 5-tuple firewall: first matching rule wins.
    Firewall {
        rules: Vec<FwRule>,
        default_allow: bool,
    },
    /// L4 load balancer: hashes the 5-tuple onto a backend port and
    /// steers the packet there.
    LoadBalancer { backends: Vec<u32> },
    /// Flow monitor: counts packets per flow hash, always forwards.
    Monitor,
    /// DPI-lite: drops packets whose payload contains any pattern.
    Dpi { patterns: Vec<Vec<u8>> },
}

impl NfSpec {
    /// Instantiate a fresh NF from the spec (initial state, zeroed tables).
    pub fn build(&self) -> Box<dyn NetworkFunction> {
        match self {
            NfSpec::PassThrough => Box::new(PassThrough),
            NfSpec::Firewall {
                rules,
                default_allow,
            } => Box::new(Firewall {
                rules: rules.clone(),
                default_allow: *default_allow,
            }),
            NfSpec::LoadBalancer { backends } => Box::new(L4LoadBalancer {
                backends: backends.clone(),
            }),
            NfSpec::Monitor => Box::new(FlowMonitor {
                flows: std::collections::BTreeMap::new(),
            }),
            NfSpec::Dpi { patterns } => Box::new(DpiLite {
                patterns: patterns.clone(),
            }),
        }
    }

    /// Kind label without building an instance.
    pub fn kind(&self) -> &'static str {
        match self {
            NfSpec::PassThrough => "passthrough",
            NfSpec::Firewall { .. } => "firewall",
            NfSpec::LoadBalancer { .. } => "l4lb",
            NfSpec::Monitor => "monitor",
            NfSpec::Dpi { .. } => "dpi",
        }
    }
}

/// One stateless firewall rule. `proto: None` matches any protocol;
/// the port range is inclusive and matches the L4 destination port.
#[derive(Debug, Clone, Copy)]
pub struct FwRule {
    pub proto: Option<u8>,
    pub dport_lo: u16,
    pub dport_hi: u16,
    pub allow: bool,
}

/// Parsed 5-tuple. Ports are zero for non-TCP/UDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiveTuple {
    pub proto: u8,
    pub src: [u8; 4],
    pub dst: [u8; 4],
    pub sport: u16,
    pub dport: u16,
}

/// Parse Ethernet/IPv4/L4 headers out of a raw frame. Returns `None`
/// for non-IPv4 or truncated frames; NFs treat unparseable traffic as
/// "no match" (firewall falls back to its default, LB forwards).
pub fn parse_five_tuple(data: &[u8]) -> Option<FiveTuple> {
    if data.len() < 34 || data[12] != 0x08 || data[13] != 0x00 {
        return None;
    }
    let ihl = (data[14] & 0x0f) as usize * 4;
    let proto = data[23];
    let src = [data[26], data[27], data[28], data[29]];
    let dst = [data[30], data[31], data[32], data[33]];
    let l4 = 14 + ihl;
    let (sport, dport) = if (proto == 6 || proto == 17) && data.len() >= l4 + 4 {
        (
            u16::from_be_bytes([data[l4], data[l4 + 1]]),
            u16::from_be_bytes([data[l4 + 2], data[l4 + 3]]),
        )
    } else {
        (0, 0)
    };
    Some(FiveTuple {
        proto,
        src,
        dst,
        sport,
        dport,
    })
}

/// Offset of the L4 payload within the frame (past UDP/TCP headers), or
/// `None` if the frame has no parseable payload.
pub fn payload_offset(data: &[u8]) -> Option<usize> {
    let t = parse_five_tuple(data)?;
    let l4 = 14 + (data[14] & 0x0f) as usize * 4;
    let off = match t.proto {
        17 => l4 + 8,
        6 if data.len() > l4 + 12 => l4 + ((data[l4 + 12] >> 4) as usize * 4),
        _ => return None,
    };
    (off <= data.len()).then_some(off)
}

/// FNV-1a over the canonical 13-byte 5-tuple encoding. This exact
/// function is the LB's contract: the parity suite re-implements it
/// independently and checks backend choice packet-by-packet.
pub fn five_tuple_hash(t: &FiveTuple) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in t.src {
        eat(b);
    }
    for b in t.dst {
        eat(b);
    }
    eat((t.sport >> 8) as u8);
    eat(t.sport as u8);
    eat((t.dport >> 8) as u8);
    eat(t.dport as u8);
    eat(t.proto);
    h
}

/// Built-in: forwards everything untouched.
pub struct PassThrough;

impl NetworkFunction for PassThrough {
    fn kind(&self) -> &'static str {
        "passthrough"
    }
    fn process(&mut self, _pkt: &mut DpPacket) -> NfVerdict {
        NfVerdict::Forward
    }
}

/// Built-in: stateless 5-tuple firewall, first matching rule wins.
pub struct Firewall {
    rules: Vec<FwRule>,
    default_allow: bool,
}

impl NetworkFunction for Firewall {
    fn kind(&self) -> &'static str {
        "firewall"
    }
    fn process(&mut self, pkt: &mut DpPacket) -> NfVerdict {
        let allow = match parse_five_tuple(pkt.data()) {
            Some(t) => self
                .rules
                .iter()
                .find(|r| {
                    r.proto.is_none_or(|pr| pr == t.proto)
                        && t.dport >= r.dport_lo
                        && t.dport <= r.dport_hi
                })
                .map_or(self.default_allow, |r| r.allow),
            None => self.default_allow,
        };
        if allow {
            NfVerdict::Forward
        } else {
            NfVerdict::Drop
        }
    }
}

/// Built-in: L4 load balancer, steers by 5-tuple hash mod backends.
pub struct L4LoadBalancer {
    backends: Vec<u32>,
}

impl NetworkFunction for L4LoadBalancer {
    fn kind(&self) -> &'static str {
        "l4lb"
    }
    fn process(&mut self, pkt: &mut DpPacket) -> NfVerdict {
        match parse_five_tuple(pkt.data()) {
            Some(t) if !self.backends.is_empty() => {
                let i = (five_tuple_hash(&t) % self.backends.len() as u64) as usize;
                NfVerdict::Steer(self.backends[i])
            }
            _ => NfVerdict::Forward,
        }
    }
}

/// Built-in: per-flow packet counter, always forwards.
pub struct FlowMonitor {
    flows: std::collections::BTreeMap<u64, u64>,
}

impl NetworkFunction for FlowMonitor {
    fn kind(&self) -> &'static str {
        "monitor"
    }
    fn process(&mut self, pkt: &mut DpPacket) -> NfVerdict {
        if let Some(t) = parse_five_tuple(pkt.data()) {
            *self.flows.entry(five_tuple_hash(&t)).or_insert(0) += 1;
        }
        NfVerdict::Forward
    }
}

/// Built-in: naive payload substring matcher, drops on match.
pub struct DpiLite {
    patterns: Vec<Vec<u8>>,
}

impl NetworkFunction for DpiLite {
    fn kind(&self) -> &'static str {
        "dpi"
    }
    fn process(&mut self, pkt: &mut DpPacket) -> NfVerdict {
        let hit = payload_offset(pkt.data()).is_some_and(|off| {
            let pay = &pkt.data()[off..];
            self.patterns
                .iter()
                .any(|pat| !pat.is_empty() && pay.windows(pat.len()).any(|w| w == &pat[..]))
        });
        if hit {
            NfVerdict::Drop
        } else {
            NfVerdict::Forward
        }
    }
}
