//! `ovs-ofctl add-flow` syntax: parse textual flow specifications into
//! [`OfRule`]s.
//!
//! NSX programs OVS through OpenFlow, but humans (and most test rigs)
//! speak the `ovs-ofctl` text dialect. This module implements the subset
//! the reproduction needs:
//!
//! ```text
//! table=0, priority=100, in_port=2, ip, nw_dst=10.0.0.0/24, actions=output:3
//! table=1, ct_state=+new, udp, tp_dst=53, actions=ct(commit,zone=5,table=2)
//! table=2, dl_dst=52:01:00:00:00:01, actions=set_tunnel:5001->172.16.0.2,output:1
//! ```

use crate::dpif::PortNo;
use crate::ofproto::{OfAction, OfRule};
use ovs_ct::NatSpec;
use ovs_packet::dp_packet::ct_state;
use ovs_packet::flow::{fields, FlowKey, FlowMask, WORDS};
use ovs_packet::{EtherType, MacAddr};

/// A parse failure, with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub token: String,
    pub reason: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot parse '{}': {}", self.token, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err(token: &str, reason: &'static str) -> ParseError {
    ParseError {
        token: token.to_string(),
        reason,
    }
}

fn parse_ip(s: &str) -> Result<[u8; 4], ParseError> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return Err(err(s, "expected a.b.c.d"));
    }
    let mut ip = [0u8; 4];
    for (i, p) in parts.iter().enumerate() {
        ip[i] = p.parse().map_err(|_| err(s, "bad IPv4 octet"))?;
    }
    Ok(ip)
}

fn parse_ip_prefix(s: &str) -> Result<([u8; 4], u8), ParseError> {
    match s.split_once('/') {
        Some((ip, len)) => Ok((
            parse_ip(ip)?,
            len.parse().map_err(|_| err(s, "bad prefix length"))?,
        )),
        None => Ok((parse_ip(s)?, 32)),
    }
}

fn parse_mac(s: &str) -> Result<MacAddr, ParseError> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 6 {
        return Err(err(s, "expected xx:xx:xx:xx:xx:xx"));
    }
    let mut m = [0u8; 6];
    for (i, p) in parts.iter().enumerate() {
        m[i] = u8::from_str_radix(p, 16).map_err(|_| err(s, "bad MAC byte"))?;
    }
    Ok(MacAddr(m))
}

fn parse_u<T: std::str::FromStr>(s: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| err(s, "bad number"))
}

/// ct_state bit-match syntax: `+new`, `+est+trk`, `-new`, ...
/// Returns (key bits, mask bits).
fn parse_ct_state(s: &str) -> Result<(u8, u8), ParseError> {
    let mut key = 0u8;
    let mut mask = 0u8;
    let mut rest = s;
    while !rest.is_empty() {
        let (sign, body) = rest.split_at(1);
        let positive = match sign {
            "+" => true,
            "-" => false,
            _ => return Err(err(s, "ct_state terms start with + or -")),
        };
        let end = body.find(['+', '-']).unwrap_or(body.len());
        let (name, tail) = body.split_at(end);
        let bit = match name {
            "new" => ct_state::NEW,
            "est" => ct_state::ESTABLISHED,
            "rel" => ct_state::RELATED,
            "rpl" => ct_state::REPLY,
            "trk" => ct_state::TRACKED,
            "inv" => ct_state::INVALID,
            _ => return Err(err(name, "unknown ct_state flag")),
        };
        mask |= bit;
        if positive {
            key |= bit;
        }
        rest = tail;
    }
    Ok((key, mask))
}

/// A mask matching only the given `ct_state` bits.
fn ct_state_bit_mask(bits: u8) -> FlowMask {
    let mut w = [0u64; WORDS];
    w[10] = u64::from(bits) << 56;
    FlowMask::from_words(w)
}

fn parse_ct_action(body: &str) -> Result<OfAction, ParseError> {
    let mut zone = 0u16;
    let mut commit = false;
    let mut table = 0u8;
    let mut nat = None;
    // Split on commas OUTSIDE nested parens (for nat(...)).
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut parts = Vec::new();
    for (i, ch) in body.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    for p in parts.iter().map(|p| p.trim()).filter(|p| !p.is_empty()) {
        if p == "commit" {
            commit = true;
        } else if let Some(v) = p.strip_prefix("zone=") {
            zone = parse_u(v)?;
        } else if let Some(v) = p.strip_prefix("table=") {
            table = parse_u(v)?;
        } else if let Some(v) = p.strip_prefix("nat(").and_then(|v| v.strip_suffix(')')) {
            // nat(dst=ip:port) or nat(src=ip:port) or nat(src=ip)
            let (kind, target) = v.split_once('=').ok_or(err(v, "nat needs src= or dst="))?;
            let (ip_s, port) = match target.rsplit_once(':') {
                Some((ip, port)) => (ip, Some(parse_u::<u16>(port)?)),
                None => (target, None),
            };
            let ip = parse_ip(ip_s)?;
            nat = Some(match kind {
                "src" => NatSpec::Snat { ip, port },
                "dst" => NatSpec::Dnat { ip, port },
                _ => return Err(err(kind, "nat direction must be src or dst")),
            });
        } else {
            return Err(err(p, "unknown ct() argument"));
        }
    }
    Ok(OfAction::Ct {
        zone,
        commit,
        resume_table: table,
        nat,
    })
}

fn parse_action(tok: &str) -> Result<OfAction, ParseError> {
    let tok = tok.trim();
    if let Some(p) = tok.strip_prefix("output:") {
        return Ok(OfAction::Output(parse_u::<PortNo>(p)?));
    }
    if let Some(t) = tok.strip_prefix("goto_table:") {
        return Ok(OfAction::Goto(parse_u(t)?));
    }
    if let Some(body) = tok.strip_prefix("ct(").and_then(|b| b.strip_suffix(')')) {
        return parse_ct_action(body);
    }
    if let Some(v) = tok.strip_prefix("set_tunnel:") {
        // set_tunnel:VNI->a.b.c.d
        let (id, dst) = v
            .split_once("->")
            .ok_or(err(v, "expected VNI->remote_ip"))?;
        return Ok(OfAction::SetTunnel {
            id: parse_u(id)?,
            dst: parse_ip(dst)?,
        });
    }
    if let Some(v) = tok.strip_prefix("write_metadata:") {
        return Ok(OfAction::SetMetadata(parse_u(v)?));
    }
    if let Some(m) = tok.strip_prefix("mod_dl_dst:") {
        return Ok(OfAction::SetEthDst(parse_mac(m)?));
    }
    if let Some(m) = tok.strip_prefix("mod_dl_src:") {
        return Ok(OfAction::SetEthSrc(parse_mac(m)?));
    }
    if let Some(v) = tok.strip_prefix("push_vlan:") {
        return Ok(OfAction::PushVlan(parse_u(v)?));
    }
    if tok == "pop_vlan" || tok == "strip_vlan" {
        return Ok(OfAction::PopVlan);
    }
    if let Some(v) = tok.strip_prefix("meter:") {
        return Ok(OfAction::Meter(parse_u(v)?));
    }
    if let Some(v) = tok.strip_prefix("nf_chain:") {
        return Ok(OfAction::NfChain(parse_u(v)?));
    }
    if tok == "drop" {
        return Ok(OfAction::Drop);
    }
    Err(err(tok, "unknown action"))
}

/// Parse one `ovs-ofctl add-flow` style line into an [`OfRule`].
pub fn parse_flow(spec: &str) -> Result<OfRule, ParseError> {
    let mut rule = OfRule {
        table: 0,
        priority: 0,
        key: FlowKey::default(),
        mask: FlowMask::EMPTY,
        actions: Vec::new(),
        cookie: 0,
    };
    // Split match part and actions part.
    let (matches, actions) = match spec.find("actions=") {
        Some(i) => (&spec[..i], &spec[i + "actions=".len()..]),
        None => return Err(err(spec, "missing actions=")),
    };

    for tok in matches
        .split(',')
        .map(|t| t.trim())
        .filter(|t| !t.is_empty())
    {
        if let Some(v) = tok.strip_prefix("table=") {
            rule.table = parse_u(v)?;
        } else if let Some(v) = tok.strip_prefix("priority=") {
            rule.priority = parse_u(v)?;
        } else if let Some(v) = tok.strip_prefix("cookie=") {
            rule.cookie = parse_u(v)?;
        } else if let Some(v) = tok.strip_prefix("in_port=") {
            rule.key.set_in_port(parse_u(v)?);
            rule.mask.set_field(&fields::IN_PORT);
        } else if tok == "ip" {
            rule.key.set_eth_type(EtherType::Ipv4);
            rule.mask.set_field(&fields::ETH_TYPE);
        } else if tok == "ipv6" {
            rule.key.set_eth_type(EtherType::Ipv6);
            rule.mask.set_field(&fields::ETH_TYPE);
        } else if tok == "arp" {
            rule.key.set_eth_type(EtherType::Arp);
            rule.mask.set_field(&fields::ETH_TYPE);
        } else if tok == "udp" || tok == "tcp" || tok == "icmp" {
            rule.key.set_eth_type(EtherType::Ipv4);
            rule.mask.set_field(&fields::ETH_TYPE);
            rule.key.set_nw_proto(match tok {
                "udp" => 17,
                "tcp" => 6,
                _ => 1,
            });
            rule.mask.set_field(&fields::NW_PROTO);
        } else if let Some(v) = tok.strip_prefix("nw_src=") {
            let (ip, len) = parse_ip_prefix(v)?;
            rule.key.set_nw_src_v4(ip);
            rule.mask.set_nw_src_v4_prefix(len);
        } else if let Some(v) = tok.strip_prefix("nw_dst=") {
            let (ip, len) = parse_ip_prefix(v)?;
            rule.key.set_nw_dst_v4(ip);
            rule.mask.set_nw_dst_v4_prefix(len);
        } else if let Some(v) = tok.strip_prefix("nw_proto=") {
            rule.key.set_nw_proto(parse_u(v)?);
            rule.mask.set_field(&fields::NW_PROTO);
        } else if let Some(v) = tok.strip_prefix("tp_src=") {
            rule.key.set_tp_src(parse_u(v)?);
            rule.mask.set_field(&fields::TP_SRC);
        } else if let Some(v) = tok.strip_prefix("tp_dst=") {
            rule.key.set_tp_dst(parse_u(v)?);
            rule.mask.set_field(&fields::TP_DST);
        } else if let Some(v) = tok.strip_prefix("dl_src=") {
            rule.key.set_dl_src(parse_mac(v)?);
            rule.mask.set_field(&fields::DL_SRC);
        } else if let Some(v) = tok.strip_prefix("dl_dst=") {
            rule.key.set_dl_dst(parse_mac(v)?);
            rule.mask.set_field(&fields::DL_DST);
        } else if let Some(v) = tok.strip_prefix("vlan_vid=") {
            rule.key.set_vlan_tci(parse_u::<u16>(v)? | 0x1000);
            rule.mask.set_field(&fields::VLAN_VID);
            // Presence bit.
            let mut w = [0u64; WORDS];
            w[2] = 0x1000;
            rule.mask.unite(&FlowMask::from_words(w));
        } else if let Some(v) = tok.strip_prefix("tun_id=") {
            rule.key.set_tun_id(parse_u(v)?);
            rule.mask.set_field(&fields::TUN_ID);
        } else if let Some(v) = tok.strip_prefix("metadata=") {
            rule.key.set_metadata(parse_u(v)?);
            rule.mask.set_field(&fields::METADATA);
        } else if let Some(v) = tok.strip_prefix("ct_zone=") {
            rule.key.set_ct_zone(parse_u(v)?);
            rule.mask.set_field(&fields::CT_ZONE);
        } else if let Some(v) = tok.strip_prefix("ct_state=") {
            let (bits, mask) = parse_ct_state(v)?;
            rule.key.set_ct_state(bits);
            rule.mask.unite(&ct_state_bit_mask(mask));
        } else {
            return Err(err(tok, "unknown match field"));
        }
    }

    // Actions: split on commas outside parens.
    let mut depth = 0usize;
    let mut start = 0usize;
    let bytes: Vec<char> = actions.chars().collect();
    let mut toks: Vec<String> = Vec::new();
    for (i, ch) in bytes.iter().enumerate() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                toks.push(bytes[start..i].iter().collect());
                start = i + 1;
            }
            _ => {}
        }
    }
    toks.push(bytes[start..].iter().collect());
    for t in toks.iter().map(|t| t.trim()).filter(|t| !t.is_empty()) {
        rule.actions.push(parse_action(t)?);
    }
    Ok(rule)
}

/// Parse a multi-line flow table (blank lines and `#` comments ignored).
pub fn parse_flows(text: &str) -> Result<Vec<OfRule>, ParseError> {
    text.lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_flow)
        .collect()
}

/// Render one rule's match in `ovs-ofctl` dialect (the fields this
/// parser understands).
fn render_match(rule: &OfRule) -> String {
    let has = |f: &ovs_packet::flow::Field| FlowMask::of_fields(&[f]).subset_of(&rule.mask);
    let mut parts: Vec<String> = Vec::new();
    if has(&fields::IN_PORT) {
        parts.push(format!("in_port={}", rule.key.in_port()));
    }
    if has(&fields::ETH_TYPE) {
        match rule.key.eth_type_raw() {
            0x0800 => parts.push("ip".to_string()),
            0x86dd => parts.push("ipv6".to_string()),
            0x0806 => parts.push("arp".to_string()),
            t => parts.push(format!("eth_type=0x{t:04x}")),
        }
    }
    if has(&fields::NW_PROTO) {
        parts.push(format!("nw_proto={}", rule.key.nw_proto()));
    }
    if has(&fields::DL_SRC) {
        parts.push(format!("dl_src={}", rule.key.dl_src()));
    }
    if has(&fields::DL_DST) {
        parts.push(format!("dl_dst={}", rule.key.dl_dst()));
    }
    let ip4 = |a: [u8; 4]| format!("{}.{}.{}.{}", a[0], a[1], a[2], a[3]);
    if rule.key.nw_src_v4() != [0, 0, 0, 0] {
        parts.push(format!("nw_src={}", ip4(rule.key.nw_src_v4())));
    }
    if rule.key.nw_dst_v4() != [0, 0, 0, 0] {
        parts.push(format!("nw_dst={}", ip4(rule.key.nw_dst_v4())));
    }
    if has(&fields::TP_SRC) {
        parts.push(format!("tp_src={}", rule.key.tp_src()));
    }
    if has(&fields::TP_DST) {
        parts.push(format!("tp_dst={}", rule.key.tp_dst()));
    }
    if has(&fields::TUN_ID) {
        parts.push(format!("tun_id={}", rule.key.tun_id()));
    }
    if has(&fields::METADATA) {
        parts.push(format!("metadata={}", rule.key.metadata()));
    }
    if rule.key.ct_state() != 0 {
        parts.push(format!("ct_state=0x{:02x}", rule.key.ct_state()));
    }
    parts.join(",")
}

/// `ovs-ofctl dump-flows` equivalent: one line per OpenFlow rule with
/// its **live** `n_packets`/`n_bytes` counters — upcalled packets are
/// credited at translation time and cache-forwarded packets arrive via
/// revalidator stats pushback. Sorted by (table, -priority, match) so
/// the output is deterministic.
pub fn dump_flows(of: &crate::ofproto::Ofproto) -> String {
    use std::fmt::Write as _;
    let mut lines: Vec<(u8, i32, String)> = of
        .iter_rules()
        .map(|entry| {
            let r = &entry.rule;
            let m = render_match(r);
            let sep = if m.is_empty() { "" } else { ", " };
            let line = format!(
                " cookie=0x{:x}, table={}, n_packets={}, n_bytes={}, priority={}{sep}{m} actions={:?}",
                r.cookie,
                r.table,
                entry.n_packets.get(),
                entry.n_bytes.get(),
                r.priority,
                r.actions
            );
            (r.table, -r.priority, line)
        })
        .collect();
    lines.sort();
    let mut out = String::new();
    for (_, _, l) in lines {
        let _ = writeln!(out, "{l}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_forward_rule() {
        let r = parse_flow("table=0, priority=100, in_port=2, actions=output:3").unwrap();
        assert_eq!(r.table, 0);
        assert_eq!(r.priority, 100);
        assert_eq!(r.key.in_port(), 2);
        assert!(FlowMask::of_fields(&[&fields::IN_PORT]).subset_of(&r.mask));
        assert_eq!(r.actions, vec![OfAction::Output(3)]);
    }

    #[test]
    fn ip_prefix_and_protocol() {
        let r = parse_flow("udp, nw_dst=10.1.0.0/16, tp_dst=53, actions=drop").unwrap();
        assert_eq!(r.key.eth_type(), EtherType::Ipv4);
        assert_eq!(r.key.nw_proto(), 17);
        assert_eq!(r.key.nw_dst_v4(), [10, 1, 0, 0]);
        assert_eq!(r.key.tp_dst(), 53);
        assert_eq!(r.actions, vec![OfAction::Drop]);
        // /16: a host inside matches, outside doesn't.
        let mut probe = r.key;
        probe.set_nw_dst_v4([10, 1, 99, 99]);
        assert!(probe.matches(&r.key, &r.mask));
        probe.set_nw_dst_v4([10, 2, 0, 0]);
        assert!(!probe.matches(&r.key, &r.mask));
    }

    #[test]
    fn ct_action_with_nat() {
        let r = parse_flow(
            "table=0, ip, nw_dst=10.0.0.100, actions=ct(commit,zone=5,table=2,nat(dst=192.168.1.10:8080))",
        )
        .unwrap();
        assert_eq!(
            r.actions,
            vec![OfAction::Ct {
                zone: 5,
                commit: true,
                resume_table: 2,
                nat: Some(NatSpec::Dnat {
                    ip: [192, 168, 1, 10],
                    port: Some(8080)
                }),
            }]
        );
    }

    #[test]
    fn ct_state_bit_syntax() {
        let r = parse_flow("table=10, ct_state=+est-new, actions=goto_table:20").unwrap();
        assert_eq!(r.key.ct_state(), ct_state::ESTABLISHED);
        // Both bits significant: +est must be set, -new must be clear.
        let mut probe = FlowKey::default();
        probe.set_ct_state(ct_state::ESTABLISHED | ct_state::TRACKED);
        assert!(
            probe.matches(&r.key, &r.mask),
            "est+trk matches (trk not constrained)"
        );
        probe.set_ct_state(ct_state::ESTABLISHED | ct_state::NEW);
        assert!(!probe.matches(&r.key, &r.mask), "-new excludes new");
    }

    #[test]
    fn tunnel_and_multi_action() {
        let r = parse_flow(
            "table=20, dl_dst=52:01:00:00:00:01, actions=set_tunnel:5001->172.16.0.2,output:1",
        )
        .unwrap();
        assert_eq!(r.key.dl_dst(), MacAddr::new(0x52, 1, 0, 0, 0, 1));
        assert_eq!(
            r.actions,
            vec![
                OfAction::SetTunnel {
                    id: 5001,
                    dst: [172, 16, 0, 2]
                },
                OfAction::Output(1)
            ]
        );
    }

    #[test]
    fn vlan_and_metadata() {
        let r =
            parse_flow("vlan_vid=100, metadata=7, actions=pop_vlan,write_metadata:9,goto_table:3")
                .unwrap();
        assert_eq!(r.key.vlan_tci() & 0xfff, 100);
        assert_eq!(r.key.metadata(), 7);
        assert_eq!(r.actions.len(), 3);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_flow("in_port=2").is_err(), "missing actions");
        assert!(parse_flow("bogus=1, actions=drop").is_err());
        assert!(parse_flow("in_port=2, actions=fly:3").is_err());
        assert!(parse_flow("nw_dst=10.0.0, actions=drop").is_err());
        let e = parse_flow("ct_state=~new, actions=drop").unwrap_err();
        assert!(e.to_string().contains("ct_state"));
    }

    #[test]
    fn multiline_with_comments() {
        let rules = parse_flows(
            "# classification\n\
             table=0, in_port=1, actions=goto_table:1\n\
             \n\
             table=1, tcp, tp_dst=22, actions=meter:1,output:2\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].actions[0], OfAction::Meter(1));
    }

    #[test]
    fn dump_flows_renders_live_rule_stats() {
        use crate::ofproto::Ofproto;
        let mut of = Ofproto::new();
        for r in parse_flows(
            "table=0, priority=10, in_port=0, ip, actions=goto_table:1\n\
             table=1, nw_dst=10.0.0.0/8, actions=output:7\n",
        )
        .unwrap()
        {
            of.add_rule(r);
        }
        let mut key = FlowKey::default();
        key.set_in_port(0);
        key.set_eth_type(EtherType::Ipv4);
        key.set_nw_dst_v4([10, 5, 5, 5]);
        let t = of.translate(&key);
        // Both rules sit on the translation path; credit them as the
        // datapath (upcall + stats pushback) would.
        for r in &t.rules {
            r.credit(3, 300);
        }
        let dump = dump_flows(&of);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "{dump}");
        assert!(lines[0].contains("table=0"), "{dump}");
        assert!(lines[0].contains("in_port=0"), "{dump}");
        assert!(lines[0].contains("in_port=0,ip"), "{dump}");
        assert!(lines[1].contains("nw_dst=10.0.0.0"), "{dump}");
        for l in &lines {
            assert!(l.contains("n_packets=3"), "{dump}");
            assert!(l.contains("n_bytes=300"), "{dump}");
        }
    }

    #[test]
    fn parsed_rules_drive_the_pipeline() {
        use crate::ofproto::Ofproto;
        let mut of = Ofproto::new();
        for r in parse_flows(
            "table=0, priority=10, in_port=0, ip, actions=goto_table:1\n\
             table=1, nw_dst=10.0.0.0/8, actions=output:7\n",
        )
        .unwrap()
        {
            of.add_rule(r);
        }
        let mut key = FlowKey::default();
        key.set_in_port(0);
        key.set_eth_type(EtherType::Ipv4);
        key.set_nw_dst_v4([10, 5, 5, 5]);
        let t = of.translate(&key);
        assert_eq!(t.actions, vec![crate::dpif::DpAction::Output(7)]);
    }
}
