//! Seeded traffic: the three workloads' flow tuples, size sequences and
//! frames. Everything comes from the seed; the switch only ever sees the
//! finished frames.

use ovs_afxdp_repro::nsx::ruleset::{vm_ip, vm_mac};
use ovs_afxdp_repro::packet::builder;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 512 established flows, 64 B, in runs of 4 frames per flow.
    OverlayHot,
    /// ~100k established flows round-robin, IMIX-like sizes.
    OverlayWide,
    /// Every frame opens a new connection (fresh source IP and
    /// destination port, the fields the firewall sections match).
    ConnSetup,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OverlayHot,
        Workload::OverlayWide,
        Workload::ConnSetup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OverlayHot => "overlay_hot",
            Workload::OverlayWide => "overlay_wide",
            Workload::ConnSetup => "conn_setup",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether every frame belongs to a flow set up during warm-up.
    pub fn established(self) -> bool {
        self != Workload::ConnSetup
    }
}

/// Flows in `overlay_hot`.
pub const HOT_FLOWS: usize = 512;
/// Consecutive frames per flow in `overlay_hot`.
pub const HOT_RUN_LEN: usize = 4;
/// Flows in `overlay_wide`.
pub const WIDE_FLOWS: usize = 100_000;
/// `overlay_wide` frame sizes and their weights (7:4:1, IMIX-like).
pub const IMIX: [(usize, u32); 3] = [(64, 7), (576, 4), (1400, 1)];
/// Frame size of `overlay_hot` and `conn_setup`.
pub const SMALL_FRAME: usize = 64;

/// splitmix64: small, seedable, and good enough to shuffle tuples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6e73_7862_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The header fields one frame varies, plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    pub src_ip: [u8; 4],
    pub src_port: u16,
    pub dst_port: u16,
    pub len: usize,
}

/// Source address number `i` from 10.64.0.0/10: away from the VM
/// addresses and from the rule set's 198.18.0.0/15 filler space.
fn src_ip_of(i: u64) -> [u8; 4] {
    let i = i & 0x3f_ffff;
    [10, 64 | (i >> 16) as u8, (i >> 8) as u8, i as u8]
}

/// A destination port clear of the filler rules' never-matching
/// coverage ports (61000+).
fn dst_port(rng: &mut Rng) -> u16 {
    1024 + rng.below(59_000) as u16
}

/// Produces a workload's frame sequence from its seed.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// (src_ip, src_port, dst_port) of each established flow, in the
    /// seeded order they are sent.
    flows: Vec<([u8; 4], u16, u16)>,
    /// Frames produced so far.
    seq: u64,
    /// `conn_setup`: the next fresh source-address number.
    fresh: u64,
}

impl Generator {
    /// A generator for `workload`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let flows = match workload {
            Workload::OverlayHot => {
                // Distinct destination ports from the VM's own address.
                let src = vm_ip(1, 0, 0);
                let mut ports: Vec<u16> = (0..HOT_FLOWS).map(|i| 1024 + i as u16 * 97).collect();
                rng.shuffle(&mut ports);
                let base = rng.below(59_000 - 97 * HOT_FLOWS as u64) as u16;
                ports
                    .into_iter()
                    .map(|p| (src, 1024 + rng.below(40_000) as u16, p + base))
                    .collect()
            }
            Workload::OverlayWide => {
                let mut ids: Vec<u64> = (0..WIDE_FLOWS as u64).collect();
                rng.shuffle(&mut ids);
                ids.into_iter()
                    .map(|i| {
                        let sport = 1024 + rng.below(40_000) as u16;
                        (src_ip_of(i), sport, dst_port(&mut rng))
                    })
                    .collect()
            }
            Workload::ConnSetup => Vec::new(),
        };
        let fresh = rng.below(1 << 20);
        Generator {
            workload,
            rng,
            flows,
            seq: 0,
            fresh,
        }
    }

    /// Frames needed so that every established flow has been sent once.
    pub fn frames_per_cycle(&self) -> usize {
        match self.workload {
            Workload::OverlayHot => self.flows.len() * HOT_RUN_LEN,
            _ => self.flows.len(),
        }
    }

    /// The next frame's tuple.
    pub fn next_tuple(&mut self) -> Tuple {
        let seq = self.seq;
        self.seq += 1;
        match self.workload {
            Workload::OverlayHot => {
                let (src_ip, src_port, dst_port) =
                    self.flows[(seq as usize / HOT_RUN_LEN) % self.flows.len()];
                Tuple {
                    src_ip,
                    src_port,
                    dst_port,
                    len: SMALL_FRAME,
                }
            }
            Workload::OverlayWide => {
                let (src_ip, src_port, dst_port) = self.flows[seq as usize % self.flows.len()];
                Tuple {
                    src_ip,
                    src_port,
                    dst_port,
                    len: imix(&mut self.rng),
                }
            }
            Workload::ConnSetup => {
                let i = self.fresh;
                self.fresh += 1;
                Tuple {
                    src_ip: src_ip_of(i),
                    src_port: 1024 + self.rng.below(40_000) as u16,
                    dst_port: dst_port(&mut self.rng),
                    len: SMALL_FRAME,
                }
            }
        }
    }

    /// The next `n` tuples.
    pub fn tuples(&mut self, n: usize) -> Vec<Tuple> {
        (0..n).map(|_| self.next_tuple()).collect()
    }
}

fn imix(rng: &mut Rng) -> usize {
    let total: u32 = IMIX.iter().map(|(_, w)| w).sum();
    let mut pick = rng.below(u64::from(total)) as u32;
    for (len, w) in IMIX {
        if pick < w {
            return len;
        }
        pick -= w;
    }
    unreachable!("weights cover the range")
}

/// The UDP frame VM 0 on host 1 sends to VM 0 on host 2 for `t`.
pub fn frame(t: &Tuple) -> Vec<u8> {
    builder::udp_ipv4_frame(
        vm_mac(1, 0, 0),
        vm_mac(2, 0, 0),
        t.src_ip,
        vm_ip(2, 0, 0),
        t.src_port,
        t.dst_port,
        t.len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for w in Workload::ALL {
            let a = Generator::new(w, 7).tuples(300);
            let b = Generator::new(w, 7).tuples(300);
            let c = Generator::new(w, 8).tuples(300);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn hot_runs_of_four_over_512_flows() {
        let mut g = Generator::new(Workload::OverlayHot, 1);
        let t = g.tuples(HOT_FLOWS * HOT_RUN_LEN);
        for run in t.chunks(HOT_RUN_LEN) {
            assert!(run.iter().all(|x| x == &run[0]));
        }
        let flows: HashSet<_> = t.iter().map(|x| (x.src_port, x.dst_port)).collect();
        assert_eq!(flows.len(), HOT_FLOWS);
        assert!(t.iter().all(|x| x.len == SMALL_FRAME));
    }

    #[test]
    fn wide_cycles_every_flow_with_imix_sizes() {
        let mut g = Generator::new(Workload::OverlayWide, 3);
        let t = g.tuples(WIDE_FLOWS);
        let flows: HashSet<_> = t.iter().map(|x| (x.src_ip, x.dst_port)).collect();
        assert_eq!(flows.len(), WIDE_FLOWS, "one frame per flow per cycle");
        for (len, _) in IMIX {
            assert!(t.iter().any(|x| x.len == len), "size {len} present");
        }
    }

    #[test]
    fn conn_setup_never_repeats_a_source() {
        let mut g = Generator::new(Workload::ConnSetup, 9);
        let t = g.tuples(50_000);
        let srcs: HashSet<_> = t.iter().map(|x| x.src_ip).collect();
        assert_eq!(srcs.len(), t.len());
    }

    #[test]
    fn frames_have_the_requested_length() {
        let mut g = Generator::new(Workload::OverlayWide, 4);
        for t in g.tuples(50) {
            assert_eq!(frame(&t).len(), t.len);
        }
    }
}
