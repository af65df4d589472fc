//! The allocation gate: a warm packet allocates nothing in the switch.
//!
//! The paper's O4 pre-allocates packet metadata so that a warm packet
//! never allocates, and the virtual clock charges it that way. This
//! binary installs a counting `#[global_allocator]` and counts the heap
//! allocations the switch makes while it forwards warm traffic. Counts
//! repeat exactly, so unlike wall time the budget is an equality.
//!
//! Two hand-offs keep one `Vec<u8>` per frame, because the public API
//! drives them with owned frames: the frame an uplink puts on the wire
//! (`Host::wire_take`), copied out of the umem, and the frame put in a
//! guest's ring (`Guest::rx_ring`). Everything between the moment a
//! frame enters a host and the moment it leaves allocates nothing, and
//! so does an idle round or an idle NF poll. That holds through an NF
//! chain too: its rings carry the datapath's own descriptor, so a frame
//! through one pass-through NF or four allocates only its wire `Vec`.
//!
//! The kernel datapath keeps no descriptor pool, so its budget is the
//! count it measures (16.031 allocations per warm overlay frame), which
//! holds its Geneve decapsulation to no allocation of its own.
//!
//! The allocator also counts live heap bytes, so the same binary budgets
//! the memory one megaflow and one OpenFlow rule hold, and holds a
//! revalidator sweep over warm flows to no allocation at all.
//!
//! Run the release build, as the wall-clock benchmark measures it, with
//! `cargo test --release --test alloc_budget`.

use ovs_afxdp_repro::afxdp::{AfxdpPort, OptLevel};
use ovs_afxdp_repro::kernel::dev::{DeviceKind, NetDevice};
use ovs_afxdp_repro::kernel::{GuestRole, Kernel};
use ovs_afxdp_repro::nsx::ruleset;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_afxdp_repro::ovs::dpif::{DpifNetdev, PortType};
use ovs_afxdp_repro::ovs::ofproto::{OfAction, OfRule};
use ovs_afxdp_repro::packet::ethernet::EtherType;
use ovs_afxdp_repro::packet::flow::{fields, FlowKey, FlowMask};
use ovs_afxdp_repro::packet::{builder, DpPacket, MacAddr};
use ovs_nfv::{ChainPolicy, NfSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations, and the change in live heap bytes, of the
/// thread that armed it; every other thread (the test harness runs tests
/// in parallel) goes uncounted.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation (`new` bytes, replacing `old` bytes) if armed.
fn note_alloc(old: usize, new: usize) {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        note_live(new as i64 - old as i64);
    }
}

fn note_free(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        note_live(-(size as i64));
    }
}

fn note_live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a counted stretch did to the heap.
struct Heap {
    allocs: u64,
    /// Bytes still allocated at its end, less those it freed.
    live_bytes: i64,
}

/// Run `f`, returning its result and what it did to the heap.
fn heap<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    let h = Heap {
        allocs: ALLOCS.with(Cell::get) - allocs,
        live_bytes: LIVE.with(Cell::get) - live,
    };
    (r, h)
}

/// Run `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, h) = heap(f);
    (r, h.allocs)
}

const AFXDP_O5: DatapathKind = DatapathKind::UserspaceAfxdp {
    opt: OptLevel::O5,
    interrupt_mode: false,
};

/// Frames per burst.
const BURST: usize = 32;
/// Consecutive frames per flow: a burst spans 8 flows.
const RUN_LEN: usize = 4;
/// Distinct flows (source ports).
const FLOWS: usize = 512;
/// Virtual time per burst: no revalidator sweep, no ct expiry in the
/// window.
const STEP_NS: u64 = 1_000_000;

/// The 64 B UDP frame of sequence number `seq`, VM 0 on host 1 to VM 0
/// on host 2: the flow (source port) changes every `RUN_LEN` frames.
fn frame(seq: usize) -> Vec<u8> {
    builder::udp_ipv4_frame(
        ruleset::vm_mac(1, 0, 0),
        ruleset::vm_mac(2, 0, 0),
        ruleset::vm_ip(1, 0, 0),
        ruleset::vm_ip(2, 0, 0),
        (5000 + (seq / RUN_LEN) % FLOWS) as u16,
        4444,
        64,
    )
}

/// The frames of burst `b`.
fn burst_frames(b: usize) -> Vec<Vec<u8>> {
    (b * BURST..(b + 1) * BURST).map(frame).collect()
}

/// A datapath with two AF_XDP O5 ports, eth0 and eth1 (ports 0 and 1),
/// and their ifindexes.
fn two_afxdp_ports() -> (Kernel, DpifNetdev, [u32; 2]) {
    let mut k = Kernel::new(4);
    let mut dp = DpifNetdev::new();
    let mut nics = [0; 2];
    for (i, nic) in nics.iter_mut().enumerate() {
        *nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i as u8 + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let port = AfxdpPort::open(&mut k, *nic, 256, OptLevel::O5).expect("AF_XDP port");
        dp.add_port(&format!("eth{i}"), PortType::Afxdp(port));
    }
    (k, dp, nics)
}

#[test]
fn warm_overlay_allocates_only_the_wire_and_guest_ring_handoffs() {
    // nsx_small hosts: AF_XDP O5 uplinks, vhostuser VMs, a sink on
    // host 2.
    let mut pair = HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_small(id, AFXDP_O5, VmAttachment::VhostUser);
        if id == 2 {
            cfg.guest_role = GuestRole::Sink;
        }
        cfg
    });
    let sender = pair.h1.guest_of_vif[0];
    let sink = pair.h2.guest_of_vif[0];
    const WARM: usize = 600;
    const COUNTED: usize = 1000;
    let bursts: Vec<Vec<Vec<u8>>> = (0..WARM + COUNTED).map(burst_frames).collect();

    let mut allocs = 0u64;
    let mut wired = 0u64;
    let mut sunk = 0u64;
    for (b, frames) in bursts.into_iter().enumerate() {
        let count = b >= WARM;
        pair.h1.kernel.guests[sender].tx_ring.extend(frames);
        let sink_before = pair.h2.kernel.guests[sink].rx_count;
        // Host 1 pumps its VM's frames out, the wire carries them, host
        // 2 pumps them into its VM — until both are quiet.
        for _ in 0..8 {
            let (_, tx) = counted(|| pair.h1.pump());
            let wire = pair.h1.wire_take();
            let n = wire.len() as u64;
            let (_, inject) = counted(|| {
                for f in wire {
                    pair.h2.wire_inject(f);
                }
            });
            let (_, rx) = counted(|| pair.h2.pump());
            if count {
                allocs += tx + inject + rx;
                wired += n;
            }
            let back = pair.h2.wire_take();
            if back.is_empty() && pair.h1.kernel.guests[sender].tx_ring.is_empty() {
                break;
            }
            for f in back {
                pair.h1.wire_inject(f);
            }
        }
        if count {
            sunk += pair.h2.kernel.guests[sink].rx_count - sink_before;
        }
        pair.advance(STEP_NS);
    }
    // An idle round (nothing pending on either host: the PMD round and
    // its empty rx polls) allocates nothing at all.
    let (moved, idle) = counted(|| pair.h1.pump() + pair.h2.pump());
    assert_eq!((moved, idle), (0, 0), "an idle pump round allocated");
    let frames = (COUNTED * BURST) as u64;
    assert_eq!(wired, frames, "every frame crossed the wire");
    assert_eq!(sunk, frames, "every frame reached the sink");
    assert_eq!(
        allocs,
        wired + sunk,
        "switch allocations over {frames} warm frames: {allocs}, against a budget of one \
         per wire frame plus one per guest-ring frame ({:.2} per frame over budget)",
        (allocs as f64 - (wired + sunk) as f64) / frames as f64
    );
}

#[test]
fn warm_fast_path_allocates_only_the_wire_handoff() {
    // `run_fastpath`'s rig: one nsx_small host, batched pipeline (no
    // SMC), bursts of 32 over 512 flows injected at the VM's vif.
    let cfg = HostConfig::nsx_small(1, AFXDP_O5, VmAttachment::VhostUser);
    let mut h = Host::build(&cfg);
    h.peer([172, 16, 0, 2], MacAddr::new(2, 0, 0, 0, 0, 0xEE));
    let core = h.switch_core;
    let vif = h.ports.vifs[0];
    const WARM: usize = 256;
    const COUNTED: usize = 1000;
    let packets = |b: usize| -> Vec<DpPacket> {
        burst_frames(b)
            .iter()
            .map(|f| {
                let mut p = DpPacket::from_data(f);
                p.in_port = vif;
                p
            })
            .collect()
    };
    // One burst: the allocations inside `process_burst`, and the frames
    // it put on the wire.
    let run = |h: &mut Host, pkts: Vec<DpPacket>| -> (u64, u64) {
        let dp = h.dp.as_mut().expect("userspace datapath");
        let (_, allocs) = counted(|| dp.process_burst(&mut h.kernel, pkts, core));
        (allocs, h.wire_take().len() as u64)
    };
    for b in 0..WARM {
        run(&mut h, packets(b));
    }
    let mut allocs = 0;
    let mut wired = 0;
    for b in WARM..WARM + COUNTED {
        let (a, w) = run(&mut h, packets(b));
        allocs += a;
        wired += w;
    }
    let frames = (COUNTED * BURST) as u64;
    assert_eq!(wired, frames, "every frame went out the uplink");
    assert_eq!(
        allocs, wired,
        "switch allocations over {frames} warm frames: {allocs}, against a budget of one \
         per wire frame"
    );
}

#[test]
fn idle_nf_poll_allocates_nothing() {
    // The scheduler polls every NF unit every round, like an rxq, so a
    // poll of an empty NF ring must cost no allocation either.
    let cfg = HostConfig::nsx_small(1, AFXDP_O5, VmAttachment::VhostUser);
    let mut h = Host::build(&cfg);
    let core = h.switch_core;
    let dp = h.dp.as_mut().expect("userspace datapath");
    let uplink = h.ports.uplink;
    let specs = vec![("pt0".to_string(), NfSpec::PassThrough)];
    dp.nfv.add_chain(0, specs, 64, uplink, ChainPolicy::Bypass);
    let nf = dp.nfv.chain_of_tenant(0).expect("chain added").nfs[0];
    // The first poll opens the core's perf record.
    assert_eq!(dp.nf_poll(&mut h.kernel, nf, core), 0);
    let (moved, allocs) = counted(|| {
        (0..100)
            .map(|_| dp.nf_poll(&mut h.kernel, nf, core))
            .sum::<usize>()
    });
    assert_eq!((moved, allocs), (0, 0), "100 idle NF polls allocated");
}

#[test]
fn warm_nf_chains_allocate_only_the_wire_handoff() {
    // Two AF_XDP O5 ports; every frame on port 0 enters a chain of
    // pass-through NFs that exits on port 1. The chain carries the
    // datapath's own descriptor, so a warm frame allocates only its
    // wire `Vec`, however many NFs it crosses.
    for chain_len in [1usize, 4] {
        let (mut k, mut dp, nics) = two_afxdp_ports();
        let specs = (0..chain_len)
            .map(|i| (format!("pt{i}"), NfSpec::PassThrough))
            .collect();
        let chain = dp.nfv.add_chain(0, specs, 64, 1, ChainPolicy::Bypass);
        let nfs = dp.nfv.chains()[chain as usize].nfs.clone();
        let mut key = FlowKey::default();
        key.set_in_port(0);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![OfAction::NfChain(chain)],
            cookie: 0,
        });
        const WARM: usize = 64;
        const COUNTED: usize = 500;
        let (mut allocs, mut wired) = (0, 0);
        for b in 0..WARM + COUNTED {
            let pkts: Vec<DpPacket> = burst_frames(b)
                .iter()
                .map(|f| DpPacket::from_data(f))
                .collect();
            let (_, a) = counted(|| {
                dp.process_burst(&mut k, pkts, 1);
                for &nf in &nfs {
                    dp.nf_poll(&mut k, nf, 1);
                }
            });
            let out = &mut k.dev_mut(nics[1]).tx_wire;
            if b >= WARM {
                allocs += a;
                wired += out.len() as u64;
            }
            out.clear();
        }
        let frames = (COUNTED * BURST) as u64;
        assert_eq!(wired, frames, "every frame left the {chain_len}-NF chain");
        assert_eq!(
            allocs,
            wired,
            "a {chain_len}-NF chain over {frames} warm frames: {allocs} allocations ({:.2} per \
             frame), against a budget of one per wire frame",
            allocs as f64 / frames as f64
        );
    }
}

#[test]
fn warm_kernel_overlay_decaps_in_place() {
    // Kernel-datapath hosts with tap VMs and a sink on host 2. The kernel
    // module keeps one spare descriptor between frames, but a frame
    // still allocates along its way (12.031 per frame: 77,000 over
    // 6,400): the verdict list, the actions each lookup clones and the
    // frames the verdicts carry are `Vec`s. The budget holds that, and
    // decapsulation takes no part in it: the inner frame stays in the
    // descriptor the outer one came in.
    const ALLOCS_PER_FRAME: f64 = 12.032;
    let mut pair = HostPair::new(|id| {
        let mut cfg = HostConfig::nsx_small(id, DatapathKind::Kernel, VmAttachment::Tap);
        if id == 2 {
            cfg.guest_role = GuestRole::Sink;
        }
        cfg
    });
    let sender = pair.h1.guest_of_vif[0];
    let sink = pair.h2.guest_of_vif[0];
    const WARM: usize = 64;
    const COUNTED: usize = 200;
    let mut allocs = 0u64;
    let mut sunk = 0u64;
    for b in 0..WARM + COUNTED {
        let frames = burst_frames(b);
        let sink_before = pair.h2.kernel.guests[sink].rx_count;
        pair.h1.kernel.guests[sender].tx_ring.extend(frames);
        let (_, a) = counted(|| pair.settle());
        if b >= WARM {
            allocs += a;
            sunk += pair.h2.kernel.guests[sink].rx_count - sink_before;
        }
        pair.advance(STEP_NS);
    }
    let frames = (COUNTED * BURST) as u64;
    assert_eq!(sunk, frames, "every frame reached the sink");
    let per_frame = allocs as f64 / frames as f64;
    assert!(
        per_frame <= ALLOCS_PER_FRAME,
        "a warm kernel-datapath overlay frame made {per_frame:.2} allocations, against a \
         budget of {ALLOCS_PER_FRAME}"
    );
}

#[test]
fn warm_vlan_push_and_pop_allocate_only_the_wire_handoff() {
    // Two AF_XDP O5 ports: port 0's frames are tagged out port 1, port
    // 1's are untagged out port 0. The tag moves in the headroom.
    let (mut k, mut dp, nics) = two_afxdp_ports();
    for (in_port, vlan, out) in [(0, OfAction::PushVlan(100), 1), (1, OfAction::PopVlan, 0)] {
        let mut key = FlowKey::default();
        key.set_in_port(in_port);
        dp.ofproto.add_rule(OfRule {
            table: 0,
            priority: 10,
            key,
            mask: FlowMask::of_fields(&[&fields::IN_PORT]),
            actions: vec![vlan, OfAction::Output(out)],
            cookie: 0,
        });
    }
    const WARM: usize = 64;
    const COUNTED: usize = 500;
    for (in_port, tagged) in [(0u32, false), (1, true)] {
        let (mut allocs, mut wired) = (0, 0);
        for b in 0..WARM + COUNTED {
            let pkts: Vec<DpPacket> = burst_frames(b)
                .iter()
                .map(|f| {
                    let mut p = if tagged {
                        DpPacket::from_data(&builder::push_vlan(f, 100, 0))
                    } else {
                        DpPacket::from_data(f)
                    };
                    p.in_port = in_port;
                    p
                })
                .collect();
            let (_, a) = counted(|| dp.process_burst(&mut k, pkts, 1));
            let out = &mut k.dev_mut(nics[1 - in_port as usize]).tx_wire;
            if b >= WARM {
                allocs += a;
                wired += out.len() as u64;
            }
            out.clear();
        }
        let frames = (COUNTED * BURST) as u64;
        assert_eq!(wired, frames, "every frame went out (tagged: {tagged})");
        assert_eq!(
            allocs,
            wired,
            "{} over {frames} warm frames: {allocs} allocations ({:.2} per frame), against a \
             budget of one per wire frame",
            if tagged { "pop_vlan" } else { "push_vlan" },
            allocs as f64 / frames as f64
        );
    }
}

/// The `revalidate` bench's rule: UDP from `tp` goes out port 1.
fn tp_src_rule(tp: u16) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type(EtherType::Ipv4);
    key.set_nw_proto(17);
    key.set_tp_src(tp);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_SRC]),
        actions: vec![OfAction::Output(1)],
        cookie: 0,
    }
}

/// One UDP frame from `tp_src`, matching the `tp_src_rule` of that port.
fn tp_src_frame(tp_src: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        tp_src,
        6000,
        96,
    )
}

#[test]
fn megaflows_and_rules_fit_their_memory_budgets_and_a_warm_sweep_allocates_nothing() {
    // The `revalidate` bench's rig: two AF_XDP O5 ports, one tp_src rule
    // per flow, each flow installed by a real upcall.
    const FLOWS: u16 = 16_384;
    const BYTES_PER_FLOW: i64 = 1024;
    const BYTES_PER_RULE: i64 = 640;
    let (mut k, mut dp, [rx_nic, _]) = two_afxdp_ports();
    dp.revalidator.cfg.flow_limit_max = 1 << 20;
    dp.revalidator.flow_limit = 1 << 20;
    let n = i64::from(FLOWS);

    let ((), rules) = heap(|| {
        for tp in 0..FLOWS {
            dp.ofproto.add_rule(tp_src_rule(1000 + tp));
        }
    });
    assert!(
        rules.live_bytes <= BYTES_PER_RULE * n,
        "{FLOWS} OpenFlow rules hold {} live bytes, {} per rule against a budget of \
         {BYTES_PER_RULE}",
        rules.live_bytes,
        rules.live_bytes / n
    );

    let mut frames: Vec<Vec<u8>> = (0..FLOWS).map(|tp| tp_src_frame(1000 + tp)).collect();
    // The kernel copies each frame into the umem and frees it inside the
    // window; adding the frames' bytes back leaves what the switch keeps.
    let frame_bytes: i64 = frames.iter().map(|f| f.capacity() as i64).sum();
    let ((), flows) = heap(|| {
        for f in frames.drain(..) {
            k.receive(rx_nic, 0, f);
            dp.pmd_poll(&mut k, 0, 0, 1);
        }
    });
    assert_eq!(dp.megaflow_count(), usize::from(FLOWS));
    let flow_bytes = flows.live_bytes + frame_bytes;
    assert!(
        flow_bytes <= BYTES_PER_FLOW * n,
        "{FLOWS} megaflows hold {flow_bytes} live bytes, {} per flow against a budget of \
         {BYTES_PER_FLOW}",
        flow_bytes / n
    );
    assert!(
        flows.allocs * 2 < 9 * u64::from(FLOWS),
        "installing {FLOWS} megaflows made {} allocations, {:.3} per flow against a \
         budget of under 4.5",
        flows.allocs,
        flows.allocs as f64 / n as f64
    );

    // The first sweep sizes what a sweep keeps; the second, over the
    // same kept flows, allocates nothing.
    assert_eq!(dp.revalidate(&mut k, 0).dumped, u64::from(FLOWS));
    let (sweep, allocs) = counted(|| dp.revalidate(&mut k, 0));
    assert_eq!((sweep.dumped, sweep.deleted()), (u64::from(FLOWS), 0));
    assert_eq!(allocs, 0, "a sweep over {FLOWS} kept flows allocated");
}
