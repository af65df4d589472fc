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
//! frame enters a host and the moment it leaves allocates nothing.
//!
//! Run the release build, as the wall-clock benchmark measures it, with
//! `cargo test --release --test alloc_budget`.

use ovs_afxdp_repro::afxdp::OptLevel;
use ovs_afxdp_repro::kernel::GuestRole;
use ovs_afxdp_repro::nsx::ruleset;
use ovs_afxdp_repro::nsx::topology::{DatapathKind, Host, HostConfig, HostPair, VmAttachment};
use ovs_afxdp_repro::packet::{builder, DpPacket, MacAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the thread that armed it; every other
/// thread (the test harness runs tests in parallel) goes uncounted.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, ALLOCS.with(Cell::get) - before)
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
