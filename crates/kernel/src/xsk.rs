//! The kernel side of an AF_XDP socket binding.
//!
//! An [`XskBinding`] is the shared state between the kernel (which fills
//! RX descriptors and drains TX descriptors) and the userspace socket
//! wrapper in `ovs-afxdp`: a [`Umem`] whose fill/completion rings carry
//! free frames, plus the RX and TX descriptor rings (Figure 4). The
//! simulation is single-threaded, so the two sides share the binding via
//! `Rc<RefCell<..>>`.

use ovs_obs::coverage;
use ovs_ring::{Desc, SpscRing, Umem};
use std::cell::RefCell;
use std::rc::Rc;

/// Counters for one socket.
#[derive(Debug, Clone, Copy, Default)]
pub struct XskStats {
    /// Packets delivered to the RX ring.
    pub rx_delivered: u64,
    /// Packets dropped because the fill ring was empty (userspace too
    /// slow) or the RX ring full.
    pub rx_dropped: u64,
    /// Packets transmitted from the TX ring.
    pub tx_completed: u64,
}

/// Shared kernel/userspace state for one AF_XDP socket.
#[derive(Debug)]
pub struct XskBinding {
    /// The packet buffer region with its fill and completion rings.
    pub umem: Umem,
    /// Kernel → userspace: received packet descriptors.
    pub rx: SpscRing,
    /// Userspace → kernel: packets to transmit.
    pub tx: SpscRing,
    /// Zero-copy (native driver) or copy (generic) mode.
    pub zero_copy: bool,
    /// The device this socket is bound to.
    pub ifindex: u32,
    /// The queue this socket is bound to.
    pub queue: usize,
    /// `need_wakeup` flag: when set, the kernel requires a syscall kick to
    /// start TX processing (the overhead §5.5 measured).
    pub need_wakeup: bool,
    /// Preferred busy polling (the \[64\] patch set the paper expects to
    /// reduce softirq cost): when set, kernel-side XSK work executes
    /// inline on this application core instead of a separate softirq
    /// thread — same work, no extra hyperthread.
    pub busy_poll_core: Option<usize>,
    /// Fault state: the tx `need_wakeup` kick was lost, so the kernel
    /// does not drain the tx ring until a recovery kick clears it. The
    /// backlog stays on the ring (delayed, never dropped).
    pub kick_lost: bool,
    /// Userspace closed the socket: the rings are destroyed and the
    /// binding is inert. Stale xskmap entries or recovery kicks must
    /// neither deliver to it nor drain packets out of it — the packets
    /// it held were already counted at close time.
    pub closed: bool,
    /// Counters.
    pub stats: XskStats,
}

/// Shared handle to a binding.
pub type XskHandle = Rc<RefCell<XskBinding>>;

impl XskBinding {
    /// Create a binding with `nframes` frames of `frame_size` bytes, all
    /// initially on neither ring (userspace must post them to the fill
    /// ring through its frame pool).
    pub fn new(
        ifindex: u32,
        queue: usize,
        nframes: usize,
        frame_size: usize,
        zero_copy: bool,
    ) -> Self {
        Self {
            umem: Umem::new(nframes, frame_size),
            rx: SpscRing::new(nframes),
            tx: SpscRing::new(nframes),
            zero_copy,
            ifindex,
            queue,
            need_wakeup: true,
            busy_poll_core: None,
            kick_lost: false,
            closed: false,
            stats: XskStats::default(),
        }
    }

    /// Wrap in the shared handle.
    pub fn into_handle(self) -> XskHandle {
        Rc::new(RefCell::new(self))
    }

    /// Tear the binding down from the userspace side (socket close):
    /// empty every ring and mark the binding inert. The caller counts
    /// whatever was parked (`xsk_close_flushed`) *before* calling this —
    /// afterwards those packets are unreachable, so nothing can drain
    /// them onto the wire and count (or deliver) them a second time.
    pub fn close(&mut self) {
        self.closed = true;
        while self.rx.pop().is_some() {}
        while self.tx.pop().is_some() {}
        while self.umem.fill.pop().is_some() {}
        while self.umem.comp.pop().is_some() {}
    }

    /// Kernel-side delivery: take a frame from the fill ring, copy the
    /// packet in, and push an RX descriptor. Returns `false` (and counts a
    /// drop) when no fill descriptor is available or the RX ring is full —
    /// the lossless-rate search in the experiments keys off this.
    pub fn deliver(&mut self, packet: &[u8]) -> bool {
        if self.closed {
            // A stale xskmap entry redirected here after close.
            self.stats.rx_dropped += 1;
            coverage!("xsk_rx_dropped");
            return false;
        }
        let Some(fill_desc) = self.umem.fill.pop() else {
            self.stats.rx_dropped += 1;
            coverage!("xsk_rx_dropped");
            return false;
        };
        if packet.len() > self.umem.frame_size() {
            // Oversized for the umem frame; the kernel would have dropped
            // at the driver.
            self.stats.rx_dropped += 1;
            coverage!("xsk_rx_dropped");
            // Frame goes back so it isn't leaked.
            let _ = self.umem.fill.push(fill_desc);
            return false;
        }
        let len = self.umem.write_frame(fill_desc.frame, packet);
        let desc = Desc {
            frame: fill_desc.frame,
            len,
        };
        if self.rx.push(desc).is_err() {
            self.stats.rx_dropped += 1;
            coverage!("xsk_rx_dropped");
            let _ = self.umem.fill.push(fill_desc);
            return false;
        }
        self.stats.rx_delivered += 1;
        true
    }

    /// Kernel-side TX drain, one descriptor at a time: pop the next TX
    /// descriptor and return its frame, copied out of the umem for the
    /// wire; the frame index is pushed to the completion ring for
    /// userspace to reclaim. `None` when the ring is empty or the socket
    /// is closed.
    pub fn pop_tx(&mut self) -> Option<Vec<u8>> {
        if self.closed {
            return None;
        }
        let d = self.tx.pop()?;
        let frame = self.umem.frame(d.frame)[..d.len as usize].to_vec();
        // Completion: frame ownership returns to userspace.
        let _ = self.umem.comp.push(Desc {
            frame: d.frame,
            len: 0,
        });
        self.stats.tx_completed += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding_with_fill(n: usize) -> XskBinding {
        let b = XskBinding::new(1, 0, 8, 2048, true);
        for i in 0..n {
            b.umem
                .fill
                .push(Desc {
                    frame: i as u32,
                    len: 0,
                })
                .unwrap();
        }
        b
    }

    #[test]
    fn deliver_and_read_back() {
        let mut b = binding_with_fill(4);
        assert!(b.deliver(b"hello-xdp"));
        let d = b.rx.pop().unwrap();
        assert_eq!(&b.umem.frame(d.frame)[..d.len as usize], b"hello-xdp");
        assert_eq!(b.stats.rx_delivered, 1);
    }

    #[test]
    fn empty_fill_ring_drops() {
        let mut b = binding_with_fill(0);
        assert!(!b.deliver(b"pkt"));
        assert_eq!(b.stats.rx_dropped, 1);
        assert!(b.rx.is_empty());
    }

    #[test]
    fn fill_exhaustion_then_refill() {
        let mut b = binding_with_fill(2);
        assert!(b.deliver(b"a"));
        assert!(b.deliver(b"b"));
        assert!(!b.deliver(b"c"), "no fill descriptors left");
        // Userspace consumes RX and reposts the frame.
        let d = b.rx.pop().unwrap();
        b.umem
            .fill
            .push(Desc {
                frame: d.frame,
                len: 0,
            })
            .unwrap();
        assert!(b.deliver(b"c"));
    }

    #[test]
    fn tx_roundtrip_with_completion() {
        let mut b = binding_with_fill(0);
        // Userspace writes a packet into frame 5 and posts it for TX.
        b.umem.write_frame(5, b"outbound");
        b.tx.push(Desc { frame: 5, len: 8 }).unwrap();
        assert_eq!(b.pop_tx(), Some(b"outbound".to_vec()));
        assert_eq!(b.pop_tx(), None, "one descriptor, one frame");
        // Completion gives the frame back.
        let c = b.umem.comp.pop().unwrap();
        assert_eq!(c.frame, 5);
        assert_eq!(b.stats.tx_completed, 1);
    }

    #[test]
    fn oversized_packet_dropped_without_leak() {
        let mut b = XskBinding::new(1, 0, 4, 64, true);
        b.umem.fill.push(Desc { frame: 0, len: 0 }).unwrap();
        assert!(!b.deliver(&[0u8; 100]));
        // The fill descriptor is still available.
        assert!(b.deliver(&[0u8; 64]));
    }
}
