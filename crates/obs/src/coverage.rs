//! Coverage counters, modeled on OVS's `COVERAGE_DEFINE` /
//! `COVERAGE_INC` / `ovs-appctl coverage/show`.
//!
//! A coverage counter is a named event count that is cheap enough to
//! bump on every packet. Callers just write `coverage!("emc_hit")`; each
//! call site owns a static [`Slot`], the `COVERAGE_DEFINE` equivalent.
//! The first event at a call site interns its name into the process-wide
//! name table (call sites sharing a name share an index); every later
//! event is one indexed add into the current thread's counter array — no
//! string compare, no tree walk. `coverage/show` renders totals plus
//! rates over the last epochs.
//!
//! Counts are thread-local: the workspace's datapaths are
//! single-threaded (`Rc`-based), and the Rust test harness runs each
//! test on its own thread, which gives tests isolation for free. A
//! counter is *live* on a thread from its first event (even a zero-count
//! add) until the next [`reset`]; only live counters appear in output.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of closed epochs retained for the rate window.
pub const EPOCH_WINDOW: usize = 5;

#[derive(Debug, Default, Clone)]
struct Counter {
    total: u64,
    /// Total at the moment the current epoch opened.
    epoch_open: u64,
    /// Deltas of the most recent closed epochs, newest first.
    window: Vec<u64>,
}

/// Slot index → counter name, shared by every thread. Append-only, so an
/// index a call site cached stays valid for the life of the process.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's counters, indexed by slot; `None` until the slot's
    /// first event since the last reset.
    static COUNTERS: RefCell<Vec<Option<Counter>>> = const { RefCell::new(Vec::new()) };
    /// Count of closed epochs.
    static EPOCHS: Cell<u64> = const { Cell::new(0) };
}

/// The name table. Its only update is one `push`, so the table is valid
/// even if a thread panicked while holding the lock.
fn names() -> MutexGuard<'static, Vec<&'static str>> {
    NAMES.lock().unwrap_or_else(PoisonError::into_inner)
}

const UNINTERNED: usize = usize::MAX;

/// One `coverage!` call site: the counter's name and, after the first
/// event, its slot index.
#[derive(Debug)]
pub struct Slot {
    name: &'static str,
    index: AtomicUsize,
}

impl Slot {
    /// A call site for `name`, interned on first use.
    pub const fn new(name: &'static str) -> Self {
        Slot {
            name,
            index: AtomicUsize::new(UNINTERNED),
        }
    }

    /// Bump this call site's counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let mut i = self.index.load(Ordering::Relaxed);
        if i == UNINTERNED {
            i = self.intern();
        }
        COUNTERS.with(|c| {
            let mut c = c.borrow_mut();
            match c.get_mut(i) {
                Some(Some(ctr)) => ctr.total += n,
                _ => first_event(&mut c, i, n),
            }
        });
    }

    /// `Relaxed` suffices: the index is stored under the `NAMES` lock
    /// that pushed its name, and every reader of a name takes that lock.
    #[cold]
    fn intern(&self) -> usize {
        let mut names = names();
        let i = match names.iter().position(|&n| n == self.name) {
            Some(i) => i,
            None => {
                names.push(self.name);
                names.len() - 1
            }
        };
        self.index.store(i, Ordering::Relaxed);
        i
    }
}

/// The first event for slot `i` on this thread since the last reset:
/// make the counter live.
#[cold]
fn first_event(counters: &mut Vec<Option<Counter>>, i: usize, n: u64) {
    if counters.len() <= i {
        counters.resize(i + 1, None);
    }
    counters[i].get_or_insert_with(Counter::default).total += n;
}

/// Live counters on this thread, sorted by name.
fn live() -> Vec<(&'static str, Counter)> {
    let names = names();
    let mut rows: Vec<(&'static str, Counter)> = COUNTERS.with(|c| {
        c.borrow()
            .iter()
            .enumerate()
            .filter_map(|(i, ctr)| ctr.as_ref().map(|ctr| (names[i], ctr.clone())))
            .collect()
    });
    rows.sort_unstable_by_key(|(name, _)| *name);
    rows
}

/// Current total for `name` (0 if it has not fired since the last reset).
pub fn total(name: &str) -> u64 {
    let Some(i) = names().iter().position(|&n| n == name) else {
        return 0;
    };
    COUNTERS.with(|c| {
        c.borrow()
            .get(i)
            .and_then(Option::as_ref)
            .map_or(0, |ctr| ctr.total)
    })
}

/// Close the current epoch: each counter's delta since the last call is
/// pushed into its rate window. Pollers call this once per quiesce
/// period (OVS ties this to the main loop; here the appctl layer or a
/// scenario driver decides).
pub fn epoch() {
    COUNTERS.with(|c| {
        for ctr in c.borrow_mut().iter_mut().flatten() {
            let delta = ctr.total - ctr.epoch_open;
            ctr.epoch_open = ctr.total;
            ctr.window.insert(0, delta);
            ctr.window.truncate(EPOCH_WINDOW);
        }
    });
    EPOCHS.with(|e| e.set(e.get() + 1));
}

/// Number of closed epochs so far.
pub fn epochs() -> u64 {
    EPOCHS.with(Cell::get)
}

/// Forget every counter and epoch (test isolation / `pmd-stats-clear`).
pub fn reset() {
    COUNTERS.with(|c| c.borrow_mut().clear());
    EPOCHS.with(|e| e.set(0));
}

/// Render the `coverage/show` text: one line per counter that has ever
/// fired, sorted by name, with the total, the delta in the current
/// (open) epoch, and the average over the last closed epochs.
pub fn show() -> String {
    let rows = live();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12}\n",
        "counter", "total", "epoch", "avg/epoch"
    ));
    for (name, c) in &rows {
        let open = c.total - c.epoch_open;
        let avg = if c.window.is_empty() {
            open as f64
        } else {
            c.window.iter().sum::<u64>() as f64 / c.window.len() as f64
        };
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12.1}\n",
            name, c.total, open, avg
        ));
    }
    if rows.is_empty() {
        out.push_str("(no events)\n");
    }
    out
}

/// Snapshot of all counters, for wiring into `nstat`-style tools.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    live().into_iter().map(|(n, c)| (n, c.total)).collect()
}

/// `coverage!("name")` / `coverage!("name", n)` — the `COVERAGE_INC`
/// equivalent. Each expansion defines its own static [`Slot`].
#[macro_export]
macro_rules! coverage {
    ($name:literal) => {
        $crate::coverage!($name, 1)
    };
    ($name:literal, $n:expr) => {{
        static SLOT: $crate::coverage::Slot = $crate::coverage::Slot::new($name);
        SLOT.add($n as u64)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_epochs() {
        reset();
        coverage!("a");
        coverage!("a");
        coverage!("b", 10);
        assert_eq!(total("a"), 2);
        assert_eq!(total("b"), 10);
        assert_eq!(total("never"), 0);
        epoch();
        coverage!("a");
        let text = show();
        assert!(text.contains('a'), "{text}");
        // 'a': total 3, open epoch delta 1, one closed epoch of 2.
        let a_line = text.lines().find(|l| l.starts_with("a ")).unwrap();
        assert!(a_line.contains('3') && a_line.contains('1'), "{a_line}");
        assert_eq!(epochs(), 1);
        reset();
        assert_eq!(total("a"), 0);
    }

    #[test]
    fn macro_forms() {
        reset();
        coverage!("evt");
        coverage!("evt", 4);
        assert_eq!(total("evt"), 5);
        reset();
    }

    #[test]
    fn window_caps_at_five() {
        reset();
        for _ in 0..10 {
            coverage!("w");
            epoch();
        }
        let snap = snapshot();
        assert_eq!(snap, vec![("w", 10)]);
        reset();
    }
}
