//! The call-site coverage registry against a reference model: the plain
//! name-keyed `BTreeMap` registry it replaced. Every observable —
//! `show()`, `snapshot()`, `total()`, `epochs()` — must agree after every
//! step of random `inc`/`add`/`reset`/`epoch` sequences, including two
//! call sites sharing one name, counters first bumped after a reset, and
//! zero-count adds (which make a counter visible with total 0).

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use ovs_obs::coverage::{self, EPOCH_WINDOW};
use proptest::prelude::*;

/// Names behind the call sites in [`bump`], by site.
const SITE_NAMES: [&str; 5] = ["model_a", "model_a", "model_b", "model_c", "model_d"];

/// Five distinct call sites; sites 0 and 1 share a name, site 0 is the
/// one-argument (`inc`) form.
fn bump(site: usize, n: u64) -> u64 {
    match site {
        0 => {
            ovs_obs::coverage!("model_a");
            1
        }
        1 => {
            ovs_obs::coverage!("model_a", n);
            n
        }
        2 => {
            ovs_obs::coverage!("model_b", n);
            n
        }
        3 => {
            ovs_obs::coverage!("model_c", n);
            n
        }
        _ => {
            ovs_obs::coverage!("model_d", n);
            n
        }
    }
}

#[derive(Default)]
struct RefCounter {
    total: u64,
    epoch_open: u64,
    window: Vec<u64>,
}

/// The reference: one map entry per name, created on first bump.
#[derive(Default)]
struct Model {
    counters: BTreeMap<&'static str, RefCounter>,
    epochs: u64,
}

impl Model {
    fn add(&mut self, name: &'static str, n: u64) {
        self.counters.entry(name).or_default().total += n;
    }

    fn epoch(&mut self) {
        for c in self.counters.values_mut() {
            let delta = c.total - c.epoch_open;
            c.epoch_open = c.total;
            c.window.insert(0, delta);
            c.window.truncate(EPOCH_WINDOW);
        }
        self.epochs += 1;
    }

    fn reset(&mut self) {
        *self = Model::default();
    }

    fn show(&self) -> String {
        let mut out = format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            "counter", "total", "epoch", "avg/epoch"
        );
        for (name, c) in &self.counters {
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
        if self.counters.is_empty() {
            out.push_str("(no events)\n");
        }
        out
    }

    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(n, c)| (*n, c.total)).collect()
    }
}

fn assert_agrees(model: &Model, step: usize) {
    assert_eq!(coverage::show(), model.show(), "show() at step {step}");
    assert_eq!(
        coverage::snapshot(),
        model.snapshot(),
        "snapshot() at step {step}"
    );
    assert_eq!(coverage::epochs(), model.epochs, "epochs() at step {step}");
    for name in SITE_NAMES {
        let want = model.counters.get(name).map_or(0, |c| c.total);
        assert_eq!(coverage::total(name), want, "total({name}) at step {step}");
    }
}

proptest! {
    #[test]
    fn registry_matches_btreemap_reference(
        ops in proptest::collection::vec((0u8..9, 0u64..4), 1..400)
    ) {
        coverage::reset();
        let mut model = Model::default();
        for (step, (op, n)) in ops.into_iter().enumerate() {
            match op {
                // One draw in nine bumps site 4, so it is often first
                // bumped after a reset; `n` is zero one time in four.
                0..=4 => {
                    let site = op as usize;
                    let added = bump(site, n);
                    model.add(SITE_NAMES[site], added);
                }
                5..=7 => {
                    coverage::epoch();
                    model.epoch();
                }
                _ => {
                    coverage::reset();
                    model.reset();
                }
            }
            assert_agrees(&model, step);
        }
        coverage::reset();
    }
}

#[test]
fn first_bump_after_reset_and_zero_adds_are_visible() {
    coverage::reset();
    bump(2, 5);
    coverage::epoch();
    coverage::reset();
    assert_eq!(coverage::snapshot(), vec![]);
    assert!(coverage::show().ends_with("(no events)\n"));
    // A zero-count add makes the counter live with total 0.
    bump(3, 0);
    assert_eq!(coverage::snapshot(), vec![("model_c", 0)]);
    // Two call sites, one counter.
    bump(0, 0);
    bump(1, 4);
    assert_eq!(coverage::total("model_a"), 5);
    assert_eq!(coverage::snapshot(), vec![("model_a", 5), ("model_c", 0)]);
    coverage::reset();
}

#[test]
fn counts_are_per_thread() {
    fn site() {
        ovs_obs::coverage!("iso_evt");
    }
    let barrier = Arc::new(Barrier::new(2));
    let other = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            coverage::reset();
            for _ in 0..3 {
                site();
            }
            // Both threads have bumped before either reads.
            barrier.wait();
            coverage::total("iso_evt")
        })
    };
    coverage::reset();
    site();
    barrier.wait();
    assert_eq!(coverage::total("iso_evt"), 1);
    assert_eq!(other.join().expect("thread panicked"), 3);
    assert_eq!(coverage::snapshot(), vec![("iso_evt", 1)]);
    coverage::reset();
}
