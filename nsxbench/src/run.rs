//! One benchmark run: set up the pair, warm it to steady state, measure a
//! closed-loop window, check the outputs, and (traced) probe each layer.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::{self, Generator, Tuple, Workload};
use crate::reference::{self, Reference};
use crate::rig::{self, Pair};
use crate::stats::{self, Counters};
use crate::trace::{self, Tracer};
use ovs_afxdp_repro::ebpf::xdp::{RedirectTarget, XdpAction};
use ovs_afxdp_repro::ebpf::Vm;
use ovs_afxdp_repro::nsx::ruleset::{vm_ip, vni_of};
use ovs_afxdp_repro::obs::coverage;
use ovs_afxdp_repro::obs::perf::STAGES;
use ovs_afxdp_repro::ovs::ct::{ConnKey, CtAction};
use ovs_afxdp_repro::ovs::tunnel::{self, TunnelConfig, TunnelKind};
use ovs_afxdp_repro::ovs::DpAction;
use ovs_afxdp_repro::packet::dp_packet::{ct_state, TunnelMetadata};
use ovs_afxdp_repro::packet::{extract_flow_key, extract_miniflow, DpPacket};
use ovs_afxdp_repro::tgen::scenarios::DROP_COUNTERS;

/// Frames the sending VM keeps in flight: one burst per round.
pub const BURST: usize = 32;
/// Virtual time between revalidator sweeps on both hosts.
const SWEEP_EVERY_NS: u64 = 2_000_000_000;
/// Times the pair is built; `setup.build_s` is their median.
const BUILDS: usize = 5;
/// Bursts in one warm-up window.
const WARMUP_BURSTS: usize = 128;
/// Successive warm-up windows whose median round times differ by less
/// than this share count as steady.
const STEADY_TOLERANCE: f64 = 0.10;
/// Give up waiting for steady state after this many windows.
const MAX_WARMUP_WINDOWS: usize = 20;
/// Window tuples kept for the layer probes.
const PROBE_SAMPLE: usize = 4096;
/// Minimum wall time of each layer probe.
const PROBE_TIME: Duration = Duration::from_millis(40);
/// Fresh connections the `conn_setup` ct probe commits, each once.
const CT_FRESH: usize = 32_768;
/// Traced runs alternate blocks of this many bursts with tracing on and
/// off; the difference between the two is the tracing overhead.
const TRACE_BLOCK: u64 = 64;
/// Slices of the measured window. Each gives its own rate and burst
/// percentiles, and the median over slices is reported, so every run
/// picks from the same number of candidates however fast it goes.
pub const SLICES: usize = 10;
/// Fewest bursts in a slice: 1000 keeps ten samples beyond its p99.
pub const LAT_CHUNK: usize = 1000;

/// Coverage counters that name a reason a frame was dropped.
pub fn drop_reasons() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = DROP_COUNTERS.to_vec();
    v.extend([
        "ct_limit_drop",
        "ct_full_drop",
        "ct_invalid_drop",
        "dpif_meter_drop",
        "dpif_drop",
        "dpif_recirc_limit",
        "dpif_tx_no_port",
    ]);
    v
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Wall time of the measured window.
    pub seconds: f64,
    /// Record spans and emit per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            trace_out: None,
        }
    }

    /// Virtual time per burst. `conn_setup` steps far enough that its
    /// megaflow and conntrack populations level off (idle megaflows go
    /// after 10 s, unanswered UDP connections after 30 s) well below
    /// their limits within a short warm-up.
    pub fn step_ns(&self) -> u64 {
        match self.workload {
            Workload::ConnSetup => 20_000_000,
            _ => 1_000_000,
        }
    }

    /// Bursts that establish the workload's state before steady-state
    /// windows start: every flow once for the established workloads;
    /// for `conn_setup`, a conntrack idle timeout (30 s) of virtual time,
    /// after which connections expire as fast as they open.
    fn establish_bursts(&self, gen: &Generator) -> usize {
        match self.workload {
            Workload::ConnSetup => (32_000_000_000 / self.step_ns()) as usize,
            _ => gen.frames_per_cycle().div_ceil(BURST),
        }
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames offered in the measured window.
    pub attempted: u64,
    /// Offered frames the sink did not receive.
    pub failed: u64,
    /// Every output check that failed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Revalidator work summed over one host's sweeps.
#[derive(Debug, Default, Clone, Copy)]
struct SweepAcc {
    deleted: u64,
    evicted: u64,
}

/// Population high-water marks over the window.
#[derive(Debug, Default, Clone, Copy)]
struct Peaks {
    megaflows: [usize; 2],
    conns: [usize; 2],
}

/// The closed loop and everything it accumulates.
struct Bench {
    cfg: Config,
    pair: Pair,
    gen: Generator,
    tracer: Option<Tracer>,
    vnow: u64,
    next_sweep: u64,
    bursts: u64,
    sweeps: [SweepAcc; 2],
    sweep_ns: u64,
    peaks: Peaks,
    /// Most recent window tuples, for the probes (a ring).
    sample: Vec<Tuple>,
    sample_at: usize,
    reference: Reference,
    next_reading: Instant,
}

/// One burst's wall-clock outcome.
struct BurstOut {
    round_ns: u64,
    sweep_ns: u64,
    traced: bool,
    wire_frames: u64,
}

impl Bench {
    fn burst(&mut self, keep_sample: bool) -> BurstOut {
        let traced = self.tracer.is_some() && (self.bursts / TRACE_BLOCK).is_multiple_of(2);
        self.bursts += 1;
        let g0 = Instant::now();
        let tuples = self.gen.tuples(BURST);
        let frames: Vec<Vec<u8>> = tuples.iter().map(gen::frame).collect();
        let g1 = Instant::now();
        if keep_sample {
            for t in tuples {
                if self.sample.len() < PROBE_SAMPLE {
                    self.sample.push(t);
                } else {
                    self.sample[self.sample_at % PROBE_SAMPLE] = t;
                }
                self.sample_at += 1;
            }
        }
        let tracer = if traced { self.tracer.as_mut() } else { None };
        let (wire_frames, r0, r1) = match tracer {
            Some(tr) => {
                tr.record("gen.frame", g0, g1);
                tr.enter("burst");
                let r0 = Instant::now();
                let wire_frames = self.pair.round(frames, Some(&mut *tr));
                let r1 = Instant::now();
                tr.exit();
                (wire_frames, r0, r1)
            }
            None => {
                let r0 = Instant::now();
                let wire_frames = self.pair.round(frames, None);
                (wire_frames, r0, Instant::now())
            }
        };
        let round_ns = r1.duration_since(r0).as_nanos() as u64;
        let step = self.cfg.step_ns();
        self.pair.advance(step);
        self.vnow += step;
        let mut sweep_ns = 0;
        if self.vnow >= self.next_sweep {
            self.next_sweep += SWEEP_EVERY_NS;
            sweep_ns = self.sweep();
        }
        let d1 = rig::dp(&self.pair.h1);
        let d2 = rig::dp(&self.pair.h2);
        let p = &mut self.peaks;
        p.megaflows[0] = p.megaflows[0].max(d1.megaflow_count());
        p.megaflows[1] = p.megaflows[1].max(d2.megaflow_count());
        p.conns[0] = p.conns[0].max(d1.ct.len());
        p.conns[1] = p.conns[1].max(d2.ct.len());
        BurstOut {
            round_ns,
            sweep_ns,
            traced,
            wire_frames,
        }
    }

    /// A reference reading, now; the next is due [`reference::EVERY`]
    /// later.
    fn read_reference(&mut self) -> f64 {
        let r = self.reference.read();
        self.next_reading = Instant::now() + reference::EVERY;
        r
    }

    /// A reference reading if one is due.
    fn reading_due(&mut self) -> Option<f64> {
        (Instant::now() >= self.next_reading).then(|| self.read_reference())
    }

    /// One revalidator sweep on both hosts; returns its wall time.
    fn sweep(&mut self) -> u64 {
        let t0 = Instant::now();
        let s1 = self.pair.h1.revalidate().expect("host 1 datapath is up");
        let s2 = self.pair.h2.revalidate().expect("host 2 datapath is up");
        let t1 = Instant::now();
        if let Some(tr) = self.tracer.as_mut() {
            tr.record("revalidator.sweep", t0, t1);
        }
        for (acc, s) in self.sweeps.iter_mut().zip([s1, s2]) {
            acc.deleted += s.deleted();
            acc.evicted += s.evicted;
        }
        t1.duration_since(t0).as_nanos() as u64
    }

    fn reset_peaks(&mut self) {
        let d1 = rig::dp(&self.pair.h1);
        let d2 = rig::dp(&self.pair.h2);
        self.peaks = Peaks {
            megaflows: [d1.megaflow_count(), d2.megaflow_count()],
            conns: [d1.ct.len(), d2.ct.len()],
        };
    }
}

/// Everything read at the opening and closing of the window.
struct Snapshot {
    hosts: [Counters; 2],
    coverage: Counters,
    sink_rx: u64,
    sink_sunk: u64,
    /// Frames every other guest on host 2 has received.
    others_rx: u64,
}

fn snapshot(pair: &Pair) -> Snapshot {
    let g = &pair.h2.kernel.guests;
    Snapshot {
        hosts: [rig::host_counters(&pair.h1), rig::host_counters(&pair.h2)],
        coverage: coverage::snapshot()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        sink_rx: g[pair.sink].rx_count,
        sink_sunk: g[pair.sink].sunk,
        others_rx: g
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != pair.sink)
            .map(|(_, x)| x.rx_count)
            .sum(),
    }
}

/// A `/proc/self/status` memory field (`VmHWM:`, `VmRSS:`) in KiB.
fn rss_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far.
fn peak_rss_mib() -> Option<f64> {
    Some(rss_kib("VmHWM:")? / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One slice of the measured window, as measured or scaled.
#[derive(Debug, Default)]
pub struct Slice {
    /// Wall ns of each round.
    pub rounds: Vec<f64>,
    /// Wall ns of the rounds plus the revalidator sweeps.
    pub busy_ns: f64,
    /// Frames the sink received.
    pub delivered: u64,
}

/// The end-to-end figures of one slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    pub rate_mpps: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl Slice {
    /// Add `rounds` (each `(round_ns, busy_ns)`) run while the reference
    /// kernel read `reading`; `scale` quotes them at the nominal speed.
    fn add(&mut self, rounds: &[(f64, f64)], reading: f64, scale: bool) {
        for &(round, busy) in rounds {
            let (round, busy) = if scale {
                (
                    reference::scale_time(round, reading),
                    reference::scale_time(busy, reading),
                )
            } else {
                (round, busy)
            };
            self.rounds.push(round);
            self.busy_ns += busy;
        }
    }

    /// Delivery rate over the busy time and the rounds' p50 and p99.
    /// `None` when too few rounds support the p99.
    pub fn figures(&self) -> Option<Figures> {
        let mut sorted = self.rounds.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = stats::percentile(&sorted, 50.0)?;
        let p99 = stats::percentile(&sorted, 99.0).filter(stats::Percentile::supported)?;
        Some(Figures {
            rate_mpps: self.delivered as f64 / self.busy_ns * 1e3,
            p50_ns: p50.value,
            p99_ns: p99.value,
        })
    }
}

impl Figures {
    /// Each figure's median over `all`.
    pub fn median(all: &[Figures]) -> Option<Figures> {
        let of = |f: fn(&Figures) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
        Some(Figures {
            rate_mpps: of(|x| x.rate_mpps)?,
            p50_ns: of(|x| x.p50_ns)?,
            p99_ns: of(|x| x.p99_ns)?,
        })
    }
}

/// Run the benchmark once.
pub fn run(cfg: Config) -> Outcome {
    let mut out = Outcome::default();
    coverage::reset();

    // ---- Set-up: build the pair. The remaining timed builds happen after
    // the window, once this pair is gone, so they cannot raise its peak
    // memory. Reference readings bracket every build and pace the warm-up;
    // set-up time is scaled by their median. --------------------------------
    let mut reference = Reference::new();
    let mut setup_readings = vec![reference.read()];
    let t0 = Instant::now();
    let pair = Pair::build();
    let mut build_s = vec![t0.elapsed().as_secs_f64()];
    setup_readings.push(reference.read());

    let mut d = Bench {
        gen: Generator::new(cfg.workload, cfg.seed),
        tracer: None,
        pair,
        vnow: 0,
        next_sweep: SWEEP_EVERY_NS,
        bursts: 0,
        sweeps: Default::default(),
        sweep_ns: 0,
        peaks: Peaks::default(),
        sample: Vec::new(),
        sample_at: 0,
        reference,
        next_reading: Instant::now(),
        cfg,
    };

    // ---- Warm-up: every established flow once, then windows until two
    // successive ones agree. ----------------------------------------------
    let w0 = Instant::now();
    for _ in 0..d.cfg.establish_bursts(&d.gen) {
        d.burst(false);
        setup_readings.extend(d.reading_due());
    }
    // Peak memory is read after a fixed amount of work, not after the
    // timed window: host 1's AF_XDP transmit path returns every sent
    // packet's metadata to a pool that nothing on that host takes from,
    // so resident memory grows with frames sent, and a faster build
    // would otherwise read as a memory regression. The growth itself is
    // reported as `mem.rss_growth_bytes_per_pkt`.
    let rss = peak_rss_mib().unwrap_or(0.0);
    let mut windows = 0usize;
    let mut prev: Option<f64> = None;
    let mut steady = false;
    while windows < MAX_WARMUP_WINDOWS {
        windows += 1;
        let rounds: Vec<f64> = (0..WARMUP_BURSTS)
            .map(|_| d.burst(false).round_ns as f64)
            .collect();
        setup_readings.extend(d.reading_due());
        let med = stats::median(&rounds).expect("window has rounds");
        let agrees = prev.is_some_and(|p| (med / p - 1.0).abs() < STEADY_TOLERANCE);
        prev = Some(med);
        if agrees {
            steady = true;
            break;
        }
    }
    // The window spans whole sweep periods: it opens just after a sweep
    // and each slice closes just after one, so every run counts the same
    // share of revalidator work.
    d.sweep();
    d.next_sweep = d.vnow + SWEEP_EVERY_NS;
    let warmup_s = w0.elapsed().as_secs_f64();
    if !steady {
        out.notes.push(format!(
            "warm-up stopped after {windows} windows without agreement"
        ));
    }
    let cfg = d.cfg.clone();

    // ---- The measured window, in SLICES slices. A slice closes just after
    // the first sweep once it holds LAT_CHUNK rounds and the window has run
    // for that slice's share of `seconds`. Reference readings open the
    // window, follow every reference::EVERY of wall time and close every
    // slice; the rounds between two readings are scaled by their mean. ----
    if cfg.trace {
        d.tracer = Some(Tracer::new());
        d.bursts = 0;
    }
    d.reset_peaks();
    d.sweeps = Default::default();
    d.sweep_ns = 0;
    let before = snapshot(&d.pair);
    let rss_before = rss_kib("VmRSS:").unwrap_or(0.0);
    // Each slice as measured and as scaled.
    let mut slices: Vec<[Slice; 2]> = Vec::with_capacity(SLICES);
    let mut cur: [Slice; 2] = Default::default();
    let mut block: Vec<(f64, f64)> = Vec::new();
    let mut readings = vec![d.read_reference()];
    let mut rx0 = before.sink_rx;
    let mut traced_ns: Vec<f64> = Vec::new();
    let mut untraced_ns: Vec<f64> = Vec::new();
    let mut wire_frames = 0u64;
    let mut offered = 0u64;
    let slice_s = cfg.seconds / SLICES as f64;
    let win0 = Instant::now();
    while slices.len() < SLICES {
        let b = d.burst(true);
        offered += BURST as u64;
        wire_frames += b.wire_frames;
        d.sweep_ns += b.sweep_ns;
        block.push((b.round_ns as f64, (b.round_ns + b.sweep_ns) as f64));
        if b.traced {
            traced_ns.push(b.round_ns as f64);
        } else {
            untraced_ns.push(b.round_ns as f64);
        }
        let due = slice_s * (slices.len() + 1) as f64;
        let close = b.sweep_ns > 0
            && cur[0].rounds.len() + block.len() >= LAT_CHUNK
            && win0.elapsed().as_secs_f64() >= due;
        let reading = if close {
            Some(d.read_reference())
        } else {
            d.reading_due()
        };
        if let Some(r) = reading {
            let speed = (r + readings.last().expect("the window opened with one")) / 2.0;
            readings.push(r);
            cur[0].add(&block, speed, false);
            cur[1].add(&block, speed, true);
            block.clear();
        }
        if close {
            let rx = d.pair.sink_rx();
            for s in &mut cur {
                s.delivered = rx - rx0;
            }
            rx0 = rx;
            slices.push(std::mem::take(&mut cur));
        }
    }
    let window_s = win0.elapsed().as_secs_f64();
    let after = snapshot(&d.pair);
    let rss_growth = (rss_kib("VmRSS:").unwrap_or(0.0) - rss_before) * 1024.0;

    // ---- Output checks. ----------------------------------------------------
    let delivered = after.sink_rx - before.sink_rx;
    out.attempted = offered;
    out.failed = offered.saturating_sub(delivered);
    let hosts: Vec<Counters> = match (0..2)
        .map(|i| stats::window_diff(&before.hosts[i], &after.hosts[i]))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(h) => h,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    let cov = match stats::window_diff(&before.coverage, &after.coverage) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    let named = |h: &Counters| -> u64 {
        h.iter()
            .filter(|(k, _)| k.starts_with("drop."))
            .map(|(_, v)| v)
            .sum()
    };
    let drops_cov: u64 = drop_reasons()
        .iter()
        .map(|r| cov.get(*r).copied().unwrap_or(0))
        .sum();
    out.check(offered == delivered + drops_cov, || {
        format!("ledger: offered {offered} != delivered {delivered} + named drops {drops_cov}")
    });
    out.check(offered == wire_frames + named(&hosts[0]), || {
        format!(
            "host 1 ledger: offered {offered} != wire {wire_frames} + drops {}",
            named(&hosts[0])
        )
    });
    out.check(wire_frames == delivered + named(&hosts[1]), || {
        format!(
            "host 2 ledger: wire {wire_frames} != delivered {delivered} + drops {}",
            named(&hosts[1])
        )
    });
    out.check(after.sink_sunk - before.sink_sunk == delivered, || {
        "sink consumed a different count than it received".to_string()
    });
    out.check(after.others_rx == before.others_rx, || {
        format!(
            "{} frames reached a VM other than the sink",
            after.others_rx - before.others_rx
        )
    });
    for (i, h) in [&d.pair.h1, &d.pair.h2].into_iter().enumerate() {
        let dp = rig::dp(h);
        out.check(dp.stats.coherent(), || {
            format!("host {}: DpifStats not coherent: {:?}", i + 1, dp.stats)
        });
        for (core, perf) in &dp.perf {
            out.check(perf.stage_ns_total() == perf.poll_ns_total(), || {
                format!(
                    "host {} core {core}: modeled stage sum {} != poll total {}",
                    i + 1,
                    perf.stage_ns_total(),
                    perf.poll_ns_total()
                )
            });
        }
        if cfg.workload.established() {
            out.check(hosts[i]["miniflow_expands"] == 0, || {
                format!(
                    "host {}: {} miniflow expands in a warm window",
                    i + 1,
                    hosts[i]["miniflow_expands"]
                )
            });
        }
    }
    verify_content(&mut d, &mut out);

    // ---- Metrics. ------------------------------------------------------------
    let mut raw = Vec::with_capacity(SLICES);
    let mut scaled = Vec::with_capacity(SLICES);
    for [r, s] in &slices {
        if let (Some(fr), Some(fs)) = (r.figures(), s.figures()) {
            raw.push(fr);
            scaled.push(fs);
        }
    }
    let (raw, scaled) = match (Figures::median(&raw), Figures::median(&scaled)) {
        (Some(r), Some(s)) if raw.len() == SLICES => (r, s),
        _ => {
            out.failures
                .push(format!("a slice has fewer than {LAT_CHUNK} rounds"));
            return out;
        }
    };
    let window_reading = stats::median(&readings).expect("the window has readings");
    let loss = stats::ratio(offered - delivered.min(offered), offered);
    let bursts = slices.iter().map(|[r, _]| r.rounds.len()).sum::<usize>();
    if !cfg.trace {
        out.put("pkt_rate_mpps", scaled.rate_mpps, "Mpps");
        out.put("burst_p50_us", scaled.p50_ns / 1e3, "us");
        out.put("burst_p99_us", scaled.p99_ns / 1e3, "us");
    }

    // Probes and the remaining set-up timings run after the window.
    if cfg.trace {
        probe_layers(&mut d, &mut out);
    }
    let width = [&d.pair.h1, &d.pair.h2].map(|h| rig::dp(h).lane_width() as u64);
    let Bench {
        pair,
        tracer,
        sweeps,
        peaks,
        sweep_ns,
        mut reference,
        ..
    } = d;
    drop(pair);
    for _ in 1..BUILDS {
        setup_readings.push(reference.read());
        let t0 = Instant::now();
        drop(Pair::build());
        build_s.push(t0.elapsed().as_secs_f64());
        setup_readings.push(reference.read());
    }
    let build_median = stats::median(&build_s).expect("at least one build");
    let setup_reading = stats::median(&setup_readings).expect("set-up has readings");
    let setup_s = reference::scale_time(build_median + warmup_s, setup_reading);
    out.notes.push(format!(
        "{}: {} bursts in {SLICES} slices, window {window_s:.3} s ({:.3} s sweeps); \
         as measured: {:.5} Mpps, p50 {:.1} us, p99 {:.1} us, set-up {:.3} s \
         (builds {build_s:.3?} s, warm-up {warmup_s:.3} s over {windows} windows); \
         reference {:.1} us in the window, {:.1} us in set-up, nominal {:.1} us",
        cfg.workload.name(),
        bursts,
        secs(sweep_ns),
        raw.rate_mpps,
        raw.p50_ns / 1e3,
        raw.p99_ns / 1e3,
        build_median + warmup_s,
        window_reading / 1e3,
        setup_reading / 1e3,
        reference::NOMINAL_NS / 1e3,
    ));
    if !cfg.trace {
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mib", rss, "MiB");
        return out;
    }

    // ---- Traced run: per-layer metrics. -------------------------------------
    let tracer = tracer.expect("traced run has a tracer");
    let self_t = trace::self_times(tracer.spans());
    let mean_us = |name: &str| self_t.get(name).map(|s| s.mean_ns() / 1e3).unwrap_or(0.0);
    let total_ns = |name: &str| self_t.get(name).map(|s| s.total_ns).unwrap_or(0) as f64;
    let frames = offered.max(1) as f64;
    // Only traced bursts have spans; per-frame wall time divides by theirs.
    let traced_frames = (traced_ns.len() * BURST).max(1) as f64;
    let traced_med = stats::median(&traced_ns).unwrap_or(0.0);
    let untraced_med = stats::median(&untraced_ns).unwrap_or(0.0);
    let overhead_pct = if untraced_med > 0.0 {
        (traced_med / untraced_med - 1.0) * 100.0
    } else {
        0.0
    };
    let mut layer: Vec<(String, f64, &'static str)> = vec![
        ("gen.frame_us".into(), mean_us("gen.frame"), "us"),
        (
            "nsx.tx_host_pump_us".into(),
            mean_us("nsx.tx_host_pump"),
            "us",
        ),
        (
            "kernel.wire_inject_us".into(),
            mean_us("kernel.wire_inject"),
            "us",
        ),
        (
            "nsx.rx_host_pump_us".into(),
            mean_us("nsx.rx_host_pump"),
            "us",
        ),
        ("burst.self_us".into(), mean_us("burst"), "us"),
        (
            "revalidator.sweep_ms".into(),
            mean_us("revalidator.sweep") / 1e3,
            "ms",
        ),
        ("setup.build_s".into(), build_median, "s"),
        ("setup.warmup_s".into(), warmup_s, "s"),
        ("setup.warmup_windows".into(), windows as f64, "count"),
        ("burst.samples".into(), bursts as f64, "count"),
        ("host.reference_us".into(), window_reading / 1e3, "us"),
        ("loss_ratio".into(), loss, "ratio"),
        (
            "mem.rss_growth_bytes_per_pkt".into(),
            rss_growth / frames,
            "bytes",
        ),
        ("trace.overhead_pct".into(), overhead_pct, "%"),
        (
            "wall.host_ns_per_pkt.h1".into(),
            total_ns("nsx.tx_host_pump") / traced_frames,
            "ns",
        ),
        (
            "wall.host_ns_per_pkt.h2".into(),
            (total_ns("kernel.wire_inject") + total_ns("nsx.rx_host_pump")) / traced_frames,
            "ns",
        ),
    ];
    for (i, h) in hosts.iter().enumerate() {
        let passes = h["packets_processed"] + h["recirculations"];
        let share = |k: &str| stats::ratio(h[k], passes);
        let count = |k: &str| h[k] as f64;
        let mut host: Vec<(String, f64, &'static str)> = vec![
            ("cache.emc_hit_share".into(), share("emc_hits"), "ratio"),
            ("cache.smc_hit_share".into(), share("smc_hits"), "ratio"),
            (
                "cache.megaflow_hit_share".into(),
                share("megaflow_hits"),
                "ratio",
            ),
            ("dpif.upcall_share".into(), share("upcalls"), "ratio"),
            (
                "dpif.recirc_per_pkt".into(),
                stats::ratio(h["recirculations"], h["packets_processed"]),
                "ratio",
            ),
            (
                "dpif.flows_installed".into(),
                count("flows_installed"),
                "count",
            ),
            (
                "dpif.flow_limit_hits".into(),
                count("flow_limit_hits"),
                "count",
            ),
            (
                "megaflow.peak_count".into(),
                peaks.megaflows[i] as f64,
                "count",
            ),
            (
                "classifier.lane_occupancy".into(),
                stats::ratio(h["lane_keys"], h["lane_steps"] * width[i]),
                "ratio",
            ),
            (
                "miniflow.expands".into(),
                count("miniflow_expands"),
                "count",
            ),
            ("ct.commits".into(), count("ct_commits"), "count"),
            ("ct.peak_conns".into(), peaks.conns[i] as f64, "count"),
            ("ct.expired".into(), count("ct_expired"), "count"),
            (
                "revalidator.deleted".into(),
                sweeps[i].deleted as f64,
                "count",
            ),
            (
                "revalidator.evicted".into(),
                sweeps[i].evicted as f64,
                "count",
            ),
        ];
        for stage in STAGES {
            let k = rig::stage_key(stage.label());
            let v = count(&format!("perf.{k}")) / frames;
            host.push((format!("modeled.{k}_ns_per_pkt"), v, "ns"));
        }
        host.push((
            "modeled.total_ns_per_pkt".into(),
            count("perf.poll_ns") / frames,
            "ns",
        ));
        layer.extend(
            host.into_iter()
                .map(|(name, v, unit)| (format!("{name}.h{}", i + 1), v, unit)),
        );
    }
    let events: u64 = cov.values().sum();
    layer.push((
        "obs.coverage_events_per_pkt".into(),
        events as f64 / frames,
        "count",
    ));
    for r in drop_reasons() {
        let n = cov.get(r).copied().unwrap_or(0) as f64;
        layer.push((format!("drops.{r}"), n, "count"));
    }
    for (name, v, unit) in layer {
        out.put(name, v, unit);
    }
    if let Some(path) = &cfg.trace_out {
        let written =
            std::fs::File::create(path).and_then(|f| tracer.write_csv(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            out.notes
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    out
}

/// Send a few untimed bursts and compare, byte for byte, what reaches
/// the sink VM's ring with what its peer offered. Host 2's PMD round runs
/// on its own so the frames can be read before the sink consumes them.
fn verify_content(d: &mut Bench, out: &mut Outcome) {
    for _ in 0..4 {
        let frames: Vec<Vec<u8>> = d.gen.tuples(BURST).iter().map(gen::frame).collect();
        let p = &mut d.pair;
        p.h1.kernel.guests[p.sender]
            .tx_ring
            .extend(frames.iter().cloned());
        p.h1.pump();
        for f in p.h1.wire_take() {
            p.h2.wire_inject(f);
        }
        let h2 = &mut p.h2;
        let dp = h2.dp.as_mut().expect("host 2 datapath is up");
        let pmds = h2.pmds.as_mut().expect("userspace host has a scheduler");
        for _ in 0..8 {
            if pmds.run_round(dp, &mut h2.kernel) == 0 {
                break;
            }
        }
        // The datapath batches a burst per megaflow, so frames of
        // different flows may arrive reordered: compare as multisets.
        let mut got: Vec<Vec<u8>> = h2.kernel.guests[p.sink].rx_ring.iter().cloned().collect();
        let mut want = frames;
        got.sort();
        want.sort();
        out.check(got == want, || {
            format!(
                "content: sink ring holds {} frames, {} offered, first mismatch at {:?}",
                got.len(),
                want.len(),
                got.iter().zip(&want).position(|(a, b)| a != b)
            )
        });
        h2.pump();
        p.advance(d.cfg.step_ns());
    }
}

/// Time `f` over `inputs`, passing over them until `min_time` has passed
/// (at least once); returns wall ns per call.
fn probe<T>(inputs: &mut [T], min_time: Duration, mut f: impl FnMut(&mut T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < min_time {
        for x in inputs.iter_mut() {
            f(x);
        }
        calls += inputs.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Replay the window's recorded inputs through each layer's public
/// function and report wall ns per call.
fn probe_layers(d: &mut Bench, out: &mut Outcome) {
    let tuples = d.sample.clone();
    let frames: Vec<Vec<u8>> = tuples.iter().map(gen::frame).collect();
    let vif = d.pair.h1.ports.vifs[0];

    // packet: miniflow extraction.
    let mut pkts: Vec<DpPacket> = frames
        .iter()
        .map(|f| {
            let mut p = DpPacket::from_data(f);
            p.in_port = vif;
            p
        })
        .collect();
    let ns = probe(&mut pkts, PROBE_TIME, |p| {
        black_box(extract_miniflow(black_box(p)));
    });
    out.put("packet.extract_miniflow_ns", ns, "ns");

    // tunnel: Geneve encap on host 1, decap on host 2.
    let h1 = &d.pair.h1;
    let local = [172, 16, 0, 1];
    let remote = [172, 16, 0, 2];
    let enc_cfg = TunnelConfig {
        kind: TunnelKind::Geneve,
        local_ip: local,
    };
    let meta = TunnelMetadata {
        tun_id: vni_of(0),
        src: local,
        dst: remote,
        tos: 0,
        ttl: 64,
    };
    let macs = [(h1.uplink_if, h1.uplink_mac())];
    let rtnl = &rig::dp(h1).rtnl;
    let mut enc_in: Vec<(&[u8], u16, Vec<u8>)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_slice(), i as u16, Vec::new()))
        .collect();
    let ns = probe(
        &mut enc_in,
        PROBE_TIME,
        |(inner, entropy, outer)| match tunnel::encap(&enc_cfg, rtnl, &macs, &meta, inner, *entropy)
        {
            Ok(r) => *outer = black_box(r).frame,
            Err(e) => panic!("encap toward the peer VTEP failed: {e:?}"),
        },
    );
    out.put("tunnel.encap_ns", ns, "ns");
    let mut outer: Vec<Vec<u8>> = enc_in.into_iter().map(|(_, _, o)| o).collect();
    let dec_cfg = TunnelConfig {
        kind: TunnelKind::Geneve,
        local_ip: remote,
    };
    let mut decap_ok = true;
    let mut dec_in: Vec<(&[u8], usize)> = outer
        .iter()
        .enumerate()
        .map(|(i, o)| (o.as_slice(), i))
        .collect();
    let ns = probe(&mut dec_in, PROBE_TIME, |(o, i)| {
        match tunnel::try_decap(&dec_cfg, o) {
            Some((inner, _)) => decap_ok &= black_box(inner) == frames[*i],
            None => decap_ok = false,
        }
    });
    out.put("tunnel.decap_ns", ns, "ns");
    out.check(decap_ok, || {
        "tunnel probe: decap did not return the encapsulated frame".to_string()
    });

    // ebpf: host 2's uplink XDP program over the encapsulated frames.
    let h2 = &mut d.pair.h2;
    let prog = h2
        .kernel
        .device(h2.uplink_if)
        .xdp
        .as_ref()
        .map(|x| x.prog.clone());
    match prog {
        Some(prog) => {
            let mut vm = Vm::new();
            let maps = &mut h2.kernel.maps;
            let mut redirected = true;
            let ns = probe(&mut outer, PROBE_TIME, |f| {
                match prog.run(&mut vm, f, 0, maps) {
                    Ok(r) => {
                        redirected &=
                            matches!(r.action, XdpAction::Redirect(RedirectTarget::Xsk(_)))
                    }
                    Err(_) => redirected = false,
                }
            });
            out.put("ebpf.xdp_ns", ns, "ns");
            out.check(redirected, || {
                "xdp probe: a frame was not redirected to an AF_XDP socket".to_string()
            });
        }
        None => {
            out.put("ebpf.xdp_ns", 0.0, "ns");
            out.failures
                .push("host 2 uplink has no XDP program attached".to_string());
        }
    }

    // ofproto: the +new pass (DFW sections) of each window frame on
    // host 1 — the translation an upcall runs.
    let h1 = &mut d.pair.h1;
    let of = &mut h1.dp.as_mut().expect("host 1 datapath is up").ofproto;
    let mut keys = Vec::with_capacity(pkts.len());
    for p in &mut pkts {
        let key = extract_flow_key(p);
        if let Some(DpAction::Recirc(id)) = of.translate(&key).actions.last() {
            let mut k2 = key;
            k2.set_recirc_id(*id);
            k2.set_ct_state(ct_state::TRACKED | ct_state::NEW);
            k2.set_ct_zone(1);
            keys.push(k2);
        }
    }
    out.check(keys.len() == pkts.len(), || {
        "ofproto probe: first pass did not end in recirculation".to_string()
    });
    let ns = probe(&mut keys, PROBE_TIME, |k| {
        black_box(of.translate(black_box(k)));
    });
    out.put("ofproto.translate_ns", ns, "ns");

    // ct: the DFW commit in zone 100 against host 1's live table. The
    // established workloads replay their window tuples (lookups of held
    // connections); conn_setup commits CT_FRESH further fresh tuples in
    // one pass, so every call opens a connection.
    let established = d.cfg.workload.established();
    let (ct_tuples, min_time) = if established {
        (tuples, PROBE_TIME)
    } else {
        (d.gen.tuples(CT_FRESH), Duration::ZERO)
    };
    let now = d.pair.h1.kernel.sim.clock.now_ns();
    let core = d.pair.h1.switch_core;
    let ct = &mut d.pair.h1.dp.as_mut().expect("host 1 datapath is up").ct;
    let mut conns: Vec<ConnKey> = ct_tuples
        .iter()
        .map(|t| ConnKey {
            zone: 100,
            src_ip: t.src_ip,
            dst_ip: vm_ip(2, 0, 0),
            src_port: t.src_port,
            dst_port: t.dst_port,
            proto: 17,
        })
        .collect();
    let action = CtAction {
        zone: 100,
        commit: true,
        mark: None,
        nat: None,
    };
    let mut refused = 0u64;
    let commits0 = ct.stats.commits;
    let ns = probe(&mut conns, min_time, |k| {
        if ct
            .process_full(*k, action, None, Some(core), now)
            .drop
            .is_some()
        {
            refused += 1;
        }
    });
    out.put("ct.process_ns", ns, "ns");
    out.check(refused == 0, || {
        format!("ct probe: {refused} commits refused")
    });
    let opened = ct.stats.commits - commits0;
    out.check(established || opened == conns.len() as u64, || {
        format!(
            "ct probe: {opened} of {} fresh tuples opened a connection",
            conns.len()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds of 1..=n ns, each also busy for that long.
    fn rounds(n: usize) -> Vec<(f64, f64)> {
        (1..=n).map(|i| (i as f64, i as f64)).collect()
    }

    #[test]
    fn slice_figures_need_a_supported_p99() {
        let mut s = Slice::default();
        s.add(&rounds(LAT_CHUNK), reference::NOMINAL_NS, false);
        s.delivered = 16_016;
        let f = s.figures().unwrap();
        assert_eq!(f.p50_ns, 500.0);
        assert_eq!(f.p99_ns, 990.0);
        // 16,016 frames in 500,500 ns: 32 Mpps.
        assert_eq!(f.rate_mpps, 32.0);
        let mut short = Slice::default();
        short.add(&rounds(LAT_CHUNK - 1), reference::NOMINAL_NS, false);
        assert_eq!(short.figures(), None);
    }

    #[test]
    fn scaled_rounds_follow_the_reading() {
        let (mut raw, mut fast, mut slow) = Default::default();
        let block = rounds(LAT_CHUNK);
        Slice::add(&mut raw, &block, 2.0 * reference::NOMINAL_NS, false);
        Slice::add(&mut fast, &block, reference::NOMINAL_NS, true);
        Slice::add(&mut slow, &block, 2.0 * reference::NOMINAL_NS, true);
        let figs = |s: &mut Slice| {
            s.delivered = 1000;
            s.figures().unwrap()
        };
        let (raw, fast, slow): (Figures, Figures, Figures) =
            (figs(&mut raw), figs(&mut fast), figs(&mut slow));
        assert_eq!(fast, raw, "at the nominal reading nothing moves");
        assert_eq!(slow.p50_ns, raw.p50_ns / 2.0);
        assert_eq!(slow.p99_ns, raw.p99_ns / 2.0);
        assert_eq!(slow.rate_mpps, raw.rate_mpps * 2.0);
    }

    #[test]
    fn figure_medians_are_taken_per_figure() {
        let f = |r, a, b| Figures {
            rate_mpps: r,
            p50_ns: a,
            p99_ns: b,
        };
        let all = [f(3.0, 10.0, 7.0), f(1.0, 30.0, 9.0), f(2.0, 20.0, 8.0)];
        assert_eq!(Figures::median(&all), Some(f(2.0, 20.0, 8.0)));
        assert_eq!(Figures::median(&[]), None);
    }
}
