//! Per-core, per-context CPU time accounting.
//!
//! The paper's Table 4 reports CPU consumption "in units of a CPU
//! hyperthread", broken down the same way Linux `/proc/stat` does:
//! `system` (syscall execution), `softirq` (kernel packet processing),
//! `guest` (time running a vCPU), and `user` (host userspace, i.e. the OVS
//! PMD threads). Simulated substrates charge every modelled operation to a
//! `(core, context)` pair through [`CpuSet::charge`]; experiment harnesses
//! then convert the accumulated busy time into hyperthread units by dividing
//! by the experiment's virtual duration.

/// The execution context a cost is charged to, mirroring `/proc/stat` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Context {
    /// Host userspace: OVS PMD threads, DPDK poll loops, main loop work.
    User,
    /// Kernel time on behalf of a syscall (`sendto`, `poll`, `read`, ...).
    System,
    /// Kernel softirq / NAPI time: drivers, XDP programs, the kernel
    /// datapath, veth and tap delivery.
    Softirq,
    /// Time executing inside a virtual machine's vCPU.
    Guest,
}

impl Context {
    /// All contexts, in the order Table 4 prints them.
    pub const ALL: [Context; 4] = [
        Context::System,
        Context::Softirq,
        Context::Guest,
        Context::User,
    ];

    /// The column label used by Table 4.
    pub fn label(&self) -> &'static str {
        match self {
            Context::User => "user",
            Context::System => "system",
            Context::Softirq => "softirq",
            Context::Guest => "guest",
        }
    }
}

/// Accumulated busy time for one core, split by context.
#[derive(Debug, Clone, Copy, Default)]
pub struct Core {
    user_ns: f64,
    system_ns: f64,
    softirq_ns: f64,
    guest_ns: f64,
}

impl Core {
    /// Busy time charged to `ctx`, in nanoseconds.
    pub fn ns(&self, ctx: Context) -> f64 {
        match ctx {
            Context::User => self.user_ns,
            Context::System => self.system_ns,
            Context::Softirq => self.softirq_ns,
            Context::Guest => self.guest_ns,
        }
    }

    /// Total busy time across all contexts.
    pub fn total_ns(&self) -> f64 {
        self.user_ns + self.system_ns + self.softirq_ns + self.guest_ns
    }

    fn charge(&mut self, ctx: Context, ns: f64) {
        let slot = match ctx {
            Context::User => &mut self.user_ns,
            Context::System => &mut self.system_ns,
            Context::Softirq => &mut self.softirq_ns,
            Context::Guest => &mut self.guest_ns,
        };
        *slot += ns;
    }
}

/// CPU usage for a whole machine over an interval, in hyperthread units
/// (1.0 = one hyperthread fully busy), the unit Table 4 reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuUsage {
    pub system: f64,
    pub softirq: f64,
    pub guest: f64,
    pub user: f64,
}

impl CpuUsage {
    /// Sum of all contexts — Table 4's "total" column.
    pub fn total(&self) -> f64 {
        self.system + self.softirq + self.guest + self.user
    }

    /// Usage of a single context.
    pub fn get(&self, ctx: Context) -> f64 {
        match ctx {
            Context::User => self.user,
            Context::System => self.system,
            Context::Softirq => self.softirq,
            Context::Guest => self.guest,
        }
    }
}

/// A set of simulated CPU hyperthreads with cycle accounting.
///
/// Cores are identified by index. The paper's microbenchmark testbed is a
/// 12-core 2.4 GHz Xeon E5 2620 v3; the NSX testbed is an 8-core Xeon E5
/// 2440 v2 with hyperthreading (16 hyperthreads).
#[derive(Debug, Clone)]
pub struct CpuSet {
    cores: Vec<Core>,
    /// Clock frequency, used only to convert cycle-denominated costs.
    pub hz: u64,
}

impl CpuSet {
    /// Create `n` idle cores running at `hz`.
    pub fn new(n: usize, hz: u64) -> Self {
        Self {
            cores: vec![Core::default(); n],
            hz,
        }
    }

    /// Number of cores (hyperthreads).
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True if the set has no cores.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Charge `ns` of busy time in context `ctx` to core `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range — charging a nonexistent core is a
    /// harness bug, not a data-dependent condition.
    pub fn charge(&mut self, core: usize, ctx: Context, ns: f64) {
        self.cores[core].charge(ctx, ns);
    }

    /// Accounting snapshot for one core.
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Core `core`'s busy time as whole nanoseconds, rounded half away
    /// from zero: the integer snapshot stage attribution takes. Rounding
    /// is monotone and integer deltas telescope, so per-stage times sum
    /// exactly to the poll total.
    pub fn core_ns(&self, core: usize) -> u64 {
        round_ns(self.cores[core].total_ns())
    }

    /// The busiest core's total busy time — the pipeline bottleneck.
    pub fn bottleneck_ns(&self) -> f64 {
        self.cores.iter().map(Core::total_ns).fold(0.0, f64::max)
    }

    /// Index of the busiest core.
    pub fn bottleneck_core(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_ns().total_cmp(&b.total_ns()))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Aggregate usage in hyperthread units over a `duration_ns` interval.
    ///
    /// Each context's usage is its total busy time across every core divided
    /// by the interval, so "9.7 softirq" means the machine spent 9.7
    /// hyperthread-intervals in softirq, exactly as Table 4 counts it.
    pub fn usage(&self, duration_ns: f64) -> CpuUsage {
        if duration_ns <= 0.0 {
            return CpuUsage::default();
        }
        let sum = |ctx: Context| -> f64 {
            self.cores.iter().map(|c| c.ns(ctx)).sum::<f64>() / duration_ns
        };
        CpuUsage {
            system: sum(Context::System),
            softirq: sum(Context::Softirq),
            guest: sum(Context::Guest),
            user: sum(Context::User),
        }
    }

    /// Reset all accounting to zero, keeping the core count.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            *c = Core::default();
        }
    }
}

/// `x.round() as u64` with integer ops: `f64::round` is a library call
/// on baseline x86-64, and stage attribution rounds on every mark. Equal
/// for the non-negative times below 2^53 a core accumulates; both
/// saturate (negative and NaN to 0, huge to `u64::MAX`).
fn round_ns(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ns_matches_f64_round() {
        let xs = [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            2.4999,
            123_456_789.5,
            987_654_321.499_999,
            (1u64 << 52) as f64 + 0.5,
            (1u64 << 53) as f64,
            -0.3,
            -0.7,
            f64::NAN,
            f64::INFINITY,
            1e30,
        ];
        for x in xs {
            assert_eq!(round_ns(x), x.round() as u64, "x = {x}");
        }
        let mut x = 0.0f64;
        for i in 0..100_000u64 {
            x += 0.37 + (i % 7) as f64 * 1.113;
            assert_eq!(round_ns(x), x.round() as u64, "x = {x}");
        }
    }

    #[test]
    fn charge_accumulates_per_context() {
        let mut cpus = CpuSet::new(2, 2_400_000_000);
        cpus.charge(0, Context::User, 100.0);
        cpus.charge(0, Context::User, 50.0);
        cpus.charge(0, Context::Softirq, 25.0);
        cpus.charge(1, Context::Guest, 10.0);
        assert_eq!(cpus.core(0).ns(Context::User), 150.0);
        assert_eq!(cpus.core(0).ns(Context::Softirq), 25.0);
        assert_eq!(cpus.core(0).total_ns(), 175.0);
        assert_eq!(cpus.core(1).ns(Context::Guest), 10.0);
    }

    #[test]
    fn bottleneck_is_busiest_core() {
        let mut cpus = CpuSet::new(3, 1);
        cpus.charge(0, Context::User, 10.0);
        cpus.charge(2, Context::Softirq, 99.0);
        assert_eq!(cpus.bottleneck_ns(), 99.0);
        assert_eq!(cpus.bottleneck_core(), 2);
    }

    #[test]
    fn usage_in_hyperthread_units() {
        let mut cpus = CpuSet::new(4, 1);
        // Two cores each 100% softirq-busy over the interval.
        cpus.charge(0, Context::Softirq, 1_000.0);
        cpus.charge(1, Context::Softirq, 1_000.0);
        cpus.charge(2, Context::User, 500.0);
        let u = cpus.usage(1_000.0);
        assert_eq!(u.softirq, 2.0);
        assert_eq!(u.user, 0.5);
        assert_eq!(u.total(), 2.5);
    }

    #[test]
    fn usage_zero_duration_is_zero() {
        let cpus = CpuSet::new(1, 1);
        assert_eq!(cpus.usage(0.0).total(), 0.0);
    }

    #[test]
    fn reset_clears_all() {
        let mut cpus = CpuSet::new(1, 1);
        cpus.charge(0, Context::System, 7.0);
        cpus.reset();
        assert_eq!(cpus.core(0).total_ns(), 0.0);
    }

    #[test]
    fn context_labels_match_table4() {
        assert_eq!(
            Context::ALL.map(|c| c.label()),
            ["system", "softirq", "guest", "user"]
        );
    }
}
