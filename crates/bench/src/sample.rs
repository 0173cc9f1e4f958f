//! The measurement layer: [`Bench`], [`BudgetCfg`] and [`BenchSample`].
//!
//! Mirrors the experiment registry's design one level down: a benchmark is
//! a trait object with a stable id, a human title and a group, and running
//! it under a time budget yields a machine-readable [`BenchSample`] —
//! per-iteration wall-clock quantiles (via `rapid-stats`) plus element
//! throughput. `xp bench --format json` prints samples as JSON, which
//! `tools/ab.py` reads to compare two commits in interleaved pairs.

use std::time::{Duration, Instant};

use rapid_experiments::json::JsonValue;
use rapid_stats::{quantile::quantile_sorted, OnlineStats};

/// Hard cap on stored per-iteration timings, so a pathologically fast
/// closure cannot allocate without bound inside one budget window.
const MAX_TIMINGS: usize = 1 << 21;

/// How long to run each benchmark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetCfg {
    /// Wall-clock budget per bench once warmed up.
    pub budget: Duration,
    /// Minimum measured iterations, even if the budget is exceeded.
    pub min_iters: u32,
}

impl Default for BudgetCfg {
    fn default() -> Self {
        BudgetCfg {
            budget: Duration::from_millis(300),
            min_iters: 5,
        }
    }
}

impl BudgetCfg {
    /// A budget of `ms` milliseconds with the default iteration floor.
    pub fn from_millis(ms: u64) -> Self {
        BudgetCfg {
            budget: Duration::from_millis(ms),
            ..BudgetCfg::default()
        }
    }
}

/// One benchmark's measured result: iteration wall-clock quantiles.
///
/// All durations are nanoseconds per iteration. `p50_ns` (the median) is
/// the headline figure — it is what `tools/ab.py` compares, being far
/// less noise-sensitive than the mean on shared runners.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSample {
    /// The benchmark's stable id (`"scheduler/event_queue/1024"`).
    pub id: String,
    /// The registry group (`"scheduler"`).
    pub group: String,
    /// Logical items processed per iteration (1 for whole-run benches).
    pub elements: u64,
    /// Measured iterations.
    pub iters: u64,
    /// Total measured wall-clock, nanoseconds.
    pub total_ns: u64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Minimum ns/iter.
    pub min_ns: f64,
    /// 10th percentile ns/iter.
    pub p10_ns: f64,
    /// Median ns/iter — the A/B driver's comparison key.
    pub p50_ns: f64,
    /// 90th percentile ns/iter.
    pub p90_ns: f64,
    /// Maximum ns/iter.
    pub max_ns: f64,
}

impl BenchSample {
    /// Element throughput (elements per second) at the median iteration.
    pub fn throughput(&self) -> f64 {
        if self.p50_ns <= 0.0 {
            return 0.0;
        }
        self.elements as f64 * 1e9 / self.p50_ns
    }

    /// Nanoseconds per element at the median iteration.
    pub fn ns_per_element(&self) -> f64 {
        self.p50_ns / self.elements as f64
    }

    /// The sample as the JSON object `xp bench --format json` prints.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::String(self.id.clone())),
            ("group", JsonValue::String(self.group.clone())),
            ("elements", JsonValue::U64(self.elements)),
            ("iters", JsonValue::U64(self.iters)),
            ("total_ns", JsonValue::U64(self.total_ns)),
            (
                "ns_per_iter",
                JsonValue::object([
                    ("mean", JsonValue::Number(self.mean_ns)),
                    ("min", JsonValue::Number(self.min_ns)),
                    ("p10", JsonValue::Number(self.p10_ns)),
                    ("p50", JsonValue::Number(self.p50_ns)),
                    ("p90", JsonValue::Number(self.p90_ns)),
                    ("max", JsonValue::Number(self.max_ns)),
                ]),
            ),
            (
                "throughput_elem_per_s",
                JsonValue::Number(self.throughput()),
            ),
        ])
    }
}

/// One registered micro-benchmark.
///
/// Implementations are zero-sized registry entries (see
/// [`crate::registry::bench_registry`]); all measurement state is built in
/// `run`, so a `Bench` can be executed any number of times under any
/// budget.
pub trait Bench: Sync {
    /// Stable id (`"scheduler/event_queue/1024"`), the CLI handle and the
    /// key the A/B driver reads a sample by.
    fn id(&self) -> &'static str;

    /// Human-readable description of what one iteration does.
    fn title(&self) -> &'static str;

    /// Coarse group (`"scheduler"`, `"gossip"`, …) for filtering.
    fn group(&self) -> &'static str;

    /// Runs the benchmark under `cfg` and reports the measurement.
    fn run(&self, cfg: &BudgetCfg) -> BenchSample;
}

/// Times `f` repeatedly under `cfg` and summarises into a [`BenchSample`].
///
/// One untimed warm-up call fills caches and faults pages; then every call
/// is timed individually until the budget is spent (but at least
/// `cfg.min_iters` calls), and the per-iteration quantiles are computed
/// exactly with `rapid-stats`.
///
/// **Batching contract:** each call is bracketed by two `Instant::now()`
/// reads (tens of nanoseconds). A closure must therefore do at least
/// ~1 µs of work per call — batch fast kernels internally (the registry
/// batches 10k operations per iteration) — or the sample measures timer
/// overhead, not the kernel.
pub fn measure(
    id: &str,
    group: &str,
    elements: u64,
    cfg: &BudgetCfg,
    f: &mut dyn FnMut(),
) -> BenchSample {
    f(); // warm-up
    let mut timings_ns: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        f();
        timings_ns.push(t0.elapsed().as_nanos() as f64);
        if timings_ns.len() >= cfg.min_iters as usize
            && (start.elapsed() >= cfg.budget || timings_ns.len() >= MAX_TIMINGS)
        {
            break;
        }
    }
    let total_ns = start.elapsed().as_nanos() as u64;
    let mut acc = OnlineStats::new();
    for &t in &timings_ns {
        acc.push(t);
    }
    timings_ns.sort_by(f64::total_cmp);
    BenchSample {
        id: id.to_string(),
        group: group.to_string(),
        elements,
        iters: timings_ns.len() as u64,
        total_ns,
        mean_ns: acc.mean(),
        min_ns: timings_ns[0],
        p10_ns: quantile_sorted(&timings_ns, 0.10),
        p50_ns: quantile_sorted(&timings_ns, 0.50),
        p90_ns: quantile_sorted(&timings_ns, 0.90),
        // lint: allow(panic-hygiene): the sampling loop always records at least one timing
        max_ns: *timings_ns.last().expect("at least min_iters timings"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_respects_min_iters_and_orders_quantiles() {
        let cfg = BudgetCfg {
            budget: Duration::from_millis(1),
            min_iters: 7,
        };
        let mut count = 0u64;
        let s = measure("t/noop", "t", 10, &cfg, &mut || count += 1);
        assert!(s.iters >= 7);
        assert_eq!(count, s.iters + 1, "one warm-up call plus timed calls");
        assert!(s.min_ns <= s.p10_ns);
        assert!(s.p10_ns <= s.p50_ns);
        assert!(s.p50_ns <= s.p90_ns);
        assert!(s.p90_ns <= s.max_ns);
        assert!(s.mean_ns >= s.min_ns && s.mean_ns <= s.max_ns);
        assert_eq!(s.elements, 10);
        assert_eq!(s.group, "t");
    }

    #[test]
    fn throughput_follows_median() {
        let mut s = BenchSample {
            id: "x".into(),
            group: "g".into(),
            elements: 1000,
            iters: 10,
            total_ns: 1,
            mean_ns: 0.0,
            min_ns: 0.0,
            p10_ns: 0.0,
            p50_ns: 1_000_000.0, // 1 ms per 1000 elements → 1M elem/s
            p90_ns: 0.0,
            max_ns: 0.0,
        };
        assert!((s.throughput() - 1e6).abs() < 1e-6);
        assert!((s.ns_per_element() - 1000.0).abs() < 1e-9);
        s.p50_ns = 0.0;
        assert_eq!(s.throughput(), 0.0);
    }
}
