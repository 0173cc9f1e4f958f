//! The measurement layer: [`Bench`], [`BudgetCfg`] and [`BenchSample`].
//!
//! Mirrors the experiment registry's design one level down: a benchmark is
//! a trait object with a stable id, a human title and a group, and running
//! it under a time budget yields a machine-readable [`BenchSample`] —
//! per-iteration wall-clock quantiles (via `rapid-stats`) plus element
//! throughput. Samples serialise to the `BENCH_*.json` trajectory format
//! (see [`crate::report`]) and parse back, so two runs can be diffed into
//! a regression verdict.

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
/// the headline figure — it is what the regression gate compares, being
/// far less noise-sensitive than the mean on shared runners.
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
    /// Median ns/iter — the regression gate's comparison key.
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

    /// The sample as a `BENCH_*.json` fragment.
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

    /// Parses a sample from a `BENCH_*.json` fragment.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] naming the first missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<BenchSample, SchemaError> {
        let str_field = |key: &'static str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(SchemaError {
                    path: key,
                    expected: "string",
                })
        };
        let u64_field = |key: &'static str| {
            v.get(key).and_then(JsonValue::as_u64).ok_or(SchemaError {
                path: key,
                expected: "unsigned integer",
            })
        };
        let ns = v.get("ns_per_iter").ok_or(SchemaError {
            path: "ns_per_iter",
            expected: "object",
        })?;
        let ns_field = |key: &'static str| {
            ns.get(key).and_then(JsonValue::as_f64).ok_or(SchemaError {
                path: key,
                expected: "number in ns_per_iter",
            })
        };
        Ok(BenchSample {
            id: str_field("id")?,
            group: str_field("group")?,
            elements: u64_field("elements")?,
            iters: u64_field("iters")?,
            total_ns: u64_field("total_ns")?,
            mean_ns: ns_field("mean")?,
            min_ns: ns_field("min")?,
            p10_ns: ns_field("p10")?,
            p50_ns: ns_field("p50")?,
            p90_ns: ns_field("p90")?,
            max_ns: ns_field("max")?,
        })
    }
}

/// A malformed `BENCH_*.json` document.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// The offending field.
    pub path: &'static str,
    /// What the schema expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "field {:?} missing or not a {}",
            self.path, self.expected
        )
    }
}

impl std::error::Error for SchemaError {}

/// One registered micro-benchmark.
///
/// Implementations are zero-sized registry entries (see
/// [`crate::registry::bench_registry`]); all measurement state is built in
/// `run`, so a `Bench` can be executed any number of times under any
/// budget.
pub trait Bench: Sync {
    /// Stable id (`"scheduler/event_queue/1024"`), the CLI handle and the
    /// key the regression gate joins runs on.
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
    fn sample_json_round_trips_exactly() {
        let s = BenchSample {
            id: "g/x/1".into(),
            group: "g".into(),
            elements: 10_000,
            iters: 321,
            total_ns: 300_000_111,
            mean_ns: 934_579.25,
            min_ns: 900_000.0,
            p10_ns: 910_000.5,
            p50_ns: 930_000.0,
            p90_ns: 960_000.0,
            max_ns: 1_200_000.0,
        };
        let doc = s.to_json_value().to_pretty();
        let parsed =
            BenchSample::from_json_value(&rapid_experiments::json::parse(&doc).expect("valid"))
                .expect("schema");
        assert_eq!(parsed, s);
    }

    #[test]
    fn schema_errors_name_the_field() {
        // No quantile block at all: reported before the scalar fields.
        let doc = rapid_experiments::json::parse(r#"{"id": "x"}"#).expect("valid JSON");
        let err = BenchSample::from_json_value(&doc).expect_err("incomplete");
        assert_eq!(err.path, "ns_per_iter");

        // Quantile block present but a field missing inside it.
        let doc = rapid_experiments::json::parse(
            r#"{"id": "x", "ns_per_iter": {"mean": 1.0}, "elements": 1,
                "iters": 1, "total_ns": 1}"#,
        )
        .expect("valid JSON");
        let err = BenchSample::from_json_value(&doc).expect_err("incomplete");
        assert_eq!(err.path, "group");
        assert!(err.to_string().contains("group"));
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
