//! The metrics registry: named counters, gauges and log₂ histograms.
//!
//! Registration takes a short mutex on the name map; the returned handle
//! wraps an `Arc<AtomicU64>` (or the histogram's atomic cell array), so
//! every *update* after registration is a lock-free atomic op — engines
//! register once at attach time and increment from hot loops without
//! contending on anything but the cell itself.
//!
//! [`Registry::snapshot`] holds the registration lock while it reads
//! every cell, so the set of names is a consistent point-in-time view
//! and each value is a single atomic load. Names are kept in a
//! `BTreeMap`, so snapshots are always sorted — stable output for tests
//! and diffs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`. Engines batch per-epoch deltas into one call.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that is *set*, not accumulated (queue depths,
/// pending-map sizes, in-flight trial counts).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count for log₂ histograms: bucket `b` holds values whose bit
/// length is `b`, i.e. `v == 0 → 0`, otherwise `64 - v.leading_zeros()`.
const BUCKETS: usize = 65;

/// The shared cell behind a [`Histogram`].
#[derive(Debug)]
pub struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log₂-scaled histogram of `u64` samples (batch sizes, frame bytes,
/// per-shard step counts). 65 fixed buckets by bit length: cheap,
/// allocation-free, and wide enough for any `u64`.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// Bucket index for a sample: its bit length.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// One registered metric cell.
#[derive(Clone, Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// The named-metric registry. Cheap to share via `Arc<Obs>`; see the
/// module docs for the locking discipline.
#[derive(Debug, Default)]
pub struct Registry {
    cells: Mutex<BTreeMap<String, Cell>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Cell>> {
        // A poisoned registry lock means a panic elsewhere while holding
        // it; the map cannot be left mid-mutation by any of our critical
        // sections (single insert / read loop), so clear the poison.
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-opens) the counter `name`. Re-registration under
    /// the same name returns a handle to the *same* cell. A name already
    /// taken by a different metric kind yields a detached cell that
    /// counts but never appears in snapshots — misuse stays observable
    /// at the call site without poisoning the document.
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.lock();
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0))))
        {
            Cell::Counter(cell) => Counter(Arc::clone(cell)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Registers (or re-opens) the gauge `name`; same collision rules as
    /// [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut cells = self.lock();
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Cell::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => Gauge(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Registers (or re-opens) the histogram `name`; same collision
    /// rules as [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut cells = self.lock();
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Histogram(Arc::new(HistogramCell::new())))
        {
            Cell::Histogram(cell) => Histogram(Arc::clone(cell)),
            _ => Histogram(Arc::new(HistogramCell::new())),
        }
    }

    /// A consistent point-in-time read of every registered metric,
    /// sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let cells = self.lock();
        let entries = cells
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    Cell::Counter(c) => Value::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => Value::Gauge(g.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => {
                        let buckets = h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(b, c)| {
                                let n = c.load(Ordering::Relaxed);
                                (n > 0).then_some((b as u32, n))
                            })
                            .collect();
                        Value::Histogram {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            buckets,
                        }
                    }
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// One snapshotted metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last-set value.
    Gauge(u64),
    /// A histogram: total samples, their sum, and the non-empty log₂
    /// buckets as `(bit_length, count)` pairs.
    Histogram {
        /// Total samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Non-empty `(bit_length, count)` buckets, ascending.
        buckets: Vec<(u32, u64)>,
    },
}

/// A sorted point-in-time view of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, Value)>,
}

impl Snapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The value of counter `name`, if registered as a counter.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if registered as a gauge.
    pub fn get_gauge(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().get_counter("hits"), Some(5));
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(9);
        g.set(3);
        assert_eq!(r.snapshot().get_gauge("depth"), Some(3));
    }

    #[test]
    fn kind_collision_detaches_instead_of_clobbering() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(7);
        let g = r.gauge("x"); // wrong kind: detached cell
        g.set(1);
        assert_eq!(r.snapshot().get_counter("x"), Some(7));
        assert_eq!(g.get(), 1, "the detached cell still works locally");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let r = Registry::new();
        let h = r.histogram("batch");
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        let snap = r.snapshot();
        let Some(Value::Histogram {
            count,
            sum,
            buckets,
        }) = snap.get("batch")
        else {
            panic!("histogram missing from snapshot");
        };
        assert_eq!((*count, *sum), (6, 1034));
        // 0→b0, 1→b1, 2,3→b2, 4→b3, 1024→b11
        assert_eq!(buckets, &[(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("z.last").add(2);
        r.gauge("a.first").set(1);
        r.histogram("m.mid").record(8);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
