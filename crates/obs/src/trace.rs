//! The trace ring buffer: typed structured events, bounded memory,
//! per-stream sequence numbers, JSONL export.
//!
//! Every emission names a *stream* (one logical emitter: `"engine"`,
//! `"shard"`, `"net"`, a job id…). Accepted events get the stream's next
//! sequence number, so within a stream the surviving records are always
//! contiguous — the gap-free contract `crates/core/tests/obs.rs` pins
//! under every `Parallelism` setting. When the ring is full the *oldest*
//! record is dropped and counted; the retained suffix of each stream
//! stays contiguous.
//!
//! A kind filter (`--events` on the CLI) is applied at emission time:
//! filtered-out events consume neither capacity nor sequence numbers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A typed trace event. The taxonomy spans all four engines; see the
/// "which engine emits what" matrix in ARCHITECTURE.md.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A rapid run crossed into a new schedule phase (micro/sharded
    /// observers; `phase == phases` marks part 2, the endgame).
    PhaseEnter {
        /// Phase index, 0-based; equal to the phase count in part 2.
        phase: u64,
        /// Simulated time at the crossing.
        time: f64,
    },
    /// The opinion histogram's top two entries at a sample point.
    BiasSample {
        /// Simulated time of the sample.
        time: f64,
        /// Leading color index.
        leader: u64,
        /// Leading color's support count.
        support: u64,
        /// Second-placed color's support count.
        runner_up: u64,
        /// Total population.
        total: u64,
    },
    /// Full occupancy vector at a sample point (small k only).
    OccupancySample {
        /// Simulated time of the sample.
        time: f64,
        /// Per-color support counts, color-index order.
        counts: Vec<u64>,
    },
    /// The sharded engine merged one epoch's deltas.
    EpochMerge {
        /// Epoch index.
        epoch: u64,
        /// Activations merged this epoch.
        steps: u64,
        /// Shards that participated.
        shards: u64,
        /// Least-loaded shard's activation count.
        min_shard_steps: u64,
        /// Most-loaded shard's activation count.
        max_shard_steps: u64,
    },
    /// A transport dropped an outbound frame (outbox full / socket
    /// refused).
    FrameDrop {
        /// Dropping node id.
        node: u64,
        /// Frames still pending for that node after the drop.
        pending: u64,
    },
    /// A node raised the gossiped termination beacon.
    BeaconRaise {
        /// Raising node id.
        node: u64,
    },
    /// A node revoked its termination beacon.
    BeaconRevoke {
        /// Revoking node id.
        node: u64,
    },
    /// The macro engine advanced time with one τ-leap batch.
    TauLeap {
        /// Simulated time after the leap.
        time: f64,
        /// Activations batched into the leap.
        batch: u64,
    },
    /// The macro engine fell back to exact Gillespie steps.
    GillespieFallback {
        /// Simulated time at the fallback.
        time: f64,
        /// Exact steps taken before re-attempting a leap.
        steps: u64,
    },
    /// Free-form labelled scalar for one-off diagnostics.
    Note {
        /// What the scalar measures.
        label: String,
        /// The measurement.
        value: f64,
    },
}

impl TraceEvent {
    /// This event's kind tag.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::PhaseEnter { .. } => EventKind::PhaseEnter,
            TraceEvent::BiasSample { .. } => EventKind::BiasSample,
            TraceEvent::OccupancySample { .. } => EventKind::OccupancySample,
            TraceEvent::EpochMerge { .. } => EventKind::EpochMerge,
            TraceEvent::FrameDrop { .. } => EventKind::FrameDrop,
            TraceEvent::BeaconRaise { .. } => EventKind::BeaconRaise,
            TraceEvent::BeaconRevoke { .. } => EventKind::BeaconRevoke,
            TraceEvent::TauLeap { .. } => EventKind::TauLeap,
            TraceEvent::GillespieFallback { .. } => EventKind::GillespieFallback,
            TraceEvent::Note { .. } => EventKind::Note,
        }
    }
}

/// The kind tag of a [`TraceEvent`], used for `--events` filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// [`TraceEvent::PhaseEnter`].
    PhaseEnter,
    /// [`TraceEvent::BiasSample`].
    BiasSample,
    /// [`TraceEvent::OccupancySample`].
    OccupancySample,
    /// [`TraceEvent::EpochMerge`].
    EpochMerge,
    /// [`TraceEvent::FrameDrop`].
    FrameDrop,
    /// [`TraceEvent::BeaconRaise`].
    BeaconRaise,
    /// [`TraceEvent::BeaconRevoke`].
    BeaconRevoke,
    /// [`TraceEvent::TauLeap`].
    TauLeap,
    /// [`TraceEvent::GillespieFallback`].
    GillespieFallback,
    /// [`TraceEvent::Note`].
    Note,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: &'static [EventKind] = &[
        EventKind::PhaseEnter,
        EventKind::BiasSample,
        EventKind::OccupancySample,
        EventKind::EpochMerge,
        EventKind::FrameDrop,
        EventKind::BeaconRaise,
        EventKind::BeaconRevoke,
        EventKind::TauLeap,
        EventKind::GillespieFallback,
        EventKind::Note,
    ];

    /// The snake_case tag used in JSONL documents and `--events` lists.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseEnter => "phase_enter",
            EventKind::BiasSample => "bias_sample",
            EventKind::OccupancySample => "occupancy_sample",
            EventKind::EpochMerge => "epoch_merge",
            EventKind::FrameDrop => "frame_drop",
            EventKind::BeaconRaise => "beacon_raise",
            EventKind::BeaconRevoke => "beacon_revoke",
            EventKind::TauLeap => "tau_leap",
            EventKind::GillespieFallback => "gillespie_fallback",
            EventKind::Note => "note",
        }
    }

    /// Parses a snake_case tag back to a kind.
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One record in the ring: a stream name, that stream's sequence number,
/// and the event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Logical emitter name.
    pub stream: String,
    /// Per-stream sequence number, 0-based over *accepted* events.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one compact JSON object (no trailing
    /// newline): `{"stream":…,"seq":…,"kind":…,<event fields>}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"stream\":");
        json_string(&mut out, &self.stream);
        out.push_str(",\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.event.kind().name());
        out.push('"');
        match &self.event {
            TraceEvent::PhaseEnter { phase, time } => {
                push_u64(&mut out, "phase", *phase);
                push_f64(&mut out, "time", *time);
            }
            TraceEvent::BiasSample {
                time,
                leader,
                support,
                runner_up,
                total,
            } => {
                push_f64(&mut out, "time", *time);
                push_u64(&mut out, "leader", *leader);
                push_u64(&mut out, "support", *support);
                push_u64(&mut out, "runner_up", *runner_up);
                push_u64(&mut out, "total", *total);
            }
            TraceEvent::OccupancySample { time, counts } => {
                push_f64(&mut out, "time", *time);
                out.push_str(",\"counts\":[");
                for (i, c) in counts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&c.to_string());
                }
                out.push(']');
            }
            TraceEvent::EpochMerge {
                epoch,
                steps,
                shards,
                min_shard_steps,
                max_shard_steps,
            } => {
                push_u64(&mut out, "epoch", *epoch);
                push_u64(&mut out, "steps", *steps);
                push_u64(&mut out, "shards", *shards);
                push_u64(&mut out, "min_shard_steps", *min_shard_steps);
                push_u64(&mut out, "max_shard_steps", *max_shard_steps);
            }
            TraceEvent::FrameDrop { node, pending } => {
                push_u64(&mut out, "node", *node);
                push_u64(&mut out, "pending", *pending);
            }
            TraceEvent::BeaconRaise { node } | TraceEvent::BeaconRevoke { node } => {
                push_u64(&mut out, "node", *node);
            }
            TraceEvent::TauLeap { time, batch } => {
                push_f64(&mut out, "time", *time);
                push_u64(&mut out, "batch", *batch);
            }
            TraceEvent::GillespieFallback { time, steps } => {
                push_f64(&mut out, "time", *time);
                push_u64(&mut out, "steps", *steps);
            }
            TraceEvent::Note { label, value } => {
                out.push_str(",\"label\":");
                json_string(&mut out, label);
                push_f64(&mut out, "value", *value);
            }
        }
        out.push('}');
        out
    }
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is valid JSON for finite
        // values; non-finite has no JSON encoding, so emit null.
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The state behind the ring's single mutex.
#[derive(Debug, Default)]
struct Inner {
    records: VecDeque<TraceRecord>,
    seqs: BTreeMap<String, u64>,
    dropped: u64,
    filter: Option<BTreeSet<EventKind>>,
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// One mutex guards the ring; emission from engine code is *batched*
/// (per epoch, per pump, per trial), never per-activation, so the lock
/// is far off every hot path. The disabled path never reaches this type
/// at all — it is the `None` arm of [`crate::ObsHandle`].
#[derive(Debug)]
pub struct TraceBuffer {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Poison means a panic while appending; VecDeque/BTreeMap ops
        // cannot leave Inner inconsistent, so clear the poison.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Restricts accepted events to `kinds` (`None` accepts all).
    /// Filtered-out events consume neither capacity nor sequence
    /// numbers.
    pub fn set_filter(&self, kinds: Option<&[EventKind]>) {
        self.lock().filter = kinds.map(|ks| ks.iter().copied().collect());
    }

    /// Appends `event` to `stream`, assigning the stream's next sequence
    /// number. Drops the oldest record (counting it) when full.
    pub fn emit(&self, stream: &str, event: TraceEvent) {
        let mut inner = self.lock();
        if let Some(filter) = &inner.filter {
            if !filter.contains(&event.kind()) {
                return;
            }
        }
        let seq = {
            let slot = inner.seqs.entry(stream.to_string()).or_insert(0);
            let seq = *slot;
            *slot += 1;
            seq
        };
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(TraceRecord {
            stream: stream.to_string(),
            seq,
            event,
        });
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Clones the retained records out, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Renders the retained records as newline-terminated JSONL, oldest
    /// first — the `xp trace` document.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for record in &inner.records {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Empties the ring and forgets per-stream sequence state.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.records.clear();
        inner.seqs.clear();
        inner.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(v: f64) -> TraceEvent {
        TraceEvent::Note {
            label: "x".to_string(),
            value: v,
        }
    }

    #[test]
    fn sequences_are_per_stream_and_gap_free() {
        let t = TraceBuffer::new(16);
        t.emit("a", note(0.0));
        t.emit("b", note(1.0));
        t.emit("a", note(2.0));
        let records = t.records();
        let seqs_a: Vec<u64> = records
            .iter()
            .filter(|r| r.stream == "a")
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs_a, vec![0, 1]);
        assert_eq!(records[1].seq, 0, "stream b starts at 0");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = TraceBuffer::new(2);
        for i in 0..5 {
            t.emit("s", note(i as f64));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let seqs: Vec<u64> = t.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4], "retained suffix stays contiguous");
    }

    #[test]
    fn filter_skips_without_consuming_seq() {
        let t = TraceBuffer::new(8);
        t.set_filter(Some(&[EventKind::PhaseEnter]));
        t.emit("s", note(0.0)); // filtered out
        t.emit(
            "s",
            TraceEvent::PhaseEnter {
                phase: 1,
                time: 2.0,
            },
        );
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 0, "filtered events consume no seq");
        t.set_filter(None);
        t.emit("s", note(1.0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn jsonl_shape_is_exact() {
        let t = TraceBuffer::new(8);
        t.emit(
            "engine",
            TraceEvent::BiasSample {
                time: 1.5,
                leader: 0,
                support: 60,
                runner_up: 1,
                total: 100,
            },
        );
        t.emit(
            "engine",
            TraceEvent::FrameDrop {
                node: 3,
                pending: 7,
            },
        );
        assert_eq!(
            t.to_jsonl(),
            "{\"stream\":\"engine\",\"seq\":0,\"kind\":\"bias_sample\",\"time\":1.5,\
             \"leader\":0,\"support\":60,\"runner_up\":1,\"total\":100}\n\
             {\"stream\":\"engine\",\"seq\":1,\"kind\":\"frame_drop\",\"node\":3,\"pending\":7}\n"
        );
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        let r = TraceRecord {
            stream: "a\"b".to_string(),
            seq: 0,
            event: TraceEvent::Note {
                label: "line\nbreak".to_string(),
                value: f64::NAN,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"stream\":\"a\\\"b\",\"seq\":0,\"kind\":\"note\",\
             \"label\":\"line\\nbreak\",\"value\":null}"
        );
    }

    #[test]
    fn kind_names_roundtrip() {
        for &k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn concurrent_emission_keeps_streams_contiguous() {
        let t = TraceBuffer::new(100_000);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    let stream = format!("w{w}");
                    for i in 0..1000 {
                        t.emit(&stream, note(i as f64));
                    }
                });
            }
        });
        let records = t.records();
        for w in 0..4 {
            let stream = format!("w{w}");
            let mut seqs: Vec<u64> = records
                .iter()
                .filter(|r| r.stream == stream)
                .map(|r| r.seq)
                .collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (0..1000).collect::<Vec<u64>>());
        }
    }
}
