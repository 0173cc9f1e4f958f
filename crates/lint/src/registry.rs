//! The declared RNG stream registry: `Seed::child(N)` index → owner.
//!
//! Every deterministic engine in this workspace derives its random
//! streams as `seed.child(N)` for a small fixed `N`. Reproducibility of
//! published numbers rests on those indices never colliding: if a new
//! subsystem grabbed `child(1)` it would silently share the engine's
//! stream and every golden pin downstream would still pass while the
//! runs stopped being independent. This table is the single source of
//! truth; the `rng-stream-registry` rule fails the build on any literal
//! child index used outside it (and on a duplicate inside it). The same
//! table is documented for humans in `ARCHITECTURE.md`.
//!
//! Experiment-local streams (per-trial sub-seeds, topology sampling) may
//! use other indices behind a reasoned
//! `// lint: allow(rng-stream-registry): …` marker; runtime-offset
//! streams such as rapid-net's `NODE_STREAM + i` are non-literal and
//! out of static reach — they document their offset at the declaration.

/// One declared child-stream index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEntry {
    /// The literal index passed to `Seed::child`.
    pub id: u64,
    /// The subsystem that owns draws from this stream.
    pub owner: &'static str,
    /// Where the stream is consumed.
    pub consumer: &'static str,
    /// The PR that introduced the stream.
    pub introduced_in: &'static str,
}

/// The declared registry, in index order. Keep in sync with the table in
/// `ARCHITECTURE.md` (the `registry_matches_architecture_doc` test pins
/// that).
pub const STREAM_REGISTRY: &[StreamEntry] = &[
    StreamEntry {
        id: 0,
        owner: "scheduler",
        consumer: "activation schedulers (`crates/sim/src/scheduler.rs`, facade `Clock`)",
        introduced_in: "PR 1",
    },
    StreamEntry {
        id: 1,
        owner: "engine",
        consumer: "protocol engines: neighbor sampling and coin flips",
        introduced_in: "PR 1",
    },
    StreamEntry {
        id: 2,
        owner: "shuffle",
        consumer: "initial-configuration shuffling (`Sim` builder)",
        introduced_in: "PR 1",
    },
    StreamEntry {
        id: 3,
        owner: "jitter",
        consumer: "`LatencyScheduler` exponential jitter draws (`.jitter`)",
        introduced_in: "PR 1",
    },
    StreamEntry {
        id: 4,
        owner: "faults",
        consumer: "fault layer: loss, churn, adversary draws",
        introduced_in: "PR 4",
    },
    StreamEntry {
        id: 5,
        owner: "fault-latency",
        consumer: "`LatencyScheduler` per-activation delay draws",
        introduced_in: "PR 4",
    },
    StreamEntry {
        id: 6,
        owner: "macro",
        consumer: "`MacroSim` τ-leap and Gillespie draws",
        introduced_in: "PR 5",
    },
    StreamEntry {
        id: 7,
        owner: "sharded",
        consumer: "`ShardedSim` per-(epoch, node) activation streams \
                   (`child(7).child(epoch).child(node)`)",
        introduced_in: "PR 8",
    },
];

/// Whether `id` is a declared stream index.
pub fn is_registered(id: u64) -> bool {
    STREAM_REGISTRY.iter().any(|e| e.id == id)
}

/// The registry's own duplicate-index check; `Err` carries the first
/// duplicated id. The live table is pinned duplicate-free by a test, and
/// the rule engine re-checks at runtime so a future bad edit fails
/// `xp lint` rather than silently shadowing a stream.
pub fn duplicate_id() -> Result<(), u64> {
    for (i, e) in STREAM_REGISTRY.iter().enumerate() {
        if STREAM_REGISTRY[..i].iter().any(|p| p.id == e.id) {
            return Err(e.id);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicate_ids() {
        assert_eq!(duplicate_id(), Ok(()));
    }

    #[test]
    fn registry_covers_exactly_children_zero_through_seven() {
        let mut ids: Vec<u64> = STREAM_REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(is_registered(7));
        assert!(!is_registered(8));
    }
}
