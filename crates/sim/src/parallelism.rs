//! Worker-count policies shared by every parallel surface.
//!
//! Three independent layers of the workspace fan work out over OS
//! threads: the experiment runner parallelises *trials*
//! (`run_trials_on`), the sharded micro engine parallelises *shards of
//! one run*, and the deployment runtime parallelises *transport
//! workers*. This module is their one shared vocabulary, and
//! `--parallelism` their one flag.
//!
//! [`Workers`] is a single-axis policy: either a fixed count or
//! "ask the OS" ([`Workers::Auto`]). [`Parallelism`] bundles the two
//! axes that can be active at once — trial-level and shard-level — and
//! owns the CLI grammar (`auto`, `N`, `NxM`) so `xp run`, `xp net run`
//! and library callers all parse and print the same strings.
//!
//! Worker counts never influence simulation *results*: trial seeds are
//! derived per-trial from the master seed, and the sharded engine draws
//! per-(epoch, node) streams, so both are reproducible under any
//! worker count. These policies only decide how much hardware to use.

/// A worker-count policy for one parallel axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workers {
    /// Use the parallelism the OS reports (at least 1).
    Auto,
    /// Use exactly this many workers.
    Fixed(usize),
}

impl Workers {
    /// Shorthand for [`Workers::Auto`].
    pub fn auto() -> Self {
        Workers::Auto
    }

    /// A fixed worker count; `0` is normalised to [`Workers::Auto`] so
    /// CLI layers can funnel "unset" through one constructor.
    pub fn fixed(n: usize) -> Self {
        if n == 0 {
            Workers::Auto
        } else {
            Workers::Fixed(n)
        }
    }

    /// Concrete worker count, clamped to `[1, cap]`. `cap` is the
    /// natural upper bound for the axis (number of trials, number of
    /// nodes); pass `usize::MAX` when there is none.
    pub fn resolve(self, cap: usize) -> usize {
        let wanted = match self {
            Workers::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Workers::Fixed(n) => n.max(1),
        };
        wanted.clamp(1, cap.max(1))
    }
}

impl std::fmt::Display for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workers::Auto => write!(f, "auto"),
            Workers::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// The two worker axes a single invocation can exercise at once.
///
/// `trial_workers` fans independent trials out across threads;
/// `shard_workers` splits the nodes of *one* micro run (or the
/// transport of one deployment) across threads. By default trials run
/// on every core and runs are unsharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker policy for trial-level fan-out (`run_trials_on`).
    pub trial_workers: Workers,
    /// Worker policy for intra-run sharding (sharded micro engine,
    /// `xp net run` transport workers).
    pub shard_workers: Workers,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            trial_workers: Workers::Auto,
            shard_workers: Workers::Fixed(1),
        }
    }
}

/// Error from [`Parallelism::parse`]: the offending token plus a hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseParallelismError {
    token: String,
}

impl std::fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad parallelism '{}': expected 'auto', a positive worker \
             count 'N', or a pair 'NxM' (trial workers x shard workers)",
            self.token
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl Parallelism {
    /// Both axes on automatic.
    pub fn auto() -> Self {
        Parallelism {
            trial_workers: Workers::Auto,
            shard_workers: Workers::Auto,
        }
    }

    /// Parse the shared CLI grammar.
    ///
    /// * `"auto"` — both axes automatic.
    /// * `"N"` — `N` trial workers, shards left at the unsharded
    ///   default.
    /// * `"NxM"` — `N` trial workers and `M` shard workers; either
    ///   side may be `auto`.
    ///
    /// Worker counts must be positive — `0` is rejected rather than
    /// silently promoted so typos fail loudly at the flag parser.
    pub fn parse(s: &str) -> Result<Self, ParseParallelismError> {
        let err = || ParseParallelismError {
            token: s.to_string(),
        };
        let axis = |tok: &str| -> Result<Workers, ParseParallelismError> {
            if tok == "auto" {
                Ok(Workers::Auto)
            } else {
                match tok.parse::<usize>() {
                    Ok(n) if n > 0 => Ok(Workers::Fixed(n)),
                    _ => Err(err()),
                }
            }
        };
        match s.split_once('x') {
            Some((t, sh)) => Ok(Parallelism {
                trial_workers: axis(t)?,
                shard_workers: axis(sh)?,
            }),
            None if s == "auto" => Ok(Parallelism::auto()),
            None => Ok(Parallelism {
                trial_workers: axis(s)?,
                ..Parallelism::default()
            }),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.trial_workers, self.shard_workers) {
            (Workers::Auto, Workers::Auto) => write!(f, "auto"),
            (t, Workers::Fixed(1)) => write!(f, "{t}"),
            (t, s) => write!(f, "{t}x{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_policy_resolution() {
        assert_eq!(Workers::fixed(0), Workers::Auto);
        assert_eq!(Workers::fixed(3), Workers::Fixed(3));
        assert_eq!(Workers::Fixed(8).resolve(2), 2);
        assert_eq!(Workers::Fixed(2).resolve(100), 2);
        assert!(Workers::Auto.resolve(100) >= 1);
        assert_eq!(Workers::Auto.resolve(1), 1);
        assert_eq!(Workers::Fixed(4).resolve(usize::MAX), 4);
    }

    #[test]
    fn default_matches_legacy_threads_policy() {
        let p = Parallelism::default();
        assert_eq!(p.trial_workers, Workers::Auto);
        assert_eq!(p.shard_workers, Workers::Fixed(1));
    }

    #[test]
    fn parse_table() {
        let cases = [
            ("auto", Parallelism::auto()),
            (
                "4",
                Parallelism {
                    trial_workers: Workers::Fixed(4),
                    shard_workers: Workers::Fixed(1),
                },
            ),
            (
                "1x2",
                Parallelism {
                    trial_workers: Workers::Fixed(1),
                    shard_workers: Workers::Fixed(2),
                },
            ),
            (
                "12x4",
                Parallelism {
                    trial_workers: Workers::Fixed(12),
                    shard_workers: Workers::Fixed(4),
                },
            ),
            (
                "autox4",
                Parallelism {
                    trial_workers: Workers::Auto,
                    shard_workers: Workers::Fixed(4),
                },
            ),
            (
                "2xauto",
                Parallelism {
                    trial_workers: Workers::Fixed(2),
                    shard_workers: Workers::Auto,
                },
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Parallelism::parse(input), Ok(want), "input {input:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage_and_zero() {
        for bad in [
            "", "0", "-1", "x", "2x", "x2", "1x0", "0x4", "fast", "2x2x2",
        ] {
            assert!(Parallelism::parse(bad).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        for s in ["auto", "4", "1x2", "autox4", "2xauto", "12x4"] {
            let p = Parallelism::parse(s).unwrap();
            assert_eq!(Parallelism::parse(&p.to_string()).unwrap(), p);
        }
        assert_eq!(Parallelism::default().to_string(), "auto");
        assert_eq!(Parallelism::auto().to_string(), "auto");
    }
}
