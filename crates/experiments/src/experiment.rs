//! The first-class experiment abstraction behind the `xp` CLI.
//!
//! Every paper experiment (`e01`–`e26`) implements [`Experiment`]: a
//! stable id, a human title, the paper claim it validates, a declarative
//! [`ParamSchema`] and a `run` that turns a validated [`ParamMap`] into a
//! [`Report`]. The static [`crate::registry::registry`] collects them all
//! so callers (the CLI, the sweep scheduler, the tests) can enumerate and
//! drive every experiment uniformly, without naming any concrete module.

use std::sync::Arc;

use rapid_obs::Obs;

use crate::params::{ParamMap, ParamSchema, Preset};
use crate::report::Report;
use crate::runner::Parallelism;

/// One reproducible experiment from the paper.
///
/// Implementations are zero-sized registry entries; all state arrives
/// through the [`ParamMap`], the master seed included (its `seed`
/// parameter). The map is validated against [`Experiment::params`]
/// before `run` is called, so `run` itself is infallible: typed getters
/// cannot miss.
pub trait Experiment: Sync {
    /// Stable lower-case id (`"e06"`), the CLI handle.
    fn id(&self) -> &'static str;

    /// Human-readable title: the claim being validated.
    fn title(&self) -> &'static str;

    /// The paper anchor (theorem / section) this experiment reproduces.
    fn claim(&self) -> &'static str;

    /// The declarative parameter schema: the only declaration of the
    /// experiment's parameters, their valid ranges and both presets.
    fn params(&self) -> ParamSchema;

    /// Runs the experiment. `parallelism.trial_workers` bounds
    /// `run_trials` workers and `parallelism.shard_workers` is forwarded
    /// to sharded micro runs where the experiment uses them.
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report;

    /// A parameter map initialised from `preset`.
    fn preset(&self, preset: Preset) -> ParamMap {
        ParamMap::preset(&self.params(), preset)
    }

    /// Runs a *traced* variant of the experiment with observability
    /// attached: events land on `obs`'s trace buffer (stream names are
    /// experiment-chosen, conventionally `"<id>/n=<n>"`) and the returned
    /// report summarises the traced runs. Experiments without a traced
    /// variant return `None` — `xp trace` maps that to a typed CLI error.
    ///
    /// Tracing never perturbs the dynamics: observers read progress
    /// snapshots only and have no path to any RNG stream.
    fn run_traced(
        &self,
        params: &ParamMap,
        parallelism: Parallelism,
        obs: &Arc<Obs>,
    ) -> Option<Report> {
        let _ = (params, parallelism, obs);
        None
    }
}
