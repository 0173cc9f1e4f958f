//! The typed entry point behind `xp net run`: boot a deployment from
//! plain options and return its engine-shaped outcome.
//!
//! `TransportKind::Channel` is the deterministic in-process fast path;
//! `TransportKind::Udp` boots the real loopback deployment, with the
//! first [`Parallelism`] axis sizing its socket worker pool. Argument
//! parsing lives in `rapid-bench`'s `cli` module; e24 and the UDP
//! integration test call [`execute`] directly.

use rapid_core::asynchronous::{GossipRule, Params};
use rapid_core::facade::{EngineKind, MacroProtocol, Sim};
use rapid_graph::complete::Complete;
use rapid_sim::parallelism::{Parallelism, Workers};
use rapid_sim::rng::Seed;

use crate::cluster::{Cluster, NetRun, UdpOpts};

/// Which transport to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Deterministic in-process FIFO transport.
    Channel,
    /// Real UDP loopback sockets.
    Udp,
}

/// The options of one deployment run (`xp net run`).
#[derive(Clone, Debug, PartialEq)]
pub struct RunOpts {
    /// Population size.
    pub n: usize,
    /// Number of opinions.
    pub k: usize,
    /// Multiplicative plurality bias.
    pub eps: f64,
    /// Protocol name as given on the command line.
    pub protocol: String,
    /// Transport selection.
    pub transport: TransportKind,
    /// Master seed.
    pub seed: u64,
    /// Worker policy; the first axis sizes the UDP worker pool.
    pub parallelism: Parallelism,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            n: 256,
            k: 2,
            eps: 0.5,
            protocol: "two-choices".to_string(),
            transport: TransportKind::Channel,
            seed: 7,
            parallelism: Parallelism::default(),
        }
    }
}

/// Resolves the protocol named in the options.
fn protocol_of(opts: &RunOpts) -> Result<MacroProtocol, String> {
    match opts.protocol.as_str() {
        "two-choices" => Ok(MacroProtocol::Gossip(GossipRule::TwoChoices)),
        "voter" => Ok(MacroProtocol::Gossip(GossipRule::Voter)),
        "3-majority" => Ok(MacroProtocol::Gossip(GossipRule::ThreeMajority)),
        "rapid" => Ok(MacroProtocol::Rapid(Params::for_network_with_eps(
            opts.n, opts.k, opts.eps,
        ))),
        other => Err(format!("unknown protocol '{other}'")),
    }
}

/// Executes a parsed run; returns the deployment result.
///
/// # Errors
///
/// Returns a message when the assembly is invalid or the transport
/// cannot be set up (e.g. sockets forbidden).
pub fn execute(opts: &RunOpts) -> Result<NetRun, String> {
    let protocol = protocol_of(opts)?;
    let builder = Sim::builder()
        .topology(Complete::new(opts.n))
        .distribution(rapid_core::InitialDistribution::multiplicative_bias(
            opts.k, opts.eps,
        ))
        .select(protocol.into())
        .engine(EngineKind::Net)
        .seed(Seed::new(opts.seed));
    let mut cluster = Cluster::from_builder(builder).map_err(|e| e.to_string())?;
    match opts.transport {
        TransportKind::Channel => Ok(cluster.run_channel()),
        TransportKind::Udp => cluster
            .run_udp(&UdpOpts {
                // UdpOpts keeps its 0-means-auto convention.
                workers: match opts.parallelism.trial_workers {
                    Workers::Auto => 0,
                    Workers::Fixed(n) => n,
                },
                ..UdpOpts::default()
            })
            .map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_smoke_run_converges() {
        let opts = RunOpts {
            n: 64,
            ..RunOpts::default()
        };
        let run = execute(&opts).expect("channel run");
        assert!(run.outcome.converged(), "{:?}", run.outcome.stop);
        assert_eq!(run.dropped_frames, 0);
        assert_eq!(run.decode_errors, 0);
    }
}
