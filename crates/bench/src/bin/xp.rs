//! `xp` — the one binary for experiments, benchmarks, sweeps,
//! deployments and lint. Every command, flag and help page lives in
//! [`rapid_bench::cli`]; this binary only hands it argv and exits with
//! the code it returns.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rapid_bench::cli::main(&args));
}
