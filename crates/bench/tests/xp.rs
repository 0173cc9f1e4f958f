//! The `xp` binary end to end: every command the dispatcher accepts has
//! a help page listed by `xp help`, a closed stdout ends any command
//! quietly instead of panicking, and an out-of-range parameter is a
//! usage error (exit 2), not a crash.

use std::process::{Command, Stdio};

/// The top-level commands, in `xp help` order.
const COMMANDS: [&str; 9] = [
    "list", "info", "run", "all", "trace", "sweep", "bench", "net", "lint",
];

fn xp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xp"))
}

#[test]
fn help_lists_every_command_and_each_has_a_help_page() {
    let table: Vec<&str> = rapid_bench::cli::XP.subs.iter().map(|c| c.name).collect();
    assert_eq!(table, COMMANDS, "the dispatcher's table");
    let top = xp().arg("help").output().expect("xp spawns");
    assert!(top.status.success(), "xp help: {:?}", top.status);
    let top = String::from_utf8_lossy(&top.stdout);
    for cmd in COMMANDS {
        assert!(
            top.contains(&format!("    xp {cmd} ")),
            "`xp help` lists {cmd}:\n{top}"
        );
        let page = xp().args([cmd, "help"]).output().expect("xp spawns");
        assert!(page.status.success(), "xp {cmd} help: {:?}", page.status);
        let page = String::from_utf8_lossy(&page.stdout);
        assert!(page.starts_with(&format!("xp {cmd} — ")), "{page}");
    }
}

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    let dir = std::env::temp_dir().join("rapid-xp-closed-stdout");
    let dir = dir.to_str().expect("utf-8 temp path");
    let trace = format!("{dir}/e06.trace.jsonl");
    let cases: [&[&str]; 12] = [
        &["help"],
        &["list"],
        &["info", "e06"],
        &[
            "run", "e09", "--quick", "--set", "ns=64", "--set", "trials=1", "--out", dir,
        ],
        &["all", "help"],
        &[
            "trace", "e06", "--quick", "--set", "ns=256", "--out", &trace,
        ],
        &[
            "sweep",
            "e06",
            "--quick",
            "--set",
            "ns=256",
            "--set",
            "trials=1",
            "--no-cache",
        ],
        &["bench", "list"],
        &["net", "help"],
        &["net", "run", "--n", "64"],
        &["lint", "rules"],
        &["lint", "help"],
    ];
    for args in cases {
        // The reader is gone before the child starts, so its first write
        // to stdout fails with EPIPE every time.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = xp()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("xp spawns");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "xp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "xp {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn out_of_range_values_exit_2_before_any_run() {
    for args in [
        &["run", "e06", "--quick", "--set", "trials=0"][..],
        &["all", "--quick", "--set", "trials=0"],
        &[
            "sweep",
            "e06",
            "--quick",
            "--grid",
            "eps=0.5,11",
            "--no-cache",
        ],
    ] {
        let run = xp().args(args).output().expect("xp spawns");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "xp {args:?}: {stderr}");
        assert!(stderr.contains("is outside"), "xp {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "xp {args:?} ran something");
    }
}
