#!/usr/bin/env python3
"""Interleaved A/B speed verdict for two commits.

    python3 tools/ab.py PARENT CHANGE --workload NAME|all [--pairs N]
    python3 tools/ab.py PARENT CHANGE --kernel ID [--pairs N]

PARENT and CHANGE are any commit-ish; `$(git stash create)` names the
uncommitted changes to tracked files (stage new files first). Each commit
is extracted with `git archive` into `target/ab/<full hash>/` and built
there, so refs, the index and the worktree list stay untouched and a later
run reuses both the tree and its build.

The workload form runs `perfbench/run.py --workload W --seed S --seconds
<BENCHMARK.json run_seconds> --trace 0` in each tree: N pairs on seed 1,
then N pairs on the held-out seed 424242. It reads each run's result line,
and afterwards `run.py compare` checks the two sides' work-count records.
The kernel form runs `target/release/xp bench run ID --format json` in
each tree, N pairs, and reads the kernel's `ns_per_iter.p50`.

A pair runs both sides back to back; pairs alternate which side goes
first, and N is at least 10. For each metric the report gives each
side's median [Q1, Q3], the ratio of medians change/parent with a
bootstrap 95 % CI over pairs, the pairs each side won (ties count for
neither) and a verdict, the first of:

  worse than bound   the change's median, and the near end of the CI,
                     are worse than the parent's by more than the
                     metric's bound in BENCHMARK.json
  gain / slower      one side won at least 9/10 of the pairs and the
                     medians differ by more than the parent's Q3 - Q1
  unresolved         the parent's Q3 - Q1 exceeds the bound, or a
                     difference the 9/10 rule does not confirm: medians
                     further apart than the parent's Q3 - Q1, or a CI
                     that excludes 1
  no change          otherwise

So a median past the bound whose CI reaches back within it reads slower
or unresolved, never worse than bound.

The workload form then prints one line per metric across both seeds:
each seed's verdict and one combined verdict, `worse than bound` if
either seed reads it, `gain`, `slower` or `no change` only if both seeds
read that verdict, and `unresolved` otherwise. One seed can show a few
per cent that is not there; a gain needs both.

Directions and bounds come from BENCHMARK.json; a kernel has no bound.

Exit codes: 0 measured; 1 an end-to-end metric is worse than its bound;
2 a usage, build or run failure, or any unexpected error; 3 the work
counts differ.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # no __pycache__ inside the benchmark's directory
import run as perfbench  # noqa: E402  (its host() describes where a run was measured)

TREES = ROOT / "target" / "ab"
SEEDS = (1, 424242)
KERNEL_METRIC = {"name": "ns_per_iter.p50", "unit": "ns", "better": "lower"}
RESAMPLES = 2000
RESAMPLING_SEED = 20170725


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- statistics


def quantile(values, q):
    """The q-quantile of `values`, interpolating linearly between ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(values):
    """(Q1, median, Q3)."""
    return tuple(quantile(values, q) for q in (0.25, 0.5, 0.75))


def ratio(change, parent):
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def bootstrap_ci(parent, change, resamples=RESAMPLES, seed=RESAMPLING_SEED):
    """95 % CI of median(change) / median(parent), resampling whole pairs."""
    rng = random.Random(seed)
    n = len(parent)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        ratios.append(ratio(quantile([change[i] for i in idx], 0.5),
                            quantile([parent[i] for i in idx], 0.5)))
    return quantile(ratios, 0.025), quantile(ratios, 0.975)


def wins(parent, change, better):
    """(pairs the change won, pairs the parent won); ties count for neither."""
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return won, lost


def judge(parent, change, better, bound=None):
    """One metric's comparison over paired samples, as a dict with a verdict."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won, lost = wins(parent, change, better)
    n = len(parent)
    ci = bootstrap_ci(parent, change)
    spread = p_q3 - p_q1
    moved = abs(c_med - p_med) > spread
    noisy = bound is not None and spread > bound * abs(p_med)
    if better == "lower":
        worse_by, ci_worse_by = c_med - p_med, ci[0] - 1
    else:
        worse_by, ci_worse_by = p_med - c_med, 1 - ci[1]
    if bound is not None and worse_by > bound * abs(p_med) and ci_worse_by > bound:
        verdict = "worse than bound"
    elif moved and 10 * won >= 9 * n and worse_by < 0:
        verdict = "gain"
    elif moved and 10 * lost >= 9 * n and worse_by > 0:
        verdict = "slower"
    elif noisy or moved or not ci[0] <= 1 <= ci[1]:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "ratio": ratio(c_med, p_med),
        "ci": ci,
        "won": won,
        "lost": lost,
        "pairs": n,
        "verdict": verdict,
    }


# ------------------------------------------------------------------- parsing


def parse_result_line(line):
    """A perfbench result line -> (attempted, failed, {metric: value})."""
    doc = json.loads(line)
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    return doc["attempted"], doc["failed"], metrics


def kernel_p50(document, kernel):
    """`samples[id == kernel].ns_per_iter.p50` of an `xp bench --format json` document."""
    for sample in json.loads(document)["samples"]:
        if sample["id"] == kernel:
            return sample["ns_per_iter"]["p50"]
    raise ValueError(f"no sample with id {kernel!r}")


# ------------------------------------------------------------------ checkouts


def run(cmd, cwd, env=None, ok=(0,)):
    """Runs `cmd`; its stdout, or a failure (exit 2) showing its stderr."""
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode not in ok:
        fail(f"`{' '.join(map(str, cmd))}` exited {done.returncode}\n{done.stderr[-2000:]}")
    return done.stdout


def materialise(commitish):
    """The commit's full hash and its extracted tree under target/ab/."""
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{commitish}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{commitish!r} names no commit")
    sha = done.stdout.strip()
    tree = TREES / sha
    if not tree.is_dir():
        partial = TREES / f"{sha}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode != 0:
            fail(f"git archive {sha} failed: {archive.stderr.decode()[-2000:]}")
        extract = subprocess.run(["tar", "-x", "-C", str(partial)], input=archive.stdout,
                                 capture_output=True)
        if extract.returncode != 0:
            fail(f"extracting {sha} failed: {extract.stderr.decode()[-2000:]}")
        partial.rename(tree)
    return sha, tree


class Side:
    """One commit's tree, built for the chosen form."""

    def __init__(self, label, commitish, kernel):
        self.label = label
        self.sha, self.tree = materialise(commitish)
        # Explicit, so a CARGO_TARGET_DIR in the caller's environment cannot
        # make both sides share one build.
        target = self.tree / ("target" if kernel else ".bench_build")
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        if kernel:
            build = ["-p", "rapid-bench", "--bin", "xp"]
        else:
            # The command run.py builds with, so its own build is a no-op.
            build = ["--manifest-path", "perfbench/Cargo.toml"]
        print(f"[building {label} {self.sha[:9]} in {self.tree}]", file=sys.stderr)
        run(["cargo", "build", "--release", "--offline", "--quiet", *build], self.tree,
            self.env)
        self.xp = target / "release" / "xp"

    def workload(self, name, seed, seconds):
        # run.py exits 1 when a trial fails; the result line still counts it.
        out = run([sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0"], self.tree, self.env,
                  ok=(0, 1))
        try:
            attempted, failed, metrics = parse_result_line(out.splitlines()[-1])
        except (ValueError, KeyError, IndexError) as e:
            fail(f"{self.label}: no result line from run.py ({e})")
        self.attempted += attempted
        self.failed += failed
        return metrics

    def kernel(self, kernel):
        out = run([str(self.xp), "bench", "run", kernel, "--format", "json"], self.tree)
        try:
            return {KERNEL_METRIC["name"]: kernel_p50(out, kernel)}
        except (ValueError, KeyError) as e:
            fail(f"{self.label}: {e}")

    def record(self, name, seed):
        return self.tree / ".bench_build" / "perfbench-records" / f"{name}-seed{seed}-trace0.json"


# -------------------------------------------------------------------- report


def fmt(x):
    return f"{x:.0f}" if 1e4 <= abs(x) < 1e12 else f"{x:.4g}"


def table(rows):
    """The report: one line per (metric, unit, judged comparison)."""
    lines = [f"{'metric':<24} {'parent median [Q1, Q3]':<34} {'change median [Q1, Q3]':<34} "
             f"{'ratio [95% CI]':<24} {'won c/p':<11} verdict"]
    for name, unit, r in rows:
        side = lambda s: f"{fmt(s[0])} [{fmt(s[1])}, {fmt(s[2])}] {unit}"
        ci = f"x{r['ratio']:.3f} [{r['ci'][0]:.3f}, {r['ci'][1]:.3f}]"
        won = f"{r['won']}/{r['lost']} of {r['pairs']}"
        lines.append(f"{name:<24} {side(r['parent']):<34} {side(r['change']):<34} "
                     f"{ci:<24} {won:<11} {r['verdict']}")
    return "\n".join(lines)


def pairs(parent, change, count, measure):
    """`count` interleaved pairs of `measure(side)`: per-metric lists per side."""
    runs = {parent: [], change: []}
    for i in range(count):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        print(f"[pair {i + 1}/{count}: {order[0].label} first]", file=sys.stderr)
        for side in order:
            runs[side].append(measure(side))
    by_metric = lambda side: {k: [r[k] for r in runs[side]] for k in runs[side][0]}
    return by_metric(parent), by_metric(change)


def combine(verdicts):
    """One verdict from a metric's per-seed verdicts (None where a seed lacks it)."""
    if "worse than bound" in verdicts:
        return "worse than bound"
    if len(set(verdicts)) == 1 and verdicts[0] in ("gain", "slower", "no change"):
        return verdicts[0]
    return "unresolved"


def across_seeds(per_seed):
    """The report across seeds: one line per metric, each seed's verdict and the combined one."""
    names = dict.fromkeys(name for verdicts in per_seed for name in verdicts)
    lines = [f"{'metric':<24} " + "".join(f"{'seed ' + str(s):<19}" for s in SEEDS) + "verdict"]
    for name in names:
        verdicts = [v.get(name) for v in per_seed]
        lines.append(f"{name:<24} " + "".join(f"{v or '-':<19}" for v in verdicts)
                     + combine(verdicts))
    return "\n".join(lines)


def compare_and_print(parent_samples, change_samples, specs):
    """Judges and prints every metric both sides report; their verdicts by name."""
    rows = []
    for name, values in parent_samples.items():
        if name not in change_samples:
            continue
        if name not in specs:
            fail(f"metric {name} is not in BENCHMARK.json, so its direction is unknown")
        spec = specs[name]
        rows.append((name, spec["unit"],
                     judge(values, change_samples[name], spec["better"], spec.get("bound"))))
    print(table(rows))
    for label, mine, theirs in (("parent", parent_samples, change_samples),
                                ("change", change_samples, parent_samples)):
        only = [name for name in mine if name not in theirs]
        if only:
            print(f"only the {label} reports: {', '.join(only)}")
    return {name: r["verdict"] for name, _, r in rows}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/ab.py",
                                     description="Interleaved A/B speed verdict.")
    parser.add_argument("parent", help="the baseline commit-ish")
    parser.add_argument("change", help="the commit-ish under test")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="a BENCHMARK.json workload, or 'all'")
    target.add_argument("--kernel", help="an `xp bench list` id")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per seed, at least 10 (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10: the verdict counts wins out of ten")
    try:
        return measure(args)
    except Exception:
        # Whatever went wrong, no verdict was reached: never exit 1 for it.
        traceback.print_exc()
        print("ab: unexpected error; no verdict", file=sys.stderr)
        return 2


def measure(args):
    """Builds both sides, runs the pairs and prints the report; the exit code."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    kernel = args.kernel is not None
    parent = Side("parent", args.parent, kernel)
    change = Side("change", args.change, kernel)
    stamp = perfbench.host()
    stamp.pop("commit")  # the driver's own checkout, neither side's
    print("host " + json.dumps(stamp, sort_keys=True))
    print(f"parent {parent.sha[:12]}, change {change.sha[:12]}")

    if kernel:
        print(f"\n== kernel {args.kernel}: {args.pairs} pairs at xp bench's default budget")
        p, c = pairs(parent, change, args.pairs, lambda s: s.kernel(args.kernel))
        compare_and_print(p, c, {KERNEL_METRIC["name"]: KERNEL_METRIC})
        return 0

    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    seconds = bench["run_seconds"]
    worse = changed = False
    for name in names:
        per_seed = []
        for seed in SEEDS:
            print(f"\n== {name} seed {seed}: {args.pairs} pairs at {seconds} s")
            for side in (parent, change):
                side.attempted = side.failed = 0
            p, c = pairs(parent, change, args.pairs, lambda s: s.workload(name, seed, seconds))
            per_seed.append(compare_and_print(p, c, specs))
            print(f"trials failed/attempted: parent {parent.failed}/{parent.attempted}, "
                  f"change {change.failed}/{change.attempted}")
            done = subprocess.run([sys.executable, "perfbench/run.py", "compare",
                                   str(parent.record(name, seed)),
                                   str(change.record(name, seed))],
                                  cwd=change.tree, capture_output=True, text=True)
            if done.returncode not in (0, 3):
                fail(f"run.py compare exited {done.returncode}\n{done.stderr}")
            changed |= done.returncode == 3
            print("\n".join(l for l in done.stdout.splitlines() if not l.startswith("hosts:")))
        print(f"\n== {name}: one verdict across both seeds")
        print(across_seeds(per_seed))
        worse |= "worse than bound" in (v for verdicts in per_seed for v in verdicts.values())
    return 3 if changed else 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
