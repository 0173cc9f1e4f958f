"""Unit tests of tools/ab.py's verdicts and parsers, on canned samples.

    python3 -m unittest discover -s tools
"""

import contextlib
import io
import subprocess
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import ab

# Ten per-pair timings within 3 % of 1.0, as a quiet host gives them.
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]

# A perfbench result line (the last line `perfbench/run.py` prints).
RESULT_LINE = (
    '{"correct": true, "attempted": 41, "failed": 1, "metrics": {'
    '"setup_s": {"value": 0.000182, "unit": "s"}, '
    '"trial_cpu_s_p50": {"value": 0.274, "unit": "s"}, '
    '"activations_per_cpu_s": {"value": 7461000.5, "unit": "1/s"}, '
    '"consensus_time_mean": {"value": 566.2457, "unit": "time_units"}, '
    '"peak_rss_mb": {"value": 9.1, "unit": "MB"}}}'
)

# `xp bench run sync/two_choices_round/4096 --format json` as cfc3681 printed
# it: the whole report document, with host and commit provenance.
OLD_KERNEL_DOC = """{
  "schema": "rapid-bench/1",
  "created_unix_ms": 1786257161834,
  "budget_ms": 300,
  "host": {"os": "linux", "arch": "x86_64", "cpus": 2},
  "commit": "cfc36818af0fe937956fcce39590592647687fbe",
  "samples": [
    {"id": "sync/three_majority_round/4096", "group": "sync", "elements": 4096,
     "iters": 5120, "total_ns": 300004113,
     "ns_per_iter": {"mean": 58012.1, "min": 44210.0, "p10": 45001.0,
                     "p50": 47615.5, "p90": 70123.0, "max": 401220.0},
     "throughput_elem_per_s": 86023101.2},
    {"id": "sync/two_choices_round/4096", "group": "sync", "elements": 4096,
     "iters": 7412, "total_ns": 300011452,
     "ns_per_iter": {"mean": 40214.3, "min": 31877.0, "p10": 33012.0,
                     "p50": 35119.5, "p90": 48761.0, "max": 210331.0},
     "throughput_elem_per_s": 116629000.2}
  ]
}"""

# The same kernel as `xp bench` prints it today: the budget and the samples.
KERNEL_DOC = """{
  "budget_ms": 300,
  "samples": [
    {"id": "sync/two_choices_round/4096", "group": "sync", "elements": 4096,
     "iters": 8001, "total_ns": 300000912,
     "ns_per_iter": {"mean": 37002.0, "min": 30001.0, "p10": 31002.0,
                     "p50": 33004.0, "p90": 45010.0, "max": 190200.0},
     "throughput_elem_per_s": 124106168.9}
  ]
}"""


def scaled(values, factor):
    return [v * factor for v in values]


class Verdicts(unittest.TestCase):
    def test_clean_gain(self):
        r = ab.judge(BASE, scaled(BASE, 0.8), "lower", 0.25)
        self.assertEqual(r["verdict"], "gain")
        self.assertEqual((r["won"], r["lost"]), (10, 0))
        self.assertAlmostEqual(r["ratio"], 0.8)
        self.assertAlmostEqual(r["ci"][0], 0.8)
        self.assertAlmostEqual(r["ci"][1], 0.8)

    def test_clean_slowdown(self):
        r = ab.judge(BASE, scaled(BASE, 1.1), "lower", 0.25)
        self.assertEqual(r["verdict"], "slower")
        self.assertEqual((r["won"], r["lost"]), (0, 10))

    def test_higher_is_better_turns_the_same_samples_into_a_gain(self):
        self.assertEqual(ab.judge(BASE, scaled(BASE, 1.1), "higher", 0.25)["verdict"], "gain")

    def test_a_slowdown_past_the_bound_is_worse_than_bound(self):
        self.assertEqual(ab.judge(BASE, scaled(BASE, 1.5), "lower", 0.25)["verdict"],
                         "worse than bound")
        # Without a bound (a kernel) the same samples read slower.
        self.assertEqual(ab.judge(BASE, scaled(BASE, 1.5), "lower")["verdict"], "slower")

    def test_a_a_null(self):
        # The parent's own samples, paired in another order.
        r = ab.judge(BASE, BASE[5:] + BASE[:5], "lower", 0.25)
        self.assertEqual(r["verdict"], "no change")
        self.assertEqual(r["ratio"], 1.0)
        self.assertLessEqual(r["ci"][0], 1.0)
        self.assertGreaterEqual(r["ci"][1], 1.0)

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.65, 1.35, 0.9, 1.1]
        r = ab.judge(wide, list(reversed(wide)), "lower", 0.25)
        self.assertEqual(r["verdict"], "unresolved")
        # The same samples with no bound to exceed.
        self.assertEqual(ab.judge(wide, list(reversed(wide)), "lower")["verdict"], "no change")

    def test_a_wide_spread_with_the_median_past_the_bound_is_unresolved(self):
        # The parent's own noise exceeds the bound, and the CI reaches back
        # below it: the median's move alone is no regression.
        wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.65, 1.35, 0.9, 1.1]
        r = ab.judge(wide, scaled(list(reversed(wide)), 1.3), "lower", 0.25)
        self.assertGreater(r["ratio"], 1.25)
        self.assertLess(r["ci"][0], 1.25)
        self.assertLess(r["lost"], 9)
        self.assertEqual(r["verdict"], "unresolved")
        # The parent's Q3 - Q1 within the bound, the change's median x1.35,
        # but four pairs back at the parent's level keep the CI below 1.25.
        split = [1.35] * 6 + [0.9] * 4
        r = ab.judge(BASE, split, "lower", 0.25)
        self.assertGreater(r["ratio"], 1.25)
        self.assertLess(r["ci"][0], 1.25)
        self.assertEqual(r["verdict"], "unresolved")
        # A regression the whole CI confirms stays worse than bound.
        self.assertEqual(ab.judge(wide, scaled(wide, 2.0), "lower", 0.25)["verdict"],
                         "worse than bound")
        self.assertEqual(ab.judge(wide, scaled(wide, 0.5), "higher", 0.25)["verdict"],
                         "worse than bound")

    def test_a_move_without_nine_pairs_in_ten_is_unresolved(self):
        # The medians differ by far more than the parent's Q3 - Q1, yet the
        # change lost only 6 of the 10 pairs: no bound is needed to doubt it.
        mixed = [0.9, 0.9, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 0.9, 0.9]
        self.assertEqual(ab.wins(BASE, mixed, "lower"), (4, 6))
        self.assertEqual(ab.judge(BASE, mixed, "lower")["verdict"], "unresolved")
        self.assertEqual(ab.judge(BASE, mixed, "lower", 0.25)["verdict"], "unresolved")
        # Every pair lost by 1.5 %, less than the parent's Q3 - Q1 of 2 %:
        # too small for slower, yet the CI excludes 1, so not no change.
        r = ab.judge(BASE, scaled(BASE, 1.015), "lower")
        self.assertEqual((r["lost"], r["verdict"]), (10, "unresolved"))
        self.assertGreater(r["ci"][0], 1.0)

    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab.wins(BASE, BASE, "lower"), (0, 0))
        self.assertEqual(ab.judge(BASE, BASE, "lower", 0.25)["verdict"], "no change")
        # Nine wins and a tie are 9/10, a gain; eight wins and two ties are
        # not, and the medians' move stays unresolved.
        nine = scaled(BASE[:9], 0.8) + BASE[9:]
        self.assertEqual(ab.wins(BASE, nine, "lower"), (9, 0))
        self.assertEqual(ab.judge(BASE, nine, "lower", 0.25)["verdict"], "gain")
        eight = scaled(BASE[:8], 0.8) + BASE[8:]
        self.assertEqual(ab.wins(BASE, eight, "lower"), (8, 0))
        self.assertEqual(ab.judge(BASE, eight, "lower", 0.25)["verdict"], "unresolved")

    def test_quartiles_interpolate_between_ranks(self):
        self.assertEqual(ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(ab.quartiles([7]), (7, 7, 7))

    def test_the_bootstrap_is_reproducible(self):
        change = scaled(BASE[3:] + BASE[:3], 0.97)
        self.assertEqual(ab.bootstrap_ci(BASE, change), ab.bootstrap_ci(BASE, change))


class AcrossSeeds(unittest.TestCase):
    def test_a_gain_on_one_seed_alone_is_unresolved(self):
        # An A/A run read gain on 424242 and no change on seed 1.
        self.assertEqual(ab.combine(["no change", "gain"]), "unresolved")

    def test_a_gain_on_both_seeds_is_a_gain(self):
        self.assertEqual(ab.combine(["gain", "gain"]), "gain")
        self.assertEqual(ab.combine(["slower", "slower"]), "slower")

    def test_worse_than_bound_on_either_seed_decides(self):
        self.assertEqual(ab.combine(["no change", "worse than bound"]), "worse than bound")
        self.assertEqual(ab.combine(["worse than bound", "gain"]), "worse than bound")

    def test_no_change_on_both_seeds_is_no_change(self):
        self.assertEqual(ab.combine(["no change", "no change"]), "no change")

    def test_unresolved_or_missing_seeds_stay_unresolved(self):
        self.assertEqual(ab.combine(["unresolved", "unresolved"]), "unresolved")
        self.assertEqual(ab.combine(["gain", None]), "unresolved")
        self.assertEqual(ab.combine(["gain", "slower"]), "unresolved")

    def test_the_report_prints_each_seed_and_the_combined_verdict(self):
        report = ab.across_seeds([{"trial_cpu_s_p50": "no change", "setup_s": "unresolved"},
                                  {"trial_cpu_s_p50": "gain"}])
        lines = report.splitlines()
        self.assertEqual(lines[0].split(), ["metric", "seed", "1", "seed", "424242", "verdict"])
        self.assertEqual(lines[1].split(), ["trial_cpu_s_p50", "no", "change", "gain",
                                            "unresolved"])
        self.assertEqual(lines[2].split(), ["setup_s", "unresolved", "-", "unresolved"])


class Parsing(unittest.TestCase):
    def test_perfbench_result_line(self):
        attempted, failed, metrics = ab.parse_result_line(RESULT_LINE)
        self.assertEqual((attempted, failed), (41, 1))
        self.assertEqual(metrics["trial_cpu_s_p50"], 0.274)
        self.assertEqual(metrics["consensus_time_mean"], 566.2457)
        self.assertEqual(len(metrics), 5)

    def test_kernel_documents_old_and_new(self):
        self.assertEqual(ab.kernel_p50(OLD_KERNEL_DOC, "sync/two_choices_round/4096"), 35119.5)
        self.assertEqual(ab.kernel_p50(KERNEL_DOC, "sync/two_choices_round/4096"), 33004.0)
        with self.assertRaises(ValueError):
            ab.kernel_p50(KERNEL_DOC, "sync/voter_round/4096")


class Report(unittest.TestCase):
    def test_metrics_only_one_side_reports_are_named_not_judged(self):
        specs = {"a": {"unit": "s", "better": "lower"}}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            verdicts = ab.compare_and_print({"a": BASE, "b": BASE}, {"a": BASE, "c": BASE}, specs)
        self.assertEqual(verdicts, {"a": "no change"})
        self.assertIn("only the parent reports: b", out.getvalue())
        self.assertIn("only the change reports: c", out.getvalue())

    def test_an_unexpected_error_exits_2_not_1(self):
        with mock.patch.object(ab, "Side", side_effect=KeyError("boom")), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(ab.main(["HEAD", "HEAD", "--kernel", "rng/next_u64"]), 2)
        self.assertIn("KeyError", err.getvalue())


class Checkouts(unittest.TestCase):
    def test_materialise_extracts_head_once(self):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ab.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        with tempfile.TemporaryDirectory() as trees, \
                mock.patch.object(ab, "TREES", Path(trees)):
            sha, tree = ab.materialise("HEAD")
            self.assertEqual((sha, tree), (head, Path(trees) / head))
            self.assertTrue((tree / "Cargo.toml").is_file())
            self.assertTrue((tree / "tools" / "ab.py").is_file())
            self.assertFalse((tree / ".git").exists())
            # A second call reuses the tree as it stands.
            (tree / "marker").write_text("kept")
            self.assertEqual(ab.materialise("HEAD"), (sha, tree))
            self.assertTrue((tree / "marker").is_file())

    def test_a_name_that_is_no_commit_is_a_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as e:
            ab.materialise("no-such-ref-anywhere")
        self.assertEqual(e.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
