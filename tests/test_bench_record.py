import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "src_sha256": "a"}


def write_result(directory, workload, seed, wall_s, rss=40.0, env=ENV, **extra):
    directory.mkdir(exist_ok=True)
    result = {
        "workload": workload, "seed": seed, "trace": 0, "environment": env,
        "end_to_end": {"wall_s": wall_s, "setup_s": 0.2, "updates_per_s": 10.0 / wall_s,
                       "peak_rss_mb": rss},
        **extra,
    }
    (directory / f"result-{workload}-s{seed}-{len(list(directory.iterdir()))}.json").write_text(
        json.dumps(result))


@pytest.fixture
def root(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def test_record_holds_spreads_ratios_and_pairs_won(root, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(4.0, 1.0), (5.0, 2.0), (3.0, 3.0), (6.0, 7.0), (2.0, 1.5)]):
        write_result(parent, "ballistic_clean", seed, p)
        write_result(change, "ballistic_clean", seed, c, rss=41.0,
                     env={**ENV, "src_sha256": "b" if seed else "c"})
    write_result(parent, "ballistic_clean", 9, 1.0)  # unpaired: counted in its side only
    # a traced run has no end_to_end block and is skipped
    (parent / "result-traced.json").write_text(json.dumps({"workload": "ballistic_clean",
                                                           "seed": 0, "per_layer": {}}))
    code = bench_record.main(["--pr", "7", "--parent", str(parent), "--change", str(change)],
                             root=root)
    assert code == 0
    assert capsys.readouterr().out.strip() == str(root / "BENCH_7.json")
    record = json.loads((root / "BENCH_7.json").read_text())
    assert record["pr"] == 7
    wl = record["workloads"]["ballistic_clean"]
    assert wl["seeds"] == {"parent": [0, 1, 2, 3, 4, 9], "change": [0, 1, 2, 3, 4]}
    assert wl["environment"]["parent"] == [ENV]
    assert [e["src_sha256"] for e in wl["environment"]["change"]] == ["c", "b"]
    wall = wl["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", 0.25)
    # parent 1, 2, 3, 4, 5, 6: inclusive quartiles at 2.25 and 4.75
    assert wall["parent"] == {"median": 3.5, "q1": 2.25, "q3": 4.75, "n": 6}
    assert wall["change"] == {"median": 2.0, "q1": 1.5, "q3": 3.0, "n": 5}
    assert wall["ratio"] == pytest.approx(2.0 / 3.5)
    # seeds 0, 1, 4 won; seed 2 tied (counts for neither); seed 3 lost
    assert (wall["pairs"], wall["pairs_won"]) == (5, 3)
    # 5 pairs are too few for a claim; the parent's IQR 2.5 exceeds 0.25 x 3.5, and the
    # change's 7.0 is slower than the parent's 1.0
    assert (wall["claim_met"], wall["no_regression"]) == (False, "unresolved")
    ups = wl["metrics"]["updates_per_s"]
    assert ups["better"] == "higher" and ups["pairs_won"] == 3
    rss = wl["metrics"]["peak_rss_mb"]
    assert rss["pairs_won"] == 0 and rss["ratio"] == pytest.approx(41.0 / 40.0)
    setup = wl["metrics"]["setup_s"]
    assert setup["pairs_won"] == 0 and setup["ratio"] == 1.0


def test_workload_run_on_one_side_only(root, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, "phase_scan", 0, 3.0)
    write_result(change, "phase_scan", 0, 2.0)
    write_result(change, "rg_crosscheck", 0, 1.0)
    assert bench_record.main(["--pr", "1", "--parent", str(parent), "--change", str(change)],
                             root=root) == 0
    rg = json.loads((root / "BENCH_1.json").read_text())["workloads"]["rg_crosscheck"]
    wall = rg["metrics"]["wall_s"]
    assert wall["parent"] is None and wall["ratio"] is None
    assert (wall["claim_met"], wall["no_regression"]) == (False, "unresolved")
    assert wall["change"]["n"] == 1 and (wall["pairs"], wall["pairs_won"]) == (0, 0)


@pytest.mark.parametrize("problem", ["duplicate", "missing_metric", "empty"])
def test_refuses_ambiguous_or_incomplete_results(root, tmp_path, capsys, problem):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(change, "phase_scan", 0, 2.0)
    parent.mkdir()
    if problem == "duplicate":
        write_result(parent, "phase_scan", 0, 3.0)
        write_result(parent, "phase_scan", 0, 3.1)
        expected = "a second run of workload phase_scan with seed 0"
    elif problem == "missing_metric":
        (parent / "result-x.json").write_text(json.dumps(
            {"workload": "phase_scan", "seed": 0, "environment": ENV,
             "end_to_end": {"wall_s": 1.0}}))
        expected = "missing setup_s, updates_per_s, peak_rss_mb"
    else:
        expected = "no untraced result-*.json files"
    code = bench_record.main(["--pr", "2", "--parent", str(parent), "--change", str(change)],
                             root=root)
    assert code == 1
    assert expected in capsys.readouterr().err
    assert not (root / "BENCH_2.json").exists()


def wall_verdicts(root, tmp_path, parent_walls, change_walls):
    """claim_met and no_regression of wall_s for runs paired by position."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, wall in enumerate(parent_walls):
        write_result(parent, "phase_scan", seed, wall)
    for seed, wall in enumerate(change_walls):
        write_result(change, "phase_scan", seed, wall)
    assert bench_record.main(["--pr", "3", "--parent", str(parent), "--change", str(change)],
                             root=root) == 0
    wall = json.loads((root / "BENCH_3.json").read_text())["workloads"]["phase_scan"]["metrics"]["wall_s"]
    return wall["claim_met"], wall["no_regression"]


TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # median 1.045, IQR 0.045


@pytest.mark.parametrize("change, claim_met", [
    ([0.8] * 9 + [1.5], True),  # 9 of 10 won, median 0.245 better than the parent's
    ([0.8] * 8 + [1.5] * 2, False),  # 8 of 10 won
    ([0.8] * 9, False),  # 9 pairs: too few
    ([v - 0.03 for v in TIGHT], False),  # every pair won, but by less than the parent's IQR
])
def test_claim_met_needs_ten_pairs_nine_tenths_won_and_a_gain_beyond_the_parents_iqr(
    root, tmp_path, change, claim_met,
):
    assert wall_verdicts(root, tmp_path, TIGHT[:len(change)], change)[0] is claim_met


WIDE = [1.0, 1.0, 1.2, 1.6, 2.0, 2.0]  # median 1.4, IQR 0.85 > 0.25 x 1.4


@pytest.mark.parametrize("parent, change, no_regression", [
    (TIGHT, [v * 1.2 for v in TIGHT], "yes"),  # 20 % slower: within the bound 0.25
    (TIGHT, [v * 1.3 for v in TIGHT], "no"),  # 30 % slower
    (WIDE, [v * 1.3 for v in WIDE], "no"),  # worse beyond the bound, however wide the spread
    (WIDE, [0.9, 0.9, 1.1, 1.5, 1.9, 1.9], "unresolved"),  # better median, but the runs overlap
    (WIDE, [0.5, 0.5, 0.6, 0.7, 0.9, 0.95], "yes"),  # every change run beats every parent run
])
def test_no_regression_verdicts(root, tmp_path, parent, change, no_regression):
    assert wall_verdicts(root, tmp_path, parent, change)[1] == no_regression
