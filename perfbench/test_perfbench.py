"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REPEATING_COUNTS = ("oracle.rk4_steps", "oracle.refine_calls", "oracle.candidates",
                    "conjugate.witness_samples", "spectral.spectrum_calls",
                    "geometry.geodesic_point_calls")
# Share of the traced wall that the harness's own code may take at the tiny
# size; at full size it is under 0.4 % on every workload.
HARNESS_SHARE_MAX = 0.05


def tiny(name: str, seed: int, trace: bool) -> dict:
    return run.run_workload(name, seed, 0.05, trace, size=workloads.TINY, probes=1)


@pytest.fixture(scope="module")
def seed1() -> dict:
    return {(name, trace): tiny(name, 1, trace)
            for name in workloads.WORKLOADS for trace in (False, True)}


def declared(trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_printed_with_its_unit(seed1, capsys):
    for (name, trace), doc in seed1.items():
        run.emit(doc)
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared(trace), (name, trace)
        for metric, unit in units.items():
            assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                       for line in lines[:-1]), (name, metric)


def test_second_seed_gives_new_inputs_and_the_same_metrics(seed1):
    for name, wl in workloads.WORKLOADS.items():
        nc, algs, _, _ = run.probe.timed_setup(name)
        labels = [[b.label for b in wl.make_round(nc, algs, seed, 0, workloads.TINY)]
                  for seed in (1, 2)]
        assert labels[0] != labels[1], name
        for trace in (False, True):
            assert tiny(name, 2, trace)["metrics"].keys() == seed1[name, trace]["metrics"].keys()


def test_counts_repeat_exactly_for_one_seed(seed1):
    seen = set()
    for name in workloads.WORKLOADS:
        again = tiny(name, 1, True)["metrics"]
        first = seed1[name, True]["metrics"]
        for count in REPEATING_COUNTS:
            assert again[count][0] == first[count][0], (name, count)
            if first[count][0] > 0:
                seen.add(count)
    assert seen == set(REPEATING_COUNTS)


def test_library_layers_account_for_the_traced_wall(seed1):
    # The self times partition the traced wall by construction; what can
    # fail is the share left to the harness itself.  A library function that
    # the harness reaches without a wrapper would land there.
    for name in workloads.WORKLOADS:
        m = seed1[name, True]["metrics"]
        wall = m["trace.wall_s"][0]
        assert wall > 0.0
        assert sum(m[f"{layer}.self_s"][0] for layer in run.layers.LAYERS) == pytest.approx(
            wall, rel=1e-9)
        assert m["bench.self_s"][0] <= HARNESS_SHARE_MAX * wall, name


def test_item_clock_times_each_geodesic(seed1):
    doc = seed1["crosscheck", False]
    assert doc["attempted"] == len(workloads.FIXTURES) * workloads.TINY.cross_random
    assert [n for _, _, n, _, _ in doc["pieces"]] == [1] * doc["attempted"]
    assert doc["kernel"], "speed samples"


def _corrupt(nc, original):
    """Closed forms shifted by 0.25 plus one invented time: more times than the oracle finds."""
    def corrupted(geo, t_max, *args, **kwargs):
        cts = [nc.ConjugateTime(ct.t + 0.25, ct.multiplicity, ct.branch)
               for ct in original(geo, t_max, *args, **kwargs)]
        return cts + [nc.ConjugateTime(0.5 * t_max + 0.0123, 1, "lattice")]
    return corrupted


def _drop_boosting_times(nc, original):
    """Closed forms with every time dropped on the tiny size's boosting case only."""
    z0, x0, _ = workloads.BOOSTING_CASES[workloads.TINY.long_boosting[0]]

    def corrupted(geo, t_max, *args, **kwargs):
        cts = original(geo, t_max, *args, **kwargs)
        if list(geo.z0) == z0 and list(geo.x0) == x0:
            assert cts, "the boosting case has a closed-form time to drop"
            return []
        return cts
    return corrupted


def test_corrupted_closed_forms_count_as_failures(monkeypatch):
    nc = run.probe.import_library()
    monkeypatch.setattr(nc.cli, "conjugate_times", _corrupt(nc, nc.cli.conjugate_times))
    doc = tiny("crosscheck", 1, False)
    assert doc["attempted"] > 0
    assert doc["failed"] == doc["attempted"]
    assert not doc["correct"]
    assert doc["metrics"]["pass_frac"][0] == 0.0


def test_corrupted_closed_forms_fail_the_long_cross_check(monkeypatch):
    nc = run.probe.import_library()
    monkeypatch.setattr(nc, "conjugate_times", _corrupt(nc, nc.conjugate_times))
    doc = tiny("oracle_long", 1, False)
    assert doc["failed"] == doc["attempted"]
    assert not doc["correct"]


def test_corrupted_boosting_case_is_not_put_down_to_the_envelope(monkeypatch):
    # The dropped time (6.33) lies before the envelope (6.91 at rate 2), so
    # the oracle's detection of it is a spurious time the envelope does not
    # explain; the controls stay correct.
    nc = run.probe.import_library()
    monkeypatch.setattr(nc, "conjugate_times", _drop_boosting_times(nc, nc.conjugate_times))
    doc = tiny("oracle_long", 1, False)
    assert doc["failed"] == 1
    assert doc["failures"][0].endswith("[unexplained]")
    assert not doc["correct"]


def test_boosting_case_fails_but_stays_within_the_documented_envelope(seed1):
    doc = seed1["oracle_long", False]
    assert doc["failed"] == 1
    assert "[every discrepancy lies past the oracle's growth envelope]" in doc["failures"][0]
    assert doc["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_times_too_close_for_the_default_grid_are_explained():
    # Found by crosscheck: 2.1274 (lattice) and 2.1305 (transcendental) share
    # one sigma_min minimum on the default grid, so the oracle reports one.
    nc = run.probe.import_library()
    geo = nc.GeodesicSpec(nc.fixture("heis5w"), [1.4767218085145808],
                          [0.14068369244111795, 1.4862185428771206,
                           0.07120020621413889, 0.03668892498323855])
    [(reason, explain)] = workloads._cross_check(nc, geo, 6.0)
    assert reason.startswith("compare: 1 missing, 0 spurious")
    assert explain() == "the oracle on 8x the steps and a longer horizon agrees"


def test_horizon_detection_inside_the_envelope_is_explained():
    # Found by oracle_long: the scan's right-endpoint candidate reports the
    # horizon itself as a conjugate time on this in-envelope control.
    nc = run.probe.import_library()
    geo = nc.GeodesicSpec(nc.fixture("pheis3"), [0.66406797],
                          [0.5745103752787031, -0.48600757624783547])
    assert nc.conjugate_times(geo, 16.0) == []
    [(reason, explain)] = workloads._cross_check(nc, geo, 16.0)
    assert reason == "compare: 0 missing, 1 spurious, 0 mult mismatches first at t=16"
    assert explain() == "the oracle on 8x the steps and a longer horizon agrees"
