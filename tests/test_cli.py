"""Command-line interface, driven in-process through main(argv)."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import CPLX, HEIS3Z2
import nilconj
from nilconj import DEFAULT_TOL
from nilconj.cli import main
from nilconj.geometry import serialize_field

SQ3 = np.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(out):
    # json mode writes exactly one JSON document to stdout
    return json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_fixture(capsys):
    code, out, err = run(capsys, "validate", "--algebra", "pheis3")
    assert code == 0
    assert "# tolerances:" in out
    assert "ok" in out


def test_validate_json(capsys):
    code, out, err = run(capsys, "validate", "--algebra", "bicenter", "--json")
    assert code == 0
    doc = json_out(out)
    assert doc["dim_center"] == 2 and doc["dim_v"] == 3
    assert doc["center_signature"] == [2, 0]
    assert doc["v_signature"] == [2, 1]
    assert doc["nonzero_brackets"] == 2
    assert doc["ok"] is True
    # tolerance echo goes to stderr so stdout stays a single document
    assert err.startswith("tolerances:")


def test_validate_file_algebra(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(HEIS3Z2)
    code, out, _ = run(capsys, "validate", "--algebra", str(path), "--json")
    assert code == 0
    assert json_out(out)["dim_center"] == 2


def test_validate_degenerate_center_exits_2(tmp_path, capsys):
    doc = {"dim_center": 1, "dim_v": 2,
           "gram": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
           "brackets": [{"a": 0, "b": 1, "out": [1.0]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert err.startswith("error: DegenerateCenterError")


def test_unknown_algebra_exits_2(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "nope")
    assert code == 2
    assert "error: ParseError" in err


@pytest.mark.parametrize("argv, kind", [
    (["validate", "--algebra", "{dir}"], "ParseError"),
    (["validate", "--algebra", "{dir}/utf16.json"], "ParseError"),
    (["oracle", "--algebra", "heis3", "--z0", "1", "--tmax", "2", "--out", "{dir}/no/s.csv"],
     "FileNotFoundError"),
    (["locus", "--algebra", "pheis3", "--grid", "4", "--out", "{dir}/no/l.csv"],
     "FileNotFoundError"),
    (["conjugate", "--algebra", "heis3", "--z0", "1", "--tmax", "7", "--witness", "{dir}/no/w"],
     "FileNotFoundError"),
])
def test_unusable_file_arguments_exit_2(tmp_path, capsys, argv, kind):
    # a directory, a file that is not UTF-8, or an output under a missing
    # directory: one error line, no traceback, and nothing on stdout
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv), "--json")
    assert code == 2 and out == "" and err.count("error: ") == 1
    assert err.splitlines()[-1].startswith(f"error: {kind}: ")


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_human(capsys):
    code, out, _ = run(capsys, "spectrum", "--algebra", "heis5w", "--z0", "1")
    assert code == 0
    assert "rotating" in out
    assert "diagonalizable True" in out


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--algebra", "pheis3", "--z0", "1", "--json")
    assert code == 0
    doc = json_out(out)
    assert doc["neg"] == []
    assert len(doc["pos"]) == 1
    assert doc["pos"][0]["rate"] == pytest.approx(1.0)
    assert doc["pos"][0]["mult"] == 2


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_json_shape(capsys):
    code, out, _ = run(capsys, "conjugate", "--algebra", "heis3",
                       "--z0", "1", "--json")
    assert code == 0
    rows = json_out(out)
    assert isinstance(rows, list)
    assert [round(r["t"], 4) for r in rows] == [6.2832, 12.5664]
    assert [r["mult"] for r in rows] == [2, 2]
    assert all(r["branch"] == "lattice" for r in rows)


def test_conjugate_mixed_table(capsys):
    code, out, _ = run(capsys, "conjugate", "--algebra", "pheis3",
                       "--z0", "1", "--x0", "1,0", "--tmax", "10")
    assert code == 0
    assert "3.830016096" in out
    assert "transcendental" in out


def test_conjugate_witness_stdout(capsys):
    code, out, _ = run(capsys, "conjugate", "--algebra", "pheis3",
                       "--z0", "1", "--x0", "1,0", "--tmax", "10", "--witness")
    assert code == 0
    assert "# witness field for t = 3.830016096" in out
    block = out.split("# witness field for t = 3.830016096\n")[1]
    lines = block.strip().split("\n")
    assert lines[0] == "t,z_1,v_1,v_2"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0]
    assert "# witnesses: max endpoint" in out


def test_conjugate_json_bare_witness_serializes_nothing(monkeypatch, capsys):
    # JSON mode never prints the bare flag's CSV blocks, so it builds none
    calls = []

    def spy(field, stride=1):
        calls.append(stride)
        return serialize_field(field, stride)

    monkeypatch.setattr("nilconj.cli.serialize_field", spy)
    argv = ("conjugate", "--algebra", "pheis3", "--z0", "1", "--x0", "1,0", "--tmax", "10")
    code, out, _ = run(capsys, *argv, "--json", "--witness")
    assert code == 0 and calls == []
    rows = json_out(out)
    plain = json_out(run(capsys, *argv, "--json")[1])
    assert [{k: r[k] for k in ("t", "mult", "branch", "tangent")} for r in rows] == plain
    assert all(set(r) == {"t", "mult", "branch", "tangent", "witness_endpoint",
                          "witness_residual"} for r in rows)
    code, out, _ = run(capsys, *argv, "--witness")     # text mode prints one block per row
    assert code == 0 and len(calls) == len(rows) == out.count("# witness field for t =")


def test_conjugate_witness_files(tmp_path, capsys):
    prefix = str(tmp_path / "wit")
    code, out, _ = run(capsys, "conjugate", "--algebra", "heis3",
                       "--z0", "1", "--json", "--witness", prefix)
    assert code == 0
    rows = json_out(out)
    assert len(rows) == 2
    for k, row in enumerate(rows):
        assert row["witness_file"] == f"{prefix}-{k}.csv"
        text = (tmp_path / f"wit-{k}.csv").read_text()
        assert text.startswith("t,z_1,v_1,v_2")
        assert row["witness_endpoint"] < 1e-8
        assert row["witness_residual"] < 1e-6


def test_conjugate_witness_residual_at_large_rate(capsys):
    # the residual is the worst over 41 interior points of each field
    code, out, _ = run(capsys, "conjugate", "--algebra", "heis5w", "--z0", "6",
                       "--x0", "1,0.2,0.3,0.4", "--tmax", "13", "--json", "--witness")
    assert code == 0
    rows = json_out(out)
    assert len(rows) == 48
    for row in rows:
        assert row["witness_endpoint"] <= 1e-8
        assert row["witness_residual"] <= 1e-6


# draw 173 of the random-algebra probe (conftest.random_algebra, default_rng(3)):
# J has the rotating rate 0.498 and the boosting rate 2.82
DRAW173 = json.dumps({
    "name": "draw173",
    "dim_center": 1,
    "dim_v": 5,
    "gram": np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]).tolist(),
    "brackets": [{"a": 1, "b": 2, "out": [-0.04642735433419728]},
                 {"a": 1, "b": 3, "out": [-2.6173164194237817]},
                 {"a": 1, "b": 4, "out": [0.4586703067977707]},
                 {"a": 2, "b": 4, "out": [0.46896230646529885]},
                 {"a": 3, "b": 4, "out": [-0.7107702239060719]}],
})


def test_conjugate_lattice_witness_beside_a_boosting_line(tmp_path, capsys):
    # exp(tJ) formed on the whole complement grew the rounding off the
    # rotating line by exp(2.82 t0): the witness ended at 1.4 of its maximum
    path = tmp_path / "draw173.json"
    path.write_text(DRAW173)
    code, out, _ = run(capsys, "conjugate", "--algebra", str(path), "--z0",
                       "1.0567036953465523", "--tmax", "13", "--witness", "--json")
    assert code == 0
    (row,) = json_out(out)
    assert (row["t"], row["mult"], row["branch"]) == (pytest.approx(12.6102695, abs=1e-7), 2,
                                                      "lattice")
    assert row["witness_endpoint"] <= 1e-8
    assert row["witness_residual"] <= 1e-6


def test_conjugate_unsupported_case_exits_2(capsys):
    code, _, err = run(capsys, "conjugate", "--algebra", "bicenter",
                       "--z0", "1,0", "--x0", "1,0,0")
    assert code == 2
    assert "error: UnsupportedCaseError" in err


# ---------------------------------------------------------------------------
# oracle and compare


def test_oracle_json_and_csv(tmp_path, capsys):
    out_path = tmp_path / "sigma.csv"
    code, out, _ = run(capsys, "oracle", "--algebra", "heis3", "--z0", "1",
                       "--tmax", "7", "--json", "--out", str(out_path))
    assert code == 0
    rows = json_out(out)
    assert len(rows) == 1
    assert rows[0]["t"] == pytest.approx(2.0 * np.pi, abs=1e-6)
    assert rows[0]["mult"] == 2
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,sigma_min"
    assert len(lines) == 7 * 256 + 2    # header + steps + 1 nodes
    t0, s0 = (float(x) for x in lines[1].split(","))
    assert t0 == 0.0 and s0 == 0.0


def test_compare_single_exit_0(capsys):
    code, out, _ = run(capsys, "compare", "--algebra", "pheis3",
                       "--z0", "1", "--x0", "1,0", "--tmax", "6")
    assert code == 0
    assert "overall: ok" in out


def test_compare_random_json(capsys):
    code, out, _ = run(capsys, "compare", "--algebra", "heis3", "--random", "3",
                       "--seed", "5", "--tmax", "5", "--json")
    assert code == 0
    doc = json_out(out)
    assert doc["ok"] is True
    assert len(doc["runs"]) == 3


def test_compare_random_runs_the_oracle_before_any_closed_form(capsys, monkeypatch):
    # one oracle pass over all eight draws returns before the first closed form
    events, stack, closed = [], nilconj.cli.detect_stack, nilconj.cli.conjugate_times

    def oracle(*args, **kwargs):
        out = stack(*args, **kwargs)
        events.append("oracle")
        return out

    def closed_forms(*args, **kwargs):
        events.append("closed" if "oracle" in events else "closed before the oracle")
        return closed(*args, **kwargs)

    monkeypatch.setattr(nilconj.cli, "detect_stack", oracle)
    monkeypatch.setattr(nilconj.cli, "conjugate_times", closed_forms)
    code, _, _ = run(capsys, "compare", "--algebra", "heis5w", "--random", "8", "--tmax", "6")
    assert code == 0
    assert events == ["oracle"] + ["closed"] * 8


@pytest.mark.parametrize("name, seed", [("heis3", 101), ("pheis3", 202), ("heis5w", 303),
                                        ("bicenter", 404)])
def test_compare_random_equals_a_loop_over_its_draws(capsys, name, seed):
    # criterion 10's runs: the stacked oracle's JSON is that of detect_conjugate,
    # conjugate_times and compare per geodesic, in the order of the draws
    code, out, _ = run(capsys, "compare", "--algebra", name, "--random", "50",
                       "--seed", str(seed), "--tmax", "6", "--json")
    alg, rng, runs = nilconj.fixture(name), np.random.default_rng(seed), []
    for _ in range(50):
        g = nilconj.cli._random_geodesic(alg, rng)
        report = nilconj.compare(nilconj.conjugate_times(g, 6.0), nilconj.detect_conjugate(g, 6.0))
        runs.append({"z0": g.z0.tolist(), "x0": g.x0.tolist(),
                     **{key: [list(m) for m in getattr(report, key)]
                        for key in ("matched", "missing", "spurious", "mult_mismatches")},
                     "ok": report.ok})
    assert code == 0
    assert json_out(out)["runs"] == runs
    assert sum(len(r["matched"]) for r in runs) > 10


def test_compare_json_worst_gap(capsys):
    code, out, _ = run(capsys, "compare", "--algebra", "pheis3", "--random", "3",
                       "--seed", "1", "--tmax", "6", "--json")
    assert code == 0
    doc = json_out(out)
    assert doc["ok"] is True
    gaps = [abs(m[0] - m[1]) for r in doc["runs"] for m in r["matched"]]
    assert gaps
    assert doc["worst_gap"] == max(gaps)
    assert doc["worst_gap"] <= DEFAULT_TOL.match_tol


def test_compare_forced_discrepancy_exit_1(capsys):
    # an absurd rank tolerance marks everything singular: spurious detections.
    code, out, err = run(capsys, "compare", "--algebra", "heis3", "--z0", "1",
                         "--tmax", "7", "--tol", "rank_tol=1e3", "--json")
    assert code == 1
    assert json_out(out)["ok"] is False
    # the echoed tolerance set is the one the oracle used
    assert "rank_tol=1000" in err


@pytest.mark.parametrize("argv", [
    ("continuation", "--x0", "1,0"),
    ("oracle", "--z0", "1", "--rank-tol", "1e3"),
    ("compare", "--z0", "1", "--rank-tol", "1e3"),
    ("validate", "--seed", "1"),
    ("spectrum", "--z0", "1", "--seed", "1"),
    ("conjugate", "--z0", "1", "--seed", "1"),
    ("oracle", "--z0", "1", "--seed", "1"),
])
def test_removed_spellings_exit_2(capsys, argv):
    # each setting has one spelling: the subcommand alias and the flags that
    # duplicated --tol or were never read are usage errors
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--algebra", "pheis3", *argv[1:]])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("conjugate", "--tmax", "-1"),
    ("conjugate", "--tmax", "0"),
    ("oracle", "--tmax", "-1"),
    ("oracle", "--steps", "10"),
    ("compare", "--steps", "10"),
    ("compare", "--tmax", "0", "--random", "2"),
    ("conjugate", "--tmax", "inf"),
    ("conjugate", "--tmax", "nan"),
    ("oracle", "--tmax", "inf"),
    ("oracle", "--tmax", "nan"),
    ("compare", "--tmax", "inf", "--random", "2"),
    ("compare", "--tmax", "nan", "--random", "2"),
    ("oracle", "--tmax", "1e7"),
    ("oracle", "--steps", "1000000000"),
    ("compare", "--tmax", "1e7"),
    ("compare", "--steps", "1000000000", "--random", "2"),
    ("compare", "--random", "0"),
    ("compare", "--random", "-3"),
    ("compare", "--random", "2", "--x0", "1,0"),
])
def test_bad_horizon_or_steps_exit_2(capsys, argv):
    # exit 1 from compare means a discrepancy; bad input must not look like one.
    # A run past the oracle's memory bound is refused before it allocates.
    # --random 0 once fell through to --z0/--x0, and --random -3 compared nothing.
    code, _, err = run(capsys, argv[0], "--algebra", "heis3", "--z0", "1", *argv[1:])
    assert code == 2
    assert "error: ParseError" in err


@pytest.mark.parametrize("argv, what", [
    (("--z0", "5", "--x0", "1,0"), "--z0"),
    (("--z0", "5"), "--z0"),
    (("--x0", "1,0"), "--x0"),
    (("--tmax", "0"), "t_max"),
    (("--tmax", "inf"), "t_max"),
    (("--tmax", "nan"), "t_max"),
    (("--tmax", "1e7"), "memory bound"),
    (("--steps", "10"), "steps"),
    (("--steps", "1000000000"), "memory bound"),
])
def test_compare_random_refusals_exit_2(capsys, argv, what):
    # --random draws its own geodesics, so --z0 and --x0 are refused rather
    # than ignored; without them the oracle's own refusals still come first
    code, out, err = run(capsys, "compare", "--algebra", "heis3", "--random", "2", *argv)
    assert code == 2 and out.startswith("# tolerances:") and "run " not in out
    assert "error: ParseError" in err and what in err


@pytest.mark.parametrize("x0", ["0,0", "0.3,1"])
def test_lattice_horizon_bound_exit_2(capsys, x0):
    # 1.6e11 lattice times, one float each, would be built before anything else
    code, _, err = run(capsys, "conjugate", "--algebra", "heis3", "--z0", "1", "--x0", x0,
                       "--tmax", "1e12")
    assert code == 2
    assert "error: ParseError" in err and "lattice times" in err


def test_cplx_long_horizon_draw_exits_0(tmp_path, capsys):
    # a CPLX draw (default_rng(5), the second) whose matrix-form phi1 solve
    # went singular at t_max 20; the series matches the oracle
    path = tmp_path / "cplx.json"
    path.write_text(CPLX)
    code, out, err = run(capsys, "compare", "--algebra", str(path),
                         "--z0", "1.4991761150650715",
                         "--x0=0.16925186492508576,-0.7652751888713364,"
                         "-0.5945994830625585,0.992805037490792", "--tmax", "20")
    assert code == 0
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# locus and continuation


def test_locus_z_mode_json(capsys):
    code, out, _ = run(capsys, "locus", "--algebra", "pheis3",
                       "--x0", "1,0", "--json")
    assert code == 0
    rows = json_out(out)
    assert len(rows) == 1
    assert rows[0]["t"] == pytest.approx(2.0 * SQ3)
    assert rows[0]["point"] == pytest.approx([0.0, 2.0 * SQ3, 0.0], abs=1e-12)


def test_locus_grid_skips_empty(capsys):
    # heis3 has no straight conjugate points at all
    code, out, _ = run(capsys, "locus", "--algebra", "heis3", "--grid", "8", "--json")
    assert code == 0
    assert json_out(out) == []


def test_locus_tube_mode_csv(tmp_path, capsys):
    out_path = tmp_path / "tube.csv"
    code, out, _ = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube",
                       "--x0", "1,0", "--amax", "0.2", "--num", "4",
                       "--out", str(out_path))
    assert code == 0
    assert "wrote 9 samples" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "a,t,delta,point_1,point_2,point_3"
    assert len(lines) == 10


def test_locus_tube_requires_x0(capsys):
    code, _, err = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube")
    assert code == 2
    assert "error: ParseError" in err


@pytest.mark.parametrize("argv", [
    ("--grid", "-1"),
    ("--grid", "0"),
    ("--mode", "tube", "--x0", "1,0", "--amax", "nan"),
    ("--mode", "tube", "--x0", "1,0", "--amax", "inf"),
    ("--mode", "tube", "--x0", "nan,1"),
])
def test_locus_bad_input_exit_2(capsys, argv):
    # each of these once ended in a numpy traceback (exit 1), or in RootLostError for a nan x0
    code, _, err = run(capsys, "locus", "--algebra", "pheis3", *argv)
    assert code == 2
    assert "error: ParseError" in err


def test_continuation_obj_export(tmp_path, capsys):
    out_path = tmp_path / "tube.obj"
    code, out, _ = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube",
                       "--x0", "1,0", "--num", "2", "--format", "obj",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 5


def test_continuation_json_track(capsys):
    code, out, _ = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube",
                       "--x0", "1,0", "--amax", "0.2", "--num", "2", "--json")
    assert code == 0
    rows = json_out(out)
    assert [round(r["a"], 10) for r in rows] == [-0.2, -0.1, 0.0, 0.1, 0.2]
    mid = rows[2]
    assert mid["t"] == pytest.approx(2.0 * SQ3, rel=1e-12)
    for r in rows:
        assert abs(r["t"] - 2.0 * SQ3) <= 0.5 * r["a"] ** 2 + 1e-12


def test_locus_tube_grid_is_sign_symmetric(capsys):
    # a linspace grid put a 6.9e-18 tilt in the middle of this tube
    code, out, _ = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube",
                       "--x0", "1,0", "--amax", "0.06", "--num", "7", "--json")
    assert code == 0
    rows = json_out(out)
    assert len(rows) == 15 and rows[7]["a"] == 0.0
    for lo, hi in zip(rows[:7], rows[:7:-1]):
        assert lo["a"] == -hi["a"]
        assert lo["t"] == hi["t"]
    code, _, err = run(capsys, "locus", "--algebra", "pheis3", "--mode", "tube",
                       "--x0", "1,0", "--num", "0")
    assert code == 2 and "error: ParseError" in err


# ---------------------------------------------------------------------------
# tolerance plumbing


def test_tol_override_accepted(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "heis3",
                       "--tol", "rank_tol=1e-7")
    assert code == 0
    assert "rank_tol=1e-07" in out


def test_tol_override_unknown_key_exits_2(capsys):
    # fd_step, integer_rel and block_det_rel were tolerances once; the witness
    # grid step now follows from J, lattice times meet by the merge_rel band,
    # and rank_rel decides a singular Gram block
    for pair in ("bogus=1", "fd_step=1e-3", "integer_rel=1e-9", "block_det_rel=1e-10"):
        code, _, err = run(capsys, "validate", "--algebra", "heis3", "--tol", pair)
        assert code == 2
        assert "unknown tolerance" in err


@pytest.mark.parametrize("pair", ["cluster_rel=inf", "match_tol=-1", "rank_rel=nan"])
def test_tol_override_out_of_range_exits_2(capsys, pair):
    # once read as they came: cluster_rel=inf tagged 2 pi and 4 pi
    # transcendental, match_tol=-1 listed every time as missing and spurious,
    # and rank_rel=nan had x0 pair with the empty ker J
    code, out, err = run(capsys, "compare", "--algebra", "heis3", "--z0", "1",
                         "--x0", "1,0", "--tmax", "13", "--tol", pair)
    assert code == 2 and out == ""
    assert "error: ParseError" in err and pair.partition("=")[0] in err


def test_tol_override_bad_value_exits_2(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "heis3",
                       "--tol", "rank_tol=abc")
    assert code == 2
    assert "error: ParseError" in err


def _fresh_interpreter(script: str) -> list[str]:
    """stdout words of script run in a fresh interpreter with this nilconj on its path."""
    src = str(pathlib.Path(nilconj.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_and_compare_leave_scipy_unloaded():
    # scipy loads only in image_membership, not with nilconj, the CLI or the
    # oracle; in a fresh interpreter
    script = ("import contextlib, io, sys\n"
              "import nilconj, nilconj.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = nilconj.cli.main(['compare', '--algebra', 'heis3', '--random', '2',"
              " '--tmax', '6'])\n"
              "print(code, 'scipy' in sys.modules)\n")
    assert _fresh_interpreter(script) == ["0", "False"]


def test_witnesses_without_a_transcendental_time_leave_scipy_unloaded():
    # a lattice-only and a polynomial-only geodesic's witnesses and their residual
    # checks take no scipy exponential; a mixed one then loads scipy for its
    # transcendental preimage (image_membership), in one fresh interpreter
    runs = [["--algebra", "heis3", "--z0", "1"], ["--algebra", "pheis3", "--x0", "1,0"],
            ["--algebra", "heis5w", "--z0", "3", "--x0", "1,0.2,0.3,0.4"]]
    script = ("import contextlib, io, sys\n"
              "import nilconj.cli\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = nilconj.cli.main(['conjugate', *argv, '--tmax', '13',"
              " '--witness', '--json'])\n"
              "    print(code, 'scipy' in sys.modules)\n")
    assert _fresh_interpreter(script) == ["0", "False", "0", "False", "0", "True"]
