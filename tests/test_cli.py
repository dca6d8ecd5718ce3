import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from modeguide.cli import MAX_SWEEP_POINTS, _parse_range, _switch, main
from modeguide.records import RunRecord

from conftest import GEOMETRIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


def notes(text):
    return [l[2:] for l in text.strip().splitlines() if l.startswith("# ")]


def test_single_reports_bound_states(capsys):
    code, out, _ = run(capsys, "single", "--a", "2", "--modes", "24")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) >= 1
    for row in rows:
        assert 0.25 < float(row["lambda"]) < 1.0


def test_single_rejects_bad_width(capsys):
    code, _, err = run(capsys, "single", "--a", "-1")
    assert code == 2
    assert "a > 0" in err


def test_single_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "single", "--a", "1", "--modes", "16",
                       "--format", "json", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["parity"] == "even"
    record = RunRecord.from_json((tmp_path / "single.record.json").read_text())
    assert record.command == "single"
    assert record.config["a"] == 1.0
    clone = RunRecord.from_json(record.to_json())
    assert clone == record


def test_physical_units_reported_when_rescaled(capsys):
    code, out, _ = run(capsys, "single", "--a", "2", "--d", str(2 * math.pi), "--modes", "16")
    assert code == 0
    rows = parse_csv(out)
    assert "lambda_phys" in rows[0]
    for row in rows:
        assert float(row["lambda_phys"]) == pytest.approx(float(row["lambda"]) / 4.0, rel=1e-15)


def test_split_sweep_and_fit(capsys):
    code, out, _ = run(capsys, "split", "--a", "1", "--l", "4:6:1", "--modes", "20")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["l"]) for r in rows] == [4.0, 5.0, 6.0]
    for row in rows:
        assert float(row["delta_plus"]) > 0.0 and float(row["delta_minus"]) > 0.0
        assert float(row["lambda_plus"]) < float(row["lambda_minus"])
    assert any(n.startswith("fitted rate") for n in notes(out))


def test_split_requires_sane_range(capsys):
    code, _, err = run(capsys, "split", "--a", "1", "--l", "6:4:1")
    assert code == 2
    code, _, err = run(capsys, "split", "--a", "3", "--l", "2:4:1")
    assert code == 2


def test_single_refine_column(capsys):
    code, out, _ = run(capsys, "single", "--a", "1", "--modes", "20", "--refine")
    assert code == 0
    row = parse_csv(out)[0]
    # the ladder value is pinned against the finite-difference oracle
    assert abs(float(row["lambda_refined"]) - 0.858857) < 1e-3
    assert float(row["refine_error"]) > 0.0


@pytest.mark.parametrize("a, index, parity", [("2.255", 2, "odd"), ("4.065", 3, "even")])
def test_single_refine_leaves_a_state_unbound_at_a_later_rung_blank(capsys, a, index, parity):
    # the top state is bound at N = 40 but not at N = 80: its refined cells stay
    # empty, a note names it, and every other row keeps its refined value
    code, out, err = run(capsys, "single", "--a", a, "--refine")
    assert code == 0 and not err
    rows = parse_csv(out)
    top = rows[index - 1]
    assert (top["index"], top["parity"]) == (str(index), parity) and float(top["lambda"]) > 0.9999
    assert top["lambda_refined"] == top["refine_error"] == ""
    assert notes(out) == [f"no bound state at N = 80 for index {index}"]
    assert all(float(r["lambda_refined"]) < 0.7 for r in rows if r is not top)
    _, plain, _ = run(capsys, "single", "--a", a)
    assert [r["lambda"] for r in parse_csv(plain)] == [r["lambda"] for r in rows]
    code, out, _ = run(capsys, "single", "--a", a, "--refine", "--format", "json")
    row = json.loads(out)["rows"][index - 1]
    assert code == 0 and row["lambda_refined"] is None and row["refine_error"] is None


def test_single_lists_a_state_within_1e_6_of_the_threshold(capsys):
    # a = 2.2497 is above a_1 = 2.24939 of N = 40: the odd state has kappa1 = 2.4e-4
    code, out, _ = run(capsys, "single", "--a", "2.2497")
    rows = parse_csv(out)
    assert code == 0 and [r["parity"] for r in rows] == ["even", "odd"]
    assert 1.0 - 1e-6 < float(rows[1]["lambda"]) < 1.0


def test_split_fits_against_canonical_separation(capsys):
    _, canon, _ = run(capsys, "split", "--a", "1", "--l", "4:7:1", "--modes", "12")
    code, out, _ = run(capsys, "split", "--a", "2", "--l", "8:14:2", "--modes", "12",
                       "--d", TWO_PI)
    assert code == 0

    def rates(text):
        return [n for n in notes(text) if n.startswith(("predicted", "fitted"))]

    assert rates(out) and rates(out) == rates(canon)
    assert "rates are per canonical half-separation l*pi/d = 0.5*l" in notes(out)
    assert not any("half-separation" in n for n in notes(canon))
    assert ([r["delta_predicted"] for r in parse_csv(out)]
            == [r["delta_predicted"] for r in parse_csv(canon)])


def test_split_jobs_deterministic(capsys):
    argv = ("split", "--a", "1", "--l", "4:6:1", "--modes", "12")
    _, seq, _ = run(capsys, *argv)
    _, par, _ = run(capsys, *argv, "--jobs", "2")
    assert seq == par


def test_split_outputs_are_deterministic(capsys, tmp_path):
    argv = ("split", "--a", "1", "--l", "4:5:1", "--modes", "16")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code3 == 0
    assert (tmp_path / "split.csv").read_text() == out1
    assert (tmp_path / "split_plot.py").exists()
    assert (tmp_path / "split.record.json").exists()


def test_split_leaves_an_empty_odd_sector_blank(capsys):
    # windows this close hold no odd bound state: its cells stay empty, a note
    # names the l, and the other rows are as in a sweep of their own
    code, out, _ = run(capsys, "split", "--a", "1", "--l", "1.2:1.3:0.1", "--modes", "20")
    assert code == 0
    empty, full = parse_csv(out)
    assert empty["lambda_minus"] == empty["delta_minus"] == ""
    assert float(empty["lambda_plus"]) < 1.0 and float(empty["delta_plus"]) > 0.0
    assert "no odd bound state at l = 1.2" in notes(out)
    _, alone, _ = run(capsys, "split", "--a", "1", "--l", "1.3", "--modes", "20")
    assert parse_csv(alone) == [full] and "no odd" not in alone
    code, out, _ = run(capsys, "split", "--a", "1", "--l", "1.2", "--modes", "20", "--format", "json")
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["lambda_minus"] is None and row["delta_minus"] is None


def test_critical_reports_resonance(capsys):
    code, out, _ = run(capsys, "critical", "--n", "1", "--modes", "24")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["a"]) > 0.0
    assert float(rows[0]["beta"]) != 0.0
    mu_b, mu_i = float(rows[0]["mu_beta"]), float(rows[0]["mu_integral"])
    # raw base-truncation agreement; the extrapolated comparison in the
    # acceptance suite reaches 1e-3
    assert abs(mu_b - mu_i) / mu_b < 2e-2
    assert "sqrt(3)" in rows[0]["kappa_formula"]


def test_critical_validates_count(capsys):
    code, _, _ = run(capsys, "critical", "--n", "0")
    assert code == 2


def test_threshold_requires_critical_width(capsys):
    code, _, err = run(capsys, "threshold", "--a", "1.0", "--l", "4:5:1", "--modes", "16")
    assert code == 4
    assert "critical" in err


def test_threshold_sweep(capsys):
    code, out, _ = run(capsys, "threshold", "--n", "1", "--l", "4:5:0.5", "--modes", "24")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert 0.0 < float(row["kappa"]) < 1e-3
        assert float(row["gap"]) == pytest.approx(float(row["kappa"]) ** 2, rel=1e-12)
    assert any(n.startswith("fitted rate") for n in notes(out))


def test_threshold_exhausted_scan_is_non_convergence(capsys):
    code, _, err = run(capsys, "threshold", "--n", "9", "--l", "4:5:1", "--modes", "16")
    assert code == 3
    assert "critical widths" in err


def test_threshold_below_the_kappa_floor_names_the_searched_window(capsys):
    # kappa(l = 10) = 1.1e-13, so at l = 10.25 the bound state lies below the floor
    # the rows resolved before l = 10.25 are printed as a sweep ending at l = 10 would print them
    code, out, err = run(capsys, "threshold", "--n", "1", "--l", "9.5:10.5:0.25")
    assert code == 3 and out == run(capsys, "threshold", "--n", "1", "--l", "9.5:10:0.25")[1]
    assert [float(r["l"]) for r in parse_csv(out)] == [9.5, 9.75, 10.0]
    assert "1e-13" in err and "l=10.25" in err


def test_threshold_deterministic(capsys):
    argv = ("threshold", "--n", "1", "--l", "4:4.5:0.5", "--modes", "16")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("argv, most", [
    (("threshold", "--n", "1", "--l", "3:6:0.5"), 55),
    (("split", "--a", "1", "--l", "4:10:2"), 66),
    (("single", "--a", "1", "--refine"), 22),
], ids=["threshold", "split", "single-refine"])
def test_a_sweep_builds_at_most_its_pinned_forms(capsys, monkeypatch, argv, most):
    # trace forms of a whole sweep at N = 40, counts and polish: a polish stops at the first
    # point where det Z is rounding or once Brent's step is inside the tolerance, and these
    # counts pin that work (95 and 73 forms where every polish ended on a certified bracket).
    # --refine adds the ladders' rungs at N = 80 and 160, which count the sector end that
    # their root is indexed from only where their window does not fix its count (24 forms
    # where every rung counted it)
    from modeguide import matching
    monkeypatch.delenv("MODEGUIDE_CACHE", raising=False)
    forms = []
    real = matching.trace_form
    monkeypatch.setattr(matching, "trace_form", lambda *args: forms.append(args) or real(*args))
    assert run(capsys, *argv)[0] == 0
    assert 0 < len(forms) <= most


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "1", "--h", "0.125", "--L", "8", "--k", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4  # two parities, two eigenvalues each
    even_rows = [r for r in rows if r["parity"] == "even"]
    assert float(even_rows[0]["lambda_extrapolated"]) < 1.0
    assert float(even_rows[0]["error_bound"]) > 0.0


@pytest.mark.parametrize("separation", [(), ("--l", "4")])
def test_oracle_finds_every_mode_of_a_windowless_grid(capsys, separation):
    # a = 1/16 leaves the odd kind no window node on the coarse grid h = 1/16:
    # its spectrum is separable, and a missed mode there shows as a large bound;
    # two such windows hold one node, at x1 = L/2, which half the x1 modes miss
    code, out, _ = run(capsys, "oracle", "--a", "0.0625", *separation, "--h", "0.03125",
                       "--L", "8", "--k", "4")
    assert code == 0
    odd = [r for r in parse_csv(out) if r["parity"] == "odd"]
    assert len(odd) == 4
    assert all(float(r["error_bound"]) < 1e-2 for r in odd)


def test_oracle_takes_one_half_separation(capsys):
    code, out, err = run(capsys, "oracle", "--a", "1", "--l", "3:5", "--h", "0.125")
    assert code == 2 and not out and "--l" in err
    assert main(["oracle", "--help"]) == 0
    assert "range" not in capsys.readouterr().out


def test_oracle_grid_alignment_error(capsys):
    code, _, err = run(capsys, "oracle", "--a", "0.33", "--h", "0.125", "--L", "8")
    assert code == 2
    assert "grid step" in err


def test_oracle_alignment_error_names_the_given_step(capsys):
    # a = 1.0625 sits on h = 1/16 but not on 2h, the coarse grid of the extrapolation
    code, out, err = run(capsys, "oracle", "--a", "1.0625", "--h", "0.0625", "--L", "8")
    assert code == 2 and not out
    assert "--h 0.0625" in err and "2h = 0.125" in err


@pytest.mark.parametrize("argv, names", [
    (("--h", "0.0625", "--k", "2", "--d", "0.14"), ("--h 0.0625", "2h = 0.125", "d = 0.14")),
    (("--a", "2.5", "--h", "1.25", "--L", "10", "--k", "1"), ("--h 1.25", "2h = 2.5")),
])
def test_oracle_rejects_a_grid_too_coarse_for_the_strip(capsys, argv, names):
    # the coarse grid 2h leaves one cell across the strip
    code, out, err = run(capsys, "oracle", "--a", "1", *argv)
    assert code == 2 and not out
    assert "too coarse" in err and "n2 = 1" in err and all(name in err for name in names)


def test_oracle_lengths_are_physical_when_rescaled(capsys):
    # d = 2 pi halves every length: the same grid as the canonical run below
    code, out, _ = run(capsys, "oracle", "--d", str(2 * math.pi), "--a", "2", "--h", "0.125",
                       "--L", "16", "--k", "1")
    assert code == 0
    code, canonical, _ = run(capsys, "oracle", "--a", "1", "--h", "0.0625", "--L", "8", "--k", "1")
    assert code == 0
    rows = parse_csv(out)
    assert [r["lambda_h"] for r in rows] == [r["lambda_h"] for r in parse_csv(canonical)]
    for row in rows:
        assert float(row["lambda_phys"]) == float(row["lambda_h"]) / 4.0


def test_unknown_subcommand_usage(capsys):
    code = main(["bogus"])
    assert code == 2
    code, _, err = run(capsys)
    assert code == 2


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modes = 16\na = 2\n")
    code, out, _ = run(capsys, "single", "--config", str(cfg))
    assert code == 0
    assert parse_csv(out)
    # explicit flag beats the config file
    code, out2, _ = run(capsys, "single", "--config", str(cfg), "--a", "1", "--modes", "12")
    assert code == 0
    assert out2 != out


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\njobs = 4\n")
    code, out, err = run(capsys, "single", "--config", str(cfg))
    assert code == 2
    assert "'jobs'" in err and not out


def test_config_file_switches(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nmodes = 8\nrefine = true\n")
    code, out, _ = run(capsys, "single", "--config", str(cfg))
    assert code == 0
    assert "lambda_refined" in out.splitlines()[0]
    cfg.write_text("a = 1\nmodes = 8\nrefine = no\n")
    code, out, _ = run(capsys, "single", "--config", str(cfg))
    assert code == 0 and "lambda_refined" not in out
    cfg.write_text("quick = maybe\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "'maybe'" in err and not out


@pytest.mark.parametrize("word,on", [("true", True), ("Yes", True), ("1", True),
                                     ("false", False), ("NO", False), ("0", False)])
def test_config_switch_words(word, on):
    assert _switch(word) is on


def test_config_switch_rejects_other_words():
    for word in ("maybe", "", "on", "2"):
        with pytest.raises(ValueError):
            _switch(word)


def test_oracle_record_holds_only_oracle_flags(capsys, tmp_path):
    code, _, _ = run(capsys, "oracle", "--a", "1", "--h", "0.125", "--L", "8", "--k", "1",
                     "--out", str(tmp_path))
    assert code == 0
    record = RunRecord.from_json((tmp_path / "oracle.record.json").read_text())
    assert "modes" not in record.provenance and "tol" not in record.provenance
    assert record.provenance["h"] == 0.125 and "modes" not in record.config


@pytest.mark.parametrize("argv", [
    ("single", "--a", "1", "--modes", "12", "--tol", "1e-3"),
    ("critical", "--n", "1", "--modes", "12", "--tol", "1e-3"),
])
def test_single_and_critical_reject_root_failing_the_residual_gate(capsys, argv):
    # a coarse bracketing tolerance stops far from the root, where the kernel residual
    # fails the gate (test_solve.py); the run rejects such a tol before any solve
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "residual gate" in err and not out


TWO_PI = repr(2 * math.pi)


def test_critical_reports_physical_widths(capsys):
    _, canon, _ = run(capsys, "critical", "--n", "1", "--modes", "16")
    code, out, _ = run(capsys, "critical", "--n", "1", "--modes", "16", "--d", TWO_PI)
    assert code == 0
    (row,), (ref,) = parse_csv(out), parse_csv(canon)
    assert "a_phys" not in ref
    assert row["a"] == ref["a"]
    assert float(row["a_phys"]) == pytest.approx(2.0 * float(row["a"]), rel=1e-15)
    code, _, err = run(capsys, "critical", "--n", "1", "--d", "-1")
    assert code == 2 and "d > 0" in err


def test_threshold_honours_strip_width(capsys):
    _, canon, _ = run(capsys, "threshold", "--n", "1", "--l", "4:4.5:0.5", "--modes", "16")
    code, out, _ = run(capsys, "threshold", "--n", "1", "--l", "8:9:1", "--modes", "16",
                       "--d", TWO_PI)
    assert code == 0
    rows, ref = parse_csv(out), parse_csv(canon)
    assert [(r["l"], r["kappa"]) for r in rows] == [(r["l"], r["kappa"]) for r in ref]
    assert [float(r["l_phys"]) for r in rows] == [8.0, 9.0]
    for row in rows:
        assert float(row["kappa_phys"]) == float(row["kappa"]) / 2.0
    # --a is a physical width too: twice the canonical critical width passes
    a1 = [n.split("= ")[1].split(" ")[0] for n in notes(canon) if n.startswith("critical width")][0]
    code, _, _ = run(capsys, "threshold", "--n", "1", "--l", "8:8:1", "--modes", "16",
                     "--d", TWO_PI, "--a", repr(2.0 * float(a1)))
    assert code == 0
    code, _, _ = run(capsys, "threshold", "--n", "1", "--l", "8:8:1", "--modes", "16",
                     "--d", TWO_PI, "--a", a1)
    assert code == 4


def test_verify_runs_at_the_requested_truncation(capsys, monkeypatch):
    from modeguide import Truncation, cli
    seen = []

    def fake_run_acceptance(quick=False, trunc=Truncation(40)):
        seen.append(trunc)
        return []

    monkeypatch.setattr(cli, "run_acceptance", fake_run_acceptance)
    assert run(capsys, "verify", "--modes", "8")[0] == 0
    assert run(capsys, "verify")[0] == 0
    assert seen == [Truncation(8), Truncation(40)]


@pytest.mark.parametrize("argv", [
    ("verify", "--tol", "1e-10"),
    ("verify", "--d", "2"),
    ("verify", "--format", "json"),
    ("single", "--a", "1", "--jobs", "2"),
    ("critical", "--a", "1"),
    ("critical", "--jobs", "2"),
    ("threshold", "--l", "4:5:1", "--jobs", "2"),
    ("oracle", "--a", "1", "--modes", "16"),
    ("oracle", "--a", "1", "--tol", "1e-10"),
])
def test_flags_a_subcommand_cannot_honour_are_rejected(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_split_rejects_jobs_below_one(capsys, tmp_path):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "split", "--a", "1", "--l", "4:5:1", "--jobs", jobs)
        assert code == 2 and "--jobs >= 1" in err and not out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nl = 4:5:1\njobs = -3\n")
    assert run(capsys, "split", "--config", str(cfg))[0] == 2


def test_split_pool_never_exceeds_the_sweep_points(capsys, monkeypatch):
    from modeguide import cli
    sizes = []

    class SerialPool:
        # records the pool size and maps in this process: no worker is started
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ("split", "--a", "1", "--modes", "8")
    _, seq, _ = run(capsys, *argv, "--l", "4:5:1")
    code, par, _ = run(capsys, *argv, "--l", "4:5:1", "--jobs", "64")
    assert code == 0 and par == seq
    assert sizes == [2]
    # one point needs no pool at all
    assert run(capsys, *argv, "--l", "4", "--jobs", "64")[0] == 0
    assert sizes == [2]


@pytest.mark.parametrize("argv", [
    ("split", "--a", "1", "--l", "4:inf"),
    ("threshold", "--l", "4:nan:1"),
    ("split", "--a", "1", "--l", "inf"),
])
def test_ranges_with_non_finite_parts_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "finite" in err and not out


@pytest.mark.parametrize("argv", [
    ("single", "--a", "1", "--modes", "8", "--refine"),
    ("split", "--a", "1", "--l", "4:6:1", "--modes", "8"),
    ("oracle", "--a", "1", "--h", "0.125", "--L", "8", "--k", "1"),
])
def test_sidecar_config_replays_as_a_config_file(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 0
    record = RunRecord.from_json((tmp_path / "run" / f"{argv[0]}.record.json").read_text())
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in record.config.items()))
    code, replay, _ = run(capsys, argv[0], "--config", str(cfg))
    assert code == 0
    assert replay == out


def test_config_file_values_go_through_the_parser(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nformat = xml\n")
    code, out, err = run(capsys, "single", "--config", str(cfg))
    assert code == 2 and "invalid choice: 'xml'" in err and not out
    assert run(capsys, "single", "--a", "1", "--format", "xml")[0] == 2
    cfg.write_text("a = 1\nconfig = other.cfg\n")
    code, out, err = run(capsys, "single", "--config", str(cfg))
    assert code == 2 and "'config'" in err and not out
    code, out, err = run(capsys, "single", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and "missing.cfg" in err and not out


def test_one_parser_serves_every_call_alike(capsys):
    # the parser is built once per process; a call leaves nothing in it for
    # the next, so subcommands run back to back print what each prints alone
    from modeguide.cli import _build_parser
    assert _build_parser() is _build_parser()
    argvs = [("single", "--a", "2", "--modes", "8", "--format", "json"),
             ("critical", "--n", "1", "--modes", "8"),
             ("single", "--a", "1", "--modes", "8")]
    in_turn = [run(capsys, *argv) for argv in argvs]
    alone = []
    for argv in argvs:
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert in_turn == alone and all(code == 0 for code, _, _ in alone)


@contextlib.contextmanager
def deadline(seconds):
    # SIGALRM interrupts a Python-level loop that never returns
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("argv", [
    ("critical", "--n", "1", "--modes", "8", "--tol", "-1"),   # a bisection to width -1 never ends
    ("threshold", "--n", "1", "--l", "3:4", "--modes", "8", "--tol", "0"),
    ("single", "--a", "1", "--modes", "8", "--tol", "nan"),   # nan < 1e-14 is false
    ("single", "--a", "1", "--modes", "8", "--refine", "--tol", "1e-15"),
    ("split", "--a", "1", "--l", "4:5", "--modes", "8", "--tol", "-1"),
])
def test_unresolvable_tolerances_exit_2_promptly(capsys, argv):
    with deadline(5):
        code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "tol" in err or "tolerance" in err


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        return main(list(argv)), err.getvalue()


_TOL_COMMANDS = [("single", "--a", "1"), ("split", "--a", "1", "--l", "4:6:1"),
                 ("critical", "--n", "3"), ("threshold", "--n", "1", "--l", "3:4")]


@given(tol=st.floats(1e-14, 1e-6), geometry=GEOMETRIES, modes=st.sampled_from(["12", "40"]))
@example(tol=1e-6, geometry=(2.0, 5.0), modes="40")
@settings(max_examples=30, deadline=None)
def test_every_tolerance_up_to_the_bound_passes_the_residual_gate(tol, geometry, modes):
    # 1e-6 is the largest tol whose roots the kernel residual gate (1e-8) admits on every
    # geometry: each root is polished to tol / 10, and its residual stays below tol / 130
    a, l = geometry
    for argv in (("single", "--a", repr(a)), ("split", "--a", repr(a), "--l", f"{l!r}:{l!r}:1"),
                 ("critical", "--n", "3")):
        code, err = _quiet([*argv, "--modes", modes, "--tol", repr(tol)])
        assert code == 0, (argv, err)


@given(command=st.sampled_from(_TOL_COMMANDS), tol=st.floats(1e-6, 1e300, exclude_min=True))
@example(command=_TOL_COMMANDS[0], tol=math.nextafter(1e-6, 1.0))
@settings(max_examples=40, deadline=None)
def test_every_tolerance_above_the_bound_exits_2_before_any_solve(command, tol):
    with deadline(5):
        code, err = _quiet([*command, "--modes", "8", "--tol", repr(tol)])
    assert code == 2 and "tolerance above 1e-6" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "--a", "1", "--l", "inf", "--h", "0.125"),   # ceil(inf) in the default --L
    ("oracle", "--a", "1", "--h", "nan"),
    ("oracle", "--a", "1", "--L", "inf", "--h", "0.125"),
    ("single", "--a", "inf"),
    ("single", "--a", "1", "--d", "nan"),
    ("split", "--a", "1", "--l", "4:6", "--tol", "inf"),
])
def test_float_flags_reject_non_finite_values(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "finite" in err and not out


def test_sweep_ranges_are_capped(capsys):
    assert len(_parse_range(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS
    for text in (f"0:{MAX_SWEEP_POINTS}:1", "0:1e6:1", "0:1e300:1e-300"):
        with pytest.raises(ValueError, match="more than"):
            _parse_range(text)
    code, out, err = run(capsys, "split", "--a", "1", "--l", "2:1e9:1")
    assert code == 2 and "more than" in err and not out


@pytest.mark.parametrize("importer, module", [
    ("modeguide.cli", "scipy.optimize"), ("modeguide.cli", "scipy.fft"),
    ("modeguide.acceptance", "scipy.sparse"), ("modeguide.fd_oracle", "scipy.sparse"),
])
def test_cli_import_leaves_scipy_optimize_unloaded(importer, module):
    # importing scipy.optimize adds about half of the CLI's start-up time
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {importer}; sys.exit(int({module!r} in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("argv, exit_code", [
    (["single", "--a", "1", "--modes", "8"], 0),
    (["split", "--a", "1", "--l", "3", "--modes", "8"], 0),
    (["critical", "--n", "1", "--modes", "8"], 0),
    (["threshold", "--n", "1", "--l", "4", "--modes", "8"], 0),
    (["oracle", "--a", "1", "--h", "0.0625", "--k", "1"], 0),
    (["verify", "--quick"], 1),   # criteria 7 and 8 fail (README, accuracy notes)
])
def test_subcommands_load_no_scipy(argv, exit_code):
    # scipy is a test dependency: no subcommand loads any of it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "MODEGUIDE_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, sys, modeguide.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = modeguide.cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == exit_code, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["single", "--a", "1", "--refine"],
    ["split", "--a", "1", "--l", "4:10:2"],
    ["oracle", "--a", "1", "--h", "0.03125", "--k", "3"],
    ["oracle", "--a", "1", "--l", "3", "--h", "0.03125", "--L", "10", "--k", "2"],
])
def test_data_output_does_not_depend_on_blas_threads(argv):
    # a threaded BLAS may sum in another order; the roots, their kernels and
    # every derived column must still print the same digits
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "MODEGUIDE_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        result = subprocess.run([sys.executable, "-m", "modeguide", *argv], timeout=120,
                                env={**env, "OPENBLAS_NUM_THREADS": threads},
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("argv, number, cap", [
    (("single", "--a", "2", "--modes", "100000"), "100000", "2048"),
    (("split", "--a", "1", "--l", "3", "--modes", "2049"), "2049", "2048"),
    (("single", "--a", "2", "--modes", "513", "--refine"), "513", "2048"),
    (("verify", "--modes", "257"), "257", "2048"),
    (("oracle", "--a", "1", "--h", "1e-300"), "inf", "2097152"),
    (("oracle", "--a", "1", "--h", "0.001"), "4.084e+07", "2097152"),
    (("oracle", "--a", "1", "--h", "0.125", "--L", "2", "--k", "100000"), "100000", "402"),
])
def test_sizing_flags_are_capped_before_any_solve(capsys, argv, number, cap):
    # every value here is rejected from the flags alone: nothing is allocated
    with deadline(5):
        code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert number in err and cap in err


def test_modes_are_capped_at_the_top_rung_of_the_ladder(capsys, monkeypatch):
    # the ladders of single --refine (N, 2N, 4N) and verify (up to 8N) end
    # at a Truncation, capped at 2048 modes: a --modes past that is refused
    # before the first solve, and the largest one allowed gets through
    from modeguide import cli
    solves = []

    def solver(name):
        def solve(*args, **kwargs):
            solves.append(name)
            return []
        return solve

    monkeypatch.setattr(cli, "find_eigenvalues", solver("single"))
    monkeypatch.setattr(cli, "run_acceptance", solver("verify"))
    for argv in (("single", "--a", "2", "--refine", "--modes", "1024"), ("verify", "--modes", "300")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "exceeds the cap of 2048" in err
    assert solves == []
    assert run(capsys, "single", "--a", "2", "--refine", "--modes", "512")[0] == 0
    assert run(capsys, "verify", "--modes", "256")[0] == 0
    assert solves == ["single", "single", "verify"]


@st.composite
def solving_argv(draw):
    """argv of a solving subcommand, drawn from its flags at small sizes."""
    command = draw(st.sampled_from(["single", "split", "critical", "threshold", "oracle"]))
    flag = lambda name, values: [f"--{name}", str(draw(values))]
    optional = lambda name, values: flag(name, values) if draw(st.booleans()) else []
    lengths = st.floats(0.05, 4.0).map(lambda x: round(x, 3))
    d = optional("d", st.sampled_from([math.pi, 0.14, 1.0, 5.0]))
    if command == "oracle":
        h = draw(st.sampled_from([1 / 16, 1 / 8, 1 / 4, 0.5, 1.25, 3.0]))
        a = h * draw(st.integers(1, 16))
        argv = ["--a", str(a), "--h", str(h), *flag("k", st.integers(1, 4)), *d,
                *optional("end", st.sampled_from(["dirichlet", "neumann"]))]
        if draw(st.booleans()):
            argv += ["--l", str(a + h * draw(st.integers(0, 24)))]
        return ["oracle", *argv, *optional("L", st.integers(1, 12))]
    modes = flag("modes", st.integers(4, 20))
    if command == "single":
        return ["single", *flag("a", lengths), *modes, *d]
    if command == "critical":
        return ["critical", *flag("n", st.integers(1, 2)), *modes, *d]
    start = draw(lengths)
    sweep = [f"{start}:{start + draw(st.floats(0.0, 2.0)):.3f}:1"] if draw(st.booleans()) else [str(start)]
    if command == "split":
        return ["split", *flag("a", lengths), "--l", *sweep, *modes, *d]
    return ["threshold", *flag("n", st.integers(1, 2)), "--l", *sweep, *modes, *d]


@example(["oracle", "--a", "1", "--h", "0.0625", "--k", "2", "--d", "0.14"])
@example(["split", "--a", "1", "--l", "1.2"])
@given(solving_argv())
@settings(max_examples=25, deadline=None)
def test_every_argv_exits_0_2_or_3(argv):
    # bad input exits 2 and non-convergence 3; no exception escapes main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
