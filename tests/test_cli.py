import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from superadd import __version__, cli, coherent, mcsim, twoshot
from superadd.capacities import c1
from superadd.coherent import optimize_r2_truncated_reused
from superadd.statespace import Angle


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def optimize_r2_calls(monkeypatch):
    """The angles of every optimize_r2 call made through twoshot; a rejected
    input must be rejected before the first."""
    calls = []
    optimize_r2 = twoshot.optimize_r2
    monkeypatch.setattr(twoshot, "optimize_r2",
                        lambda gamma: calls.append(gamma) or optimize_r2(gamma))
    return calls


class TestPoint:
    def test_orthogonal_one_shot_capacity(self, capsys):
        code, out, _ = run_cli(["point", "--gamma", "90", "--which", "c1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1.0000000000"

    def test_asymptotic_at_ten_degrees(self, capsys):
        code, out, _ = run_cli(["point", "--gamma", "10", "--which", "cinf"], capsys)
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.06440, abs=5e-5)

    def test_small_angle_rate_gain(self, capsys):
        code, r2_out, _ = run_cli(["point", "--gamma", "2", "--which", "r2"], capsys)
        assert code == 0
        lines = r2_out.splitlines()
        assert lines[1].startswith("eta = ") and lines[2].startswith("p = ")
        code, c1_out, _ = run_cli(["point", "--gamma", "2", "--which", "c1"], capsys)
        assert code == 0
        ratio = float(lines[0]) / float(c1_out.splitlines()[0])
        assert ratio == pytest.approx(1.0282, abs=1e-3)

    def test_general_probe_reports_prior_and_angles(self, capsys):
        code, out, _ = run_cli(["point", "--gamma", "30", "--which", "r2gen", "--seed", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "lower-bound probe" in lines[1]
        # past the crossover the free search falls back to the product
        # measurement, whose rate is exactly c1
        assert float(lines[0]) == pytest.approx(c1(Angle.from_degrees(30)), abs=1e-7)
        assert any(line.startswith("p_d = ") for line in lines)

    def test_negative_probe_seed_rejected(self, capsys, optimize_r2_calls):
        code, out, err = run_cli(["point", "--gamma", "10", "--which", "r2gen", "--seed", "-1"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert optimize_r2_calls == []

    def test_out_of_range_angle(self, capsys):
        code, _, err = run_cli(["point", "--gamma", "95", "--which", "r2"], capsys)
        assert code == 2
        assert "gamma" in err

    def test_rate_at_boundary_angle_rejected(self, capsys):
        code, _, _ = run_cli(["point", "--gamma", "90", "--which", "r2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("gamma", ["0", "90"])
    @pytest.mark.parametrize("which", ["r2", "r2trunc", "r2gen"])
    def test_optimizers_reject_the_ends_of_the_range(self, which, gamma, capsys):
        # the optimizers' own open-range check is the only one
        code, out, err = run_cli(["point", "--gamma", gamma, "--which", which], capsys)
        assert code == 2 and out == ""
        assert "strictly inside (0, 90)" in err

    @pytest.mark.parametrize("gamma", ["0", "90"])
    @pytest.mark.parametrize("which", ["c1", "cinf"])
    def test_capacities_accept_the_ends_of_the_range(self, which, gamma, capsys):
        code, _, _ = run_cli(["point", "--gamma", gamma, "--which", which], capsys)
        assert code == 0

    def test_repeated_calls_print_identical_output(self, capsys):
        args = ["point", "--gamma", "7", "--which", "r2"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestSweep:
    def test_two_steps_two_rows(self, tmp_path, capsys):
        out = tmp_path / "two.csv"
        code, _, _ = run_cli(
            ["sweep", "--from", "10", "--to", "20", "--steps", "2",
             "--columns", "c1,cinf", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# superadd sweep")
        assert lines[1] == "gamma_deg,c1,cinf"
        assert len(lines) == 4

    def test_columns_and_provenance_pinned(self, tmp_path, capsys):
        assert cli.SWEEP_COLUMNS == ("c1", "cinf", "ratio", "r2", "diff", "r2_over_c1",
                                     "r2trunc", "r2trunc_reused", "r2gen")
        out = tmp_path / "provenance.csv"
        run_cli(["sweep", "--from", "10", "--to", "20.5", "--steps", "2",
                 "--columns", "cinf,c1", "--out", str(out)], capsys)
        assert out.read_text().splitlines()[0] == (
            "# superadd sweep from=10 to=20.5 steps=2 columns=cinf,c1 seed=0 u_lo=0.5 "
            f"u_hi=1.5 eta_xatol=1e-08 version={__version__}")

    def test_ratio_column_strictly_decreasing(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        code, _, _ = run_cli(
            ["sweep", "--from", "1", "--to", "89", "--steps", "89",
             "--columns", "c1,cinf,ratio", "--out", str(out)], capsys)
        assert code == 0
        table = cli.read_csv(out)
        assert np.all(np.diff(table.columns["ratio"]) < 0)

    def test_rate_gap_changes_sign_around_crossover(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code, _, _ = run_cli(
            ["sweep", "--from", "10", "--to", "25", "--steps", "4",
             "--columns", "r2,c1,diff", "--out", str(out)], capsys)
        assert code == 0
        table = cli.read_csv(out)
        gamma, diff = table.gamma_deg, table.columns["diff"]
        assert np.all(diff[gamma < 18.5] > 0)
        assert np.all(diff[gamma > 20.0] < 0)

    def test_round_trip_is_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "rt.csv"
        run_cli(["sweep", "--from", "5", "--to", "30", "--steps", "6",
                 "--columns", "c1,cinf,ratio", "--out", str(out)], capsys)
        table = cli.read_csv(out)
        expected = cli.sweep_table(5, 30, 6, ["c1", "cinf", "ratio"])
        assert np.array_equal(table.gamma_deg, expected.gamma_deg)
        for name in expected.column_names:
            assert np.array_equal(table.columns[name], expected.columns[name])

    @pytest.mark.parametrize("text, message", [
        ("", "no data rows"),
        ("# superadd sweep\ngamma_deg,c1\n", "no data rows"),
        ("gamma_deg,c1\n10,0.1,0.2\n", "3 fields, the header 2"),
        ("gamma_deg,c1,cinf\n10,0.1\n", "2 fields, the header 3"),
        ("gamma_deg,c1,c1\n10,0.1,0.2\n", "repeats a column name"),
        ("x,a\n1,2\n", "bad.csv: the header starts with 'x', not gamma_deg"),
    ], ids=["empty", "header_only", "wide_row", "narrow_row", "repeated_name", "no_angle_column"])
    def test_read_csv_rejects_malformed_table(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            cli.read_csv(path)

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--from", "8", "--to", "16", "--steps", "3",
                "--columns", "r2,c1,diff"]
        run_cli(args + ["--out", str(first)], capsys)
        run_cli(args + ["--out", str(second)], capsys)
        assert first.read_bytes() == second.read_bytes()

    def test_ideal_optimum_solved_once_per_row(self, monkeypatch):
        # r2trunc_reused and r2gen read the row's r2 optimum instead of
        # solving it again
        calls = Counter()
        optimize_r2 = twoshot.optimize_r2

        def counted(gamma):
            calls[gamma.degrees] += 1
            return optimize_r2(gamma)

        for module in (twoshot, coherent):
            monkeypatch.setattr(module, "optimize_r2", counted)
        table = cli.sweep_table(2.0, 20.0, 3, ["r2", "r2trunc_reused", "r2gen"], seed=4)
        assert sorted(calls.values()) == [1, 1, 1]
        monkeypatch.undo()
        for deg, reused in zip(table.gamma_deg, table.columns["r2trunc_reused"]):
            gamma = Angle.from_degrees(deg)
            alone = optimize_r2_truncated_reused(gamma)
            assert optimize_r2_truncated_reused(gamma, ideal=optimize_r2(gamma)) == alone
            assert reused == alone.bits_per_transmission
        gamma = Angle.from_degrees(table.gamma_deg[1])
        alone = twoshot.optimize_general(gamma, seed=4)
        assert twoshot.optimize_general(gamma, seed=4, ideal=optimize_r2(gamma)) == alone
        assert table.columns["r2gen"][1] == alone.bits_per_transmission

    def test_bad_grid_arguments(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_cli(["sweep", "--from", "10", "--to", "20", "--steps", "1",
                        "--columns", "c1", "--out", out], capsys)[0] == 2
        assert run_cli(["sweep", "--from", "20", "--to", "10", "--steps", "3",
                        "--columns", "c1", "--out", out], capsys)[0] == 2
        assert run_cli(["sweep", "--from", "10", "--to", "20", "--steps", "3",
                        "--columns", "nope", "--out", out], capsys)[0] == 2
        # the ratio cinf/c1 is 0/0 at gamma = 0
        assert run_cli(["sweep", "--from", "0", "--to", "20", "--steps", "3",
                        "--columns", "c1,cinf,ratio", "--out", out], capsys)[0] == 2
        for columns in ("c1,c1,cinf", ","):  # a repeated name, no name
            assert run_cli(["sweep", "--from", "10", "--to", "20", "--steps", "3",
                            "--columns", columns, "--out", out], capsys)[0] == 2

    def test_negative_probe_seed_rejected(self, tmp_path, capsys, optimize_r2_calls):
        out = tmp_path / "seed.csv"
        code, printed, err = run_cli(["sweep", "--from", "10", "--to", "20", "--steps", "2",
                                      "--columns", "r2gen", "--out", str(out), "--seed", "-1"],
                                     capsys)
        assert code == 2 and printed == "" and not out.exists()
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert optimize_r2_calls == []

    def test_seed_is_read_only_by_the_probe(self, tmp_path, capsys):
        out = tmp_path / "r2.csv"
        code, _, err = run_cli(["sweep", "--from", "10", "--to", "20", "--steps", "2",
                                "--columns", "r2", "--out", str(out), "--seed", "-1"], capsys)
        assert code == 0 and err == "" and out.exists()

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--from", "10", "--to", "20", "--steps", "2",
             "--columns", "c1", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 4
        assert "i/o" in err


class TestCrossover:
    def test_clipped_crossover_sits_below_ideal_one(self, capsys):
        code_a, out_a, _ = run_cli(["crossover", "--which", "ansatz"], capsys)
        code_t, out_t, _ = run_cli(["crossover", "--which", "truncated"], capsys)
        assert code_a == 0 and code_t == 0
        ideal, clipped = float(out_a.strip()), float(out_t.strip())
        assert clipped < ideal
        assert ideal - clipped >= 1.0

    def test_bracketing_failure_reports_endpoints(self, capsys, monkeypatch):
        def always_above(gamma):
            return c1(gamma) + 0.01

        monkeypatch.setitem(cli.CROSSOVER_SETUPS, "ansatz", (always_above, 15.0, 25.0))
        code, _, err = run_cli(["crossover", "--which", "ansatz"], capsys)
        assert code == 3
        assert "rate-c1 at 15" in err and "rate-c1 at 25" in err


class TestMc:
    def test_quick_run_reports_verdict(self, capsys):
        code, out, _ = run_cli(["mc", "--gamma", "10", "--samples", "50000", "--seed", "1"], capsys)
        assert code == 0
        assert "analytic_mi_bits" in out
        assert "RESULT: PASS" in out

    @pytest.mark.parametrize("gamma", ["0", "90"])
    def test_ends_of_the_range_rejected(self, gamma, capsys):
        code, out, err = run_cli(["mc", "--gamma", gamma, "--samples", "10"], capsys)
        assert code == 2 and out == ""
        assert "strictly inside (0, 90)" in err

    def test_zero_samples_rejected(self, capsys, optimize_r2_calls):
        code, _, err = run_cli(["mc", "--gamma", "10", "--samples", "0", "--seed", "1"], capsys)
        assert code == 2
        assert err == "error: samples must be an integer >= 1, got 0\n"
        assert optimize_r2_calls == []

    def test_negative_seed_rejected(self, capsys, optimize_r2_calls):
        code, out, err = run_cli(["mc", "--gamma", "10", "--samples", "10", "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert optimize_r2_calls == []

    @pytest.mark.parametrize("shift, z", [(None, "-inf"), (0.0, "+0.000"), (1.0, "+inf")])
    def test_zero_spread_z_takes_the_sign_of_the_miss(self, shift, z, capsys, monkeypatch):
        # one sample: the bootstrap SE is 0, and the empirical value 0 is low
        if shift is not None:
            analytic = 2.0 * twoshot.optimize_r2(Angle.from_degrees(10)).bits_per_transmission
            monkeypatch.setattr(mcsim, "empirical_mi", lambda counts: analytic + shift)
        code, out, _ = run_cli(["mc", "--gamma", "10", "--samples", "1", "--seed", "0"], capsys)
        assert code == 0
        assert out.splitlines()[2:4] == ["bootstrap_se = 0.0000e+00", f"z = {z}"]

    def test_near_orthogonal_setup_hits_three_symbol_value(self, capsys):
        # at 89.9 deg the optimum is the noiseless three-symbol channel, so
        # the measured information per pair sits at log2(3)
        import math

        code, out, _ = run_cli(["mc", "--gamma", "89.9", "--samples", "50000", "--seed", "3"], capsys)
        assert code == 0
        analytic = float(out.splitlines()[0].split("=")[1])
        empirical = float(out.splitlines()[1].split("=")[1])
        assert analytic == pytest.approx(math.log2(3.0), abs=1e-3)
        assert empirical == pytest.approx(analytic, abs=0.02)


def run_python(*args):
    """python in a subprocess that imports the package under test, also when
    pytest alone put it on the path."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def run_module(*args):
    """python -m superadd in a subprocess (see run_python)."""
    return run_python("-m", "superadd", *args)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = run_module("point", "--gamma", "90", "--which", "cinf")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "1.0000000000"

    def test_argparse_rejects_unknown_choice(self):
        proc = run_module("point", "--gamma", "10", "--which", "bogus")
        assert proc.returncode == 2


# runs cli.main on each argv of RUNS, then prints the loaded scipy modules
LOADED_SCIPY = """\
import contextlib, io, sys
from superadd import cli
for argv in RUNS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestScipyImport:
    def test_no_command_loads_scipy(self, tmp_path):
        runs = [["point", "--gamma", "10", "--which", "r2trunc"],
                ["point", "--gamma", "30", "--which", "r2gen"],
                ["sweep", "--from", "10", "--to", "20", "--steps", "3",
                 "--columns", "r2,r2trunc,r2trunc_reused,c1,cinf,ratio,diff,r2_over_c1",
                 "--out", str(tmp_path / "sweep.csv")],
                ["sweep", "--from", "10", "--to", "20", "--steps", "2", "--columns", "r2,r2gen",
                 "--out", str(tmp_path / "probe.csv")],
                ["crossover", "--which", "truncated"],
                ["mc", "--gamma", "10", "--samples", "2000"]]
        proc = run_python("-c", LOADED_SCIPY.replace("RUNS", repr(runs)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_probe_runs_where_scipy_cannot_be_imported(self):
        # a None entry in sys.modules makes every import of scipy raise
        # ImportError, as on a host without it
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from superadd import cli\n"
                "sys.exit(cli.main(['point', '--gamma', '30', '--which', 'r2gen']))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.splitlines()[0]) > 0.0
