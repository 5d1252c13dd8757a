import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from choosiow import GainsMatrix, reduce_unpopulated, solve
from choosiow.cli import EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main
from choosiow.market_file import ParseError, parse_market, parse_market_tables
from choosiow.solver import ConvergenceError

SYMMETRIC_MARKET = """\
# the smallest well-posed market
format_version = 1
[types.male]
man
[types.female]
woman
[gains mode=Pi]
1.0
[population]
man 100
woman 100
"""

TWO_BY_TWO_MARKET = """\
[types.male]
m1
m2
[types.female]
f1
f2
[gains mode=Pi]
1.0 0.5
2.0 1.5
[population]
m1 120
m2 80
f1 90
f2 110
"""


def write_market(tmp_path, text, name="market.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_report(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"{token} in a report is not JSON")

    return json.loads(text, parse_constant=reject)


class TestParseMarket:
    def test_pi_mode(self, tmp_path):
        mf = parse_market(write_market(tmp_path, SYMMETRIC_MARKET))
        assert mf.gains_mode == "Pi"
        np.testing.assert_allclose(mf.gains, [[1.0]])
        np.testing.assert_allclose(mf.populations, [100.0, 100.0])

    def test_log_mode_exponentiates(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("mode=Pi", "mode=pi").replace(
            "[gains mode=pi]\n1.0", "[gains mode=pi]\n0.0"
        )
        mf = parse_market(write_market(tmp_path, text))
        assert mf.gains_mode == "pi"
        np.testing.assert_allclose(mf.pi_matrix, [[1.0]])

    def test_dimension_error_names_block(self, tmp_path):
        text = """\
[types.male]
a
b
[types.female]
c
[gains mode=Pi]
1.0
[population]
a 1
b 1
c 1
"""
        with pytest.raises(ParseError, match="gains"):
            parse_market(write_market(tmp_path, text))

    def test_unknown_mode(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("mode=Pi", "mode=PI")
        with pytest.raises(ParseError, match="mode"):
            parse_market(write_market(tmp_path, text))

    def test_negative_gains_rejected(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("[gains mode=Pi]\n1.0", "[gains mode=Pi]\n-1.0")
        with pytest.raises(ParseError, match="non-negative"):
            parse_market(write_market(tmp_path, text))

    def test_population_label_mismatch_reports_line(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("man 100", "stranger 100")
        with pytest.raises(ParseError, match="line"):
            parse_market(write_market(tmp_path, text))

    def test_unsupported_format_version_rejected(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("format_version = 1", "format_version = 7")
        with pytest.raises(ParseError, match="line 2: format_version '7' is not supported"):
            parse_market(write_market(tmp_path, text))

    @pytest.mark.parametrize("line", ["fromat_version = 7", "fromat_version = 1", "gains = 2"])
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys, line):
        # A misspelt format_version used to pass silently, whatever its value.
        market = write_market(tmp_path, SYMMETRIC_MARKET.replace("format_version = 1", line))
        key = line.split()[0]
        with pytest.raises(ParseError, match=f"line 2: unknown top-level key '{key}'"):
            parse_market(market)
        assert main(["solve", "--input", str(market)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    def test_c_block(self, tmp_path):
        text = SYMMETRIC_MARKET + "[c]\n0.5\n"
        mf = parse_market(write_market(tmp_path, text))
        np.testing.assert_allclose(mf.c_matrix, [[0.5]])

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_c_block_rejected(self, tmp_path, capsys, entry):
        # A NaN or infinite constant would be written as tau: [[null]].
        market = str(write_market(tmp_path, SYMMETRIC_MARKET + f"[c]\n{entry}\n"))
        assert main(["transfers", "--input", market]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "c block entries must be finite" in captured.err
        assert captured.out == ""

    def test_overflowing_log_gain_rejected(self, tmp_path, capsys):
        text = """\
[types.male]
m1
m2
[types.female]
f1
[gains mode=pi]
0.5
800
[population]
m1 10
m2 20
f1 30
"""
        market = str(write_market(tmp_path, text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--input", market]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "log gain 800.0 for (m2, f1) exceeds" in captured.err
        assert captured.out == ""

    def test_largest_log_gain_accepted(self, tmp_path):
        # exp of the bound itself is the largest finite float, with no warning.
        text = SYMMETRIC_MARKET.replace("[gains mode=Pi]\n1.0", "[gains mode=pi]\n709.782712893384")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mf = parse_market(write_market(tmp_path, text))
            assert np.isfinite(mf.pi_matrix).all()

    def test_mode_override(self, tmp_path):
        path = write_market(tmp_path, SYMMETRIC_MARKET)
        mf = parse_market(path, gains_mode_override="pi")
        assert mf.gains_mode == "pi"
        np.testing.assert_allclose(mf.pi_matrix, [[math.e]])


class TestParseMarketTables:
    def test_csv_pair(self, tmp_path):
        gains = tmp_path / "gains.csv"
        gains.write_text(",f1,f2\nm1,1.0,2.0\nm2,0.5,1.5\n", encoding="utf-8")
        pops = tmp_path / "pops.csv"
        pops.write_text(
            "side,label,count\nmale,m1,10\nmale,m2,20\nfemale,f1,30\nfemale,f2,40\n",
            encoding="utf-8",
        )
        mf = parse_market_tables(gains, pops)
        assert mf.male_types == ("m1", "m2")
        assert mf.female_types == ("f1", "f2")
        np.testing.assert_allclose(mf.populations, [10, 20, 30, 40])

    def test_missing_count(self, tmp_path):
        gains = tmp_path / "gains.csv"
        gains.write_text(",f1\nm1,1.0\n", encoding="utf-8")
        pops = tmp_path / "pops.csv"
        pops.write_text("side,label,count\nmale,m1,10\n", encoding="utf-8")
        with pytest.raises(ParseError, match="missing"):
            parse_market_tables(gains, pops)

    @pytest.mark.parametrize(
        "extra_row, message",
        [
            ("male,m1,5", "pops.csv: duplicate male row for 'm1'"),
            ("female,fx,42", "pops.csv: female label 'fx' is not in the gains table"),
            ("male,m2", "pops.csv: line 6 has no count cell"),
            ("male", "pops.csv: line 6 has no label cell"),
        ],
    )
    def test_bad_population_row_rejected(self, tmp_path, capsys, extra_row, message):
        # A second m1 row used to replace the first; an undeclared label was ignored;
        # a row with a missing cell raised TypeError or AttributeError.
        gains = tmp_path / "gains.csv"
        gains.write_text(",f1,f2\nm1,1.0,2.0\nm2,0.5,1.5\n", encoding="utf-8")
        pops = tmp_path / "pops.csv"
        pops.write_text(
            "side,label,count\nmale,m1,100\nmale,m2,20\nfemale,f1,30\nfemale,f2,40\n"
            f"{extra_row}\n",
            encoding="utf-8",
        )
        argv = ["solve", "--gains-csv", str(gains), "--populations-csv", str(pops)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestProcess:
    def test_parser_reuse_leaves_no_state(self, tmp_path, capsys):
        # One parser serves every main() call of the process: a check with its
        # own flags between two solves must not change the second solve.
        market = str(write_market(tmp_path, SYMMETRIC_MARKET))
        reports = []
        for argv in (
            ["solve", "--input", market],
            ["check", "--input", market, "--fd-step", "1e-4", "--tolerance", "1e-9",
             "--max-iter", "50"],
            ["solve", "--input", market],
        ):
            assert main(argv) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[2]
        assert load_report(reports[1])["settings"] == {
            "tolerance": 1e-9, "max_iterations": 50, "fd_step": 1e-4, "fd_tolerance": 1e-3
        }
        assert load_report(reports[2])["settings"] == {"tolerance": 1e-10, "max_iterations": 200}

    def test_no_convergence_report_is_json(self, tmp_path, capsys, monkeypatch):
        # An overflowing residual norm is written as null, not as Infinity.
        def diverge(market, opts):
            raise ConvergenceError("factorization failed", np.zeros(2), math.inf)

        monkeypatch.setattr("choosiow.cli.solve", diverge)
        market = str(write_market(tmp_path, SYMMETRIC_MARKET))
        assert main(["solve", "--input", market]) == EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        error = load_report(captured.err)["error"]
        assert error["kind"] == "no_convergence"
        assert error["residual_norm"] is None
        assert captured.out == ""

    def test_import_needs_numpy_only(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import choosiow.cli, sys; print('scipy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"


class TestReportLayout:
    @pytest.mark.parametrize(
        "command, flags, settings, blocks",
        [
            ("solve", [], [], ["equilibrium"]),
            ("statics", [], [], ["equilibrium", "statics"]),
            ("transfers", [], [], ["equilibrium", "transfers"]),
            ("whatif", ["--shock-nu", "m1=10"], ["shock_nu", "shock_pi"],
             ["baseline", "shocked", "delta"]),
            ("simulate", ["--samples", "1000"], ["seed", "samples"], ["equilibrium", "simulation"]),
            ("check", [], ["fd_step", "fd_tolerance"], ["equilibrium", "check"]),
        ],
    )
    def test_key_order(self, tmp_path, capsys, command, flags, settings, blocks):
        market = str(write_market(tmp_path, TWO_BY_TWO_MARKET))
        assert main([command, "--input", market, *flags]) == EXIT_OK
        report = load_report(capsys.readouterr().out)
        assert list(report) == ["format_version", "tool_version", "input", "settings", *blocks]
        assert list(report["settings"]) == ["tolerance", "max_iterations", *settings]

    def test_equilibrium_block_keys(self, tmp_path, capsys):
        market = str(write_market(tmp_path, TWO_BY_TWO_MARKET))
        assert main(["solve", "--input", market]) == EXIT_OK
        block = load_report(capsys.readouterr().out)["equilibrium"]
        assert list(block) == [
            "beta", "log_beta", "mu", "single_men", "single_women",
            "residual_norm", "iterations", "sweeps", "objective_value",
        ]
        assert block["sweeps"] > 0


class TestSolveCommand:
    def test_solve_symmetric_fixture(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        code = main(["solve", "--input", str(market), "--output", str(out)])
        assert code == EXIT_OK
        report = load_report(out.read_text())
        assert report["equilibrium"]["mu"][0][0] == pytest.approx(50.0, rel=1e-9)
        assert report["input"]["male_types"] == ["man"]

    def test_missing_input_is_input_error(self, capsys):
        assert main(["solve", "--input", "/does/not/exist"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_infinite_tolerance_is_input_error(self, tmp_path, capsys):
        # Accepting it would print the starting point as the equilibrium.
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        assert main(["solve", "--input", str(market), "--tolerance", "inf"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "gradient_tolerance" in captured.err
        assert captured.out == ""

    def test_report_round_trips(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        main(["solve", "--input", str(market), "--output", str(out)])
        parsed = load_report(out.read_text())
        assert load_report(json.dumps(parsed)) == parsed

    def test_zero_population_type_reembedded(self, tmp_path):
        text = """\
[types.male]
a
b
[types.female]
c
[gains mode=Pi]
1.0
2.0
[population]
a 4
b 0
c 1
"""
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["solve", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = load_report(out.read_text())
        assert report["equilibrium"]["mu"][1] == [0.0]
        assert report["equilibrium"]["single_men"][1] == 0.0
        assert report["equilibrium"]["beta"][1] is None
        assert "note" in report["equilibrium"]

    def test_zero_population_female_type_reembedded(self, tmp_path):
        # f0 is dropped: the kept women sit at offsets 0 and 2 of the female side.
        text = """\
[types.male]
m1
m2
[types.female]
f1
f0
f2
[gains mode=Pi]
1.2 0.7 0.4
0.8 3.0 2.1
[population]
m1 300
m2 150
f1 200
f0 0
f2 260
"""
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["solve", "--input", str(market), "--output", str(out)]) == EXIT_OK
        block = load_report(out.read_text())["equilibrium"]
        assert block["beta"][3] is None and block["log_beta"][3] is None
        assert [row[1] for row in block["mu"]] == [0.0, 0.0]
        assert block["single_women"][1] == 0.0

        gains = GainsMatrix([[1.2, 0.7, 0.4], [0.8, 3.0, 2.1]], ("m1", "m2"), ("f1", "f0", "f2"))
        eq = solve(reduce_unpopulated(gains, [300, 150, 200, 0, 260]))
        kept = [0, 1, 2, 4]
        assert [block["beta"][k] for k in kept] == eq.beta.tolist()
        assert [block["log_beta"][k] for k in kept] == eq.log_beta.tolist()
        assert [[row[0], row[2]] for row in block["mu"]] == eq.distribution.married.tolist()
        assert block["single_men"] == eq.distribution.single_men.tolist()
        assert [block["single_women"][j] for j in (0, 2)] == eq.distribution.single_women.tolist()


class TestStaticsAndTransfers:
    def test_statics_blocks_present(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        assert main(["statics", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = load_report(out.read_text())
        r = np.array(report["statics"]["r_matrix"])
        np.testing.assert_allclose(r, [[0.015, -0.005], [-0.005, 0.015]], rtol=1e-9)
        assert report["statics"]["spectral_radius"] == pytest.approx(1 / 9, abs=1e-10)
        assert report["statics"]["sign_check"]["mode"] == "strict"

    def test_transfers_without_c(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("\nman 100\n", "\nman 400\n")
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["transfers", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = load_report(out.read_text())
        assert "tau" not in report["transfers"]
        # 400 men, 100 women: single men outnumber single women.
        assert report["transfers"]["transfer_index"][0][0] > 0

    def test_transfers_with_c(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET + "[c]\n0.0\n")
        out = tmp_path / "report.json"
        assert main(["transfers", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = load_report(out.read_text())
        # symmetric market: transfer index 0, c = 0, so tau = 0
        assert report["transfers"]["tau"][0][0] == pytest.approx(0.0, abs=1e-12)

    def test_transfers_with_c_and_unpopulated_type(self, tmp_path):
        # m0 has no members: tau covers the kept types m1, m2 against c's rows 0 and 2.
        text = """\
[types.male]
m1
m0
m2
[types.female]
f1
f2
[gains mode=Pi]
1.2 0.4
0.8 2.1
0.5 1.5
[population]
m1 300
m0 0
m2 150
f1 200
f2 260
[c]
0.1 -0.2
0.3 0.05
-0.4 0.25
"""
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["transfers", "--input", str(market), "--output", str(out)]) == EXIT_OK
        transfers = load_report(out.read_text())["transfers"]
        index = np.array(transfers["transfer_index"])
        tau = np.array(transfers["tau"])
        assert tau.shape == index.shape == (2, 2)
        c_kept = np.array([[0.1, -0.2], [-0.4, 0.25]])
        np.testing.assert_array_equal(tau, 0.5 * (index - c_kept))

    def test_statics_boundary_on_zero_gains_row(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("man\n[types.female]", "man\nloner\n[types.female]")
        text = text.replace("[gains mode=Pi]\n1.0", "[gains mode=Pi]\n1.0\n0.0")
        text = text.replace("\nman 100\n", "\nman 100\nloner 40\n")
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["statics", "--input", str(market), "--output", str(out)]) == EXIT_OK
        statics = load_report(out.read_text())["statics"]
        assert statics["participation"]["boundary"] is True
        assert statics["sign_check"]["mode"] == "boundary"


class TestWhatif:
    def test_zero_shock_reproduces_baseline(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        code = main(
            ["whatif", "--input", str(market), "--shock-nu", "man=0", "--output", str(out)]
        )
        assert code == EXIT_OK
        report = load_report(out.read_text())
        assert report["baseline"] == report["shocked"]
        assert report["delta"]["mu"] == [[0.0]]

    def test_population_shock_direction(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        main(["whatif", "--input", str(market), "--shock-nu", "man=10", "--output", str(out)])
        report = load_report(out.read_text())
        # more men: more single men, fewer single women
        assert report["delta"]["single_men"][0] > 0
        assert report["delta"]["single_women"][0] < 0

    def test_shock_dropping_type(self, tmp_path):
        # m1 loses all 120 members: it is unpopulated in the shocked market only.
        market = write_market(tmp_path, TWO_BY_TWO_MARKET)
        out = tmp_path / "report.json"
        argv = ["whatif", "--input", str(market), "--shock-nu", "m1=-120", "--output", str(out)]
        assert main(argv) == EXIT_OK
        report = load_report(out.read_text())
        assert report["baseline"]["beta"][0] > 0
        assert report["shocked"]["beta"][0] is None
        assert report["delta"]["beta"][0] is None
        assert report["shocked"]["mu"][0] == [0.0, 0.0]
        assert report["delta"]["single_men"][0] == -report["baseline"]["single_men"][0]

    def test_bad_shock_label(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        assert main(["whatif", "--input", str(market), "--shock-nu", "nobody=1"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "shock, message",
        [
            (["--shock-nu", "m1=-1000"], "count -880.0 for m1: population counts"),
            (["--shock-pi", "m2,f1=-3"], "gain -1.0 for (m2, f1): gains entries"),
        ],
    )
    def test_negative_shock_names_type(self, tmp_path, capsys, shock, message):
        # The shocked file is validated like a parsed one, before any solve.
        market = write_market(tmp_path, TWO_BY_TWO_MARKET)
        assert main(["whatif", "--input", str(market), *shock]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestSimulate:
    def test_fixed_seed_bit_reproducible(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--input", str(market), "--seed", "7", "--samples", "20000"]
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_text() == out2.read_text()

    def test_seed_echoed(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        main(
            ["simulate", "--input", str(market), "--seed", "3", "--samples", "1000",
             "--output", str(out)]
        )
        report = load_report(out.read_text())
        assert report["simulation"]["seed"] == 3
        assert report["settings"]["seed"] == 3


class TestCheck:
    def test_random_market_passes(self, tmp_path):
        rng = np.random.default_rng(42)
        gains = rng.uniform(0.1, 3.0, size=(6, 5))
        male = [f"m{i}" for i in range(6)]
        female = [f"f{j}" for j in range(5)]
        lines = ["[types.male]", *male, "[types.female]", *female, "[gains mode=Pi]"]
        lines += [" ".join(repr(float(v)) for v in row) for row in gains]
        lines.append("[population]")
        counts = rng.uniform(10, 1000, size=11)
        for label, count in zip(male + female, counts):
            lines.append(f"{label} {float(count)!r}")
        market = write_market(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(market), "--output", str(out)])
        report = load_report(out.read_text())
        assert report["check"]["passed"], report["check"]
        assert code == EXIT_OK

    def test_failure_exit_code(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        # an absurdly tight finite-difference tolerance cannot be met
        code = main(
            ["check", "--input", str(market), "--fd-tolerance", "1e-18",
             "--output", str(tmp_path / "r.json")]
        )
        assert code == EXIT_CHECK_FAILED


class TestEstimateGains:
    def test_round_trip(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        solved = tmp_path / "solved.json"
        main(["solve", "--input", str(market), "--output", str(solved)])
        estimated = tmp_path / "estimated.json"
        code = main(["estimate-gains", "--input", str(solved), "--output", str(estimated)])
        assert code == EXIT_OK
        report = load_report(estimated.read_text())
        assert report["estimated_gains"]["Pi"][0][0] == pytest.approx(1.0, rel=1e-8)
        assert report["estimated_gains"]["pi"][0][0] == pytest.approx(0.0, abs=1e-8)

    def test_round_trip_random_market(self, tmp_path):
        rng = np.random.default_rng(43)
        gains = rng.uniform(0.2, 4.0, size=(3, 2))
        male = ["a", "b", "c"]
        female = ["x", "y"]
        lines = ["[types.male]", *male, "[types.female]", *female, "[gains mode=Pi]"]
        lines += [" ".join(repr(float(v)) for v in row) for row in gains]
        lines.append("[population]")
        for label, count in zip(male + female, rng.uniform(5, 500, size=5)):
            lines.append(f"{label} {float(count)!r}")
        market = write_market(tmp_path, "\n".join(lines) + "\n")
        solved = tmp_path / "solved.json"
        main(["solve", "--input", str(market), "--output", str(solved)])
        estimated = tmp_path / "estimated.json"
        main(["estimate-gains", "--input", str(solved), "--output", str(estimated)])
        recovered = np.array(load_report(estimated.read_text())["estimated_gains"]["Pi"])
        np.testing.assert_allclose(recovered, gains, rtol=1e-8)

    def test_rejects_non_report(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        assert main(["estimate-gains", "--input", str(bogus)]) == EXIT_INPUT
