import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choosiow.cli import EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_OK, main
from choosiow.market_file import ParseError, parse_market, parse_market_tables

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


def write_market(tmp_path, text, name="market.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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

    def test_c_block(self, tmp_path):
        text = SYMMETRIC_MARKET + "[c]\n0.5\n"
        mf = parse_market(write_market(tmp_path, text))
        np.testing.assert_allclose(mf.c_matrix, [[0.5]])

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
        assert json.loads(reports[1])["settings"] == {
            "tolerance": 1e-9, "max_iterations": 50, "fd_step": 1e-4, "fd_tolerance": 1e-3
        }
        assert json.loads(reports[2])["settings"] == {"tolerance": 1e-10, "max_iterations": 200}

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


class TestSolveCommand:
    def test_solve_symmetric_fixture(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        code = main(["solve", "--input", str(market), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["equilibrium"]["mu"][0][0] == pytest.approx(50.0, rel=1e-9)
        assert report["input"]["male_types"] == ["man"]

    def test_missing_input_is_input_error(self, capsys):
        assert main(["solve", "--input", "/does/not/exist"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_report_round_trips(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        main(["solve", "--input", str(market), "--output", str(out)])
        parsed = json.loads(out.read_text())
        assert json.loads(json.dumps(parsed)) == parsed

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
        report = json.loads(out.read_text())
        assert report["equilibrium"]["mu"][1] == [0.0]
        assert report["equilibrium"]["single_men"][1] == 0.0
        assert report["equilibrium"]["beta"][1] is None
        assert "note" in report["equilibrium"]


class TestStaticsAndTransfers:
    def test_statics_blocks_present(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        assert main(["statics", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        r = np.array(report["statics"]["r_matrix"])
        np.testing.assert_allclose(r, [[0.015, -0.005], [-0.005, 0.015]], rtol=1e-9)
        assert report["statics"]["spectral_radius"] == pytest.approx(1 / 9, abs=1e-10)
        assert report["statics"]["sign_check"]["mode"] == "strict"

    def test_transfers_without_c(self, tmp_path):
        text = SYMMETRIC_MARKET.replace("man 100", "man 400").replace("woman 100", "woman 100")
        market = write_market(tmp_path, text)
        out = tmp_path / "report.json"
        assert main(["transfers", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert "tau" not in report["transfers"]

    def test_transfers_with_c(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET + "[c]\n0.0\n")
        out = tmp_path / "report.json"
        assert main(["transfers", "--input", str(market), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        # symmetric market: transfer index 0, c = 0, so tau = 0
        assert report["transfers"]["tau"][0][0] == pytest.approx(0.0, abs=1e-12)


class TestWhatif:
    def test_zero_shock_reproduces_baseline(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        code = main(
            ["whatif", "--input", str(market), "--shock-nu", "man=0", "--output", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["baseline"] == report["shocked"]
        assert report["delta"]["mu"] == [[0.0]]

    def test_population_shock_direction(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        out = tmp_path / "report.json"
        main(["whatif", "--input", str(market), "--shock-nu", "man=10", "--output", str(out)])
        report = json.loads(out.read_text())
        # more men: more single men, fewer single women
        assert report["delta"]["single_men"][0] > 0
        assert report["delta"]["single_women"][0] < 0

    def test_bad_shock_label(self, tmp_path):
        market = write_market(tmp_path, SYMMETRIC_MARKET)
        assert main(["whatif", "--input", str(market), "--shock-nu", "nobody=1"]) == EXIT_INPUT


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
        report = json.loads(out.read_text())
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
        report = json.loads(out.read_text())
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
        report = json.loads(estimated.read_text())
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
        recovered = np.array(json.loads(estimated.read_text())["estimated_gains"]["Pi"])
        np.testing.assert_allclose(recovered, gains, rtol=1e-8)

    def test_rejects_non_report(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        assert main(["estimate-gains", "--input", str(bogus)]) == EXIT_INPUT
