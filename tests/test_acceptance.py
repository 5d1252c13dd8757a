"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line,
so a plain ``pytest -v tests/test_acceptance.py -s`` doubles as a checklist.
The randomized market population is generated once per module and shared by
the criteria that quantify over "all instances".
"""

import json
import math
import time

import numpy as np
import pytest

from choosiow import (
    ChoiceModel,
    SolverOptions,
    choice_probabilities,
    equilibrium_consistency,
    finite_difference_check,
    gumbel_sample,
    initial_guess,
    participation_analysis,
    sigma_limit,
    simulate_choices,
    solve,
    spectral_diagnostic,
    statics_matrix,
    transfer_analysis,
)
from choosiow.cli import main as cli_main
from conftest import make_market, random_market

EULER_GAMMA = 0.5772156649015329
N_MARKETS = 500
RESTART_SUBSAMPLE = 50
RESTARTS = 20


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:02d} ({title}): {status}{suffix}")


@pytest.fixture(scope="module")
def suite():
    """500 randomized markets with their equilibria and total solve time."""
    rng = np.random.default_rng(20260824)
    markets = [random_market(rng, max_types=12) for _ in range(N_MARKETS)]
    start = time.perf_counter()
    equilibria = [solve(market) for market in markets]
    solve_seconds = time.perf_counter() - start
    return {
        "markets": markets,
        "equilibria": equilibria,
        "solve_seconds": solve_seconds,
        "rng": rng,
    }


@pytest.fixture(scope="module")
def suite_statics(suite):
    """Substitution reports for every market in the shared population."""
    return [statics_matrix(eq) for eq in suite["equilibria"]]


def test_criterion_01_closed_form_regression(symmetric_1x1, asymmetric_1x1):
    ok = True
    detail = []
    solve(symmetric_1x1)  # warm-up so timing excludes import costs

    start = time.perf_counter()
    eq_sym = solve(symmetric_1x1)
    ms_sym = 1e3 * (time.perf_counter() - start)
    root_fifty = math.sqrt(50.0)
    ok &= bool(np.all(np.abs(eq_sym.beta - root_fifty) <= 1e-9 * root_fifty))
    ok &= abs(eq_sym.distribution.married[0, 0] - 50.0) <= 1e-9 * 50.0

    start = time.perf_counter()
    eq_asym = solve(asymmetric_1x1)
    ms_asym = 1e3 * (time.perf_counter() - start)
    dist = eq_asym.distribution
    ok &= abs(dist.married[0, 0] - 0.8) <= 1e-9 * 0.8
    ok &= abs(dist.single_men[0] - 3.2) <= 1e-9 * 3.2
    ok &= abs(dist.single_women[0] - 0.2) <= 1e-9 * 0.2

    ok &= ms_sym < 10.0 and ms_asym < 10.0
    detail.append(f"{ms_sym:.2f} ms / {ms_asym:.2f} ms")
    _report(1, "closed-form 1x1 regression", ok, "; ".join(detail))
    assert ok


def test_criterion_02_existence_uniqueness(suite):
    equilibria = suite["equilibria"]
    markets = suite["markets"]
    rng = np.random.default_rng(7)

    converged = all(eq.iterations <= 200 for eq in equilibria)

    start = time.perf_counter()
    agree = True
    for market, reference in zip(markets[:RESTART_SUBSAMPLE], equilibria[:RESTART_SUBSAMPLE]):
        b0 = initial_guess(market.population)
        for _ in range(RESTARTS):
            restarted = solve(market, start=b0 + rng.uniform(-2.0, 2.0, size=market.size))
            agree &= bool(np.all(np.abs(restarted.beta - reference.beta) <= 1e-8))
    total_seconds = suite["solve_seconds"] + (time.perf_counter() - start)

    ok = converged and agree and total_seconds < 60.0
    _report(2, "500-market existence/uniqueness", ok, f"{total_seconds:.1f} s")
    assert ok


def test_criterion_03_market_clearing_identity(suite):
    clearing = True
    identity = True
    for market, eq in zip(suite["markets"], suite["equilibria"]):
        dist = eq.distribution
        clearing &= dist.clears(market.population, tol=1e-9)
        implied = market.gains.entries * np.outer(eq.beta[: market.n_male_types],
                                                  eq.beta[market.n_male_types:])
        identity &= bool(
            np.all(np.abs(dist.married - implied) <= 1e-9 * np.maximum(1.0, np.abs(implied)))
        )
    ok = clearing and identity
    _report(3, "market clearing and equilibrium identity", ok)
    assert ok


def test_criterion_04_substitution_structure(suite, suite_statics):
    symmetric = True
    spd = True
    signs = True
    for report in suite_statics:
        r = report.r_matrix
        symmetric &= bool(np.all(np.abs(r - r.T) <= 1e-9 * np.maximum(1.0, np.abs(r))))
        try:
            np.linalg.cholesky(r)
        except np.linalg.LinAlgError:
            spd = False
        signs &= report.sign_check.mode == "strict" and report.sign_check.passed
    ok = symmetric and spd and signs
    _report(4, "substitution matrix structure", ok)
    assert ok


def test_criterion_05_derivative_oracle():
    rng = np.random.default_rng(31)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        eq = solve(random_market(rng, max_types=5))
        fd = finite_difference_check(eq, statics_matrix(eq), step=1e-5)
        worst = max(worst, fd.max_error)
    seconds = time.perf_counter() - start
    ok = worst <= 1e-3 and seconds < 120.0
    _report(5, "analytic vs finite-difference derivatives", ok,
            f"max rel err {worst:.2e}; {seconds:.1f} s")
    assert ok


def test_criterion_06_monotone_transfers_participation(suite, suite_statics):
    analytic = True
    by_fd = True
    rel_step = 1e-4
    for market, eq, report in zip(suite["markets"], suite["equilibria"], suite_statics):
        n_men = market.n_male_types
        transfers = transfer_analysis(eq, report)
        own_transfer = transfers.transfer_derivatives[
            np.arange(n_men)[:, None], np.arange(market.n_female_types)[None, :],
            np.arange(n_men)[:, None]
        ]
        analytic &= bool(np.all(own_transfer > 0))
        analytic &= participation_analysis(eq, report).strict

        nu = market.population.counts
        gains = market.gains.entries
        for k in range(market.size):
            h = rel_step * nu[k]
            betas = []
            for sign in (1.0, -1.0):
                shifted = nu.copy()
                shifted[k] += sign * h
                betas.append(solve(make_market(gains, shifted), start=eq.log_beta).beta)
            beta_hi, beta_lo = betas
            s_hi = beta_hi[k] ** 2 / (nu[k] + h)
            s_lo = beta_lo[k] ** 2 / (nu[k] - h)
            by_fd &= s_hi > s_lo
            if k < n_men:
                index_hi = 2.0 * (np.log(beta_hi[k]) - np.log(beta_hi[n_men:]))
                index_lo = 2.0 * (np.log(beta_lo[k]) - np.log(beta_lo[n_men:]))
                by_fd &= bool(np.all(index_hi > index_lo))
    ok = analytic and by_fd
    _report(6, "transfer and participation monotonicity", ok)
    assert ok


def test_criterion_07_spectral_bound(suite, symmetric_1x1):
    below_one = True
    for eq in suite["equilibria"]:
        lam, ok_instance = spectral_diagnostic(eq)
        below_one &= ok_instance and lam < 1.0
    lam_fixture, _ = spectral_diagnostic(solve(symmetric_1x1))
    fixture_ok = abs(lam_fixture - 1.0 / 9.0) <= 1e-10
    ok = below_one and fixture_ok
    _report(7, "spectral bound below one", ok, f"1x1 fixture {lam_fixture:.12f}")
    assert ok


def test_criterion_08_random_utility_validation(symmetric_1x1, asymmetric_1x1):
    start = time.perf_counter()
    rng = np.random.default_rng(41)

    draws = gumbel_sample(rng, 1_000_000)
    moments_ok = (abs(draws.mean() - 0.5772) <= 0.005
                  and abs(draws.var() - 1.6449) <= 0.02)

    model = ChoiceModel(np.array([0.0, math.log(2.0)]))
    sim = simulate_choices(model, 1_000_000, rng)
    freq_ok = bool(np.all(np.abs(sim.frequencies - np.array([1 / 3, 2 / 3])) <= 0.005))

    consistency_ok = True
    for market in (symmetric_1x1, asymmetric_1x1):
        record = equilibrium_consistency(solve(market), 1_000_000, rng)
        consistency_ok &= record.max_divergence < 0.005

    seconds = time.perf_counter() - start
    ok = moments_ok and freq_ok and consistency_ok and seconds < 30.0
    _report(8, "Gumbel sampling and choice simulation", ok, f"{seconds:.1f} s")
    assert ok


def test_criterion_09_sigma_limits():
    rng = np.random.default_rng(51)
    small_ok = True
    large_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        eta = rng.uniform(-3.0, 3.0, size=n)
        # enforce the argmax separation the frozen-limit comparison requires
        top = np.argmax(eta)
        eta[top] = np.max(np.delete(eta, top)) + rng.uniform(0.1, 1.0)
        limit = sigma_limit(ChoiceModel(eta))
        small = choice_probabilities(ChoiceModel(eta, sigma=1e-4))
        small_ok &= bool(np.all(np.abs(small - limit) <= 1e-6))
        large = choice_probabilities(ChoiceModel(eta, sigma=1e3))
        large_ok &= bool(np.all(np.abs(large - 1.0 / n) <= 1e-3))
    ok = small_ok and large_ok
    _report(9, "small- and large-noise limits", ok)
    assert ok


def test_criterion_10_cli_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    gains = rng.uniform(0.2, 4.0, size=(4, 3))
    male = [f"m{i}" for i in range(4)]
    female = [f"f{j}" for j in range(3)]
    lines = ["[types.male]", *male, "[types.female]", *female, "[gains mode=Pi]"]
    lines += [" ".join(repr(float(v)) for v in row) for row in gains]
    lines.append("[population]")
    for label, count in zip(male + female, rng.uniform(5.0, 2000.0, size=7)):
        lines.append(f"{label} {float(count)!r}")
    market = tmp_path / "market.txt"
    market.write_text("\n".join(lines) + "\n", encoding="utf-8")

    solved = tmp_path / "solved.json"
    estimated = tmp_path / "estimated.json"
    round_trip_ok = cli_main(["solve", "--input", str(market), "--output", str(solved)]) == 0
    round_trip_ok &= (
        cli_main(["estimate-gains", "--input", str(solved), "--output", str(estimated)]) == 0
    )
    recovered = np.array(json.loads(estimated.read_text())["estimated_gains"]["Pi"])
    round_trip_ok &= bool(np.all(np.abs(recovered - gains) <= 1e-8 * np.abs(gains)))

    sim_a, sim_b = tmp_path / "sim_a.json", tmp_path / "sim_b.json"
    argv = ["simulate", "--input", str(market), "--seed", "17", "--samples", "50000"]
    reproducible = cli_main(argv + ["--output", str(sim_a)]) == 0
    reproducible &= cli_main(argv + ["--output", str(sim_b)]) == 0
    reproducible &= sim_a.read_bytes() == sim_b.read_bytes()

    ok = round_trip_ok and reproducible
    _report(10, "CLI solve/estimate round trip and reproducibility", ok)
    assert ok
