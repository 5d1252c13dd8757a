"""Seeded inputs, the operations of each workload, and their checks.

A workload is a fixed list of operations (one round) built from the seed.
Runs repeat whole rounds, so every run does the same work in the same
proportions whatever its length.  ``run(op)`` is the timed part and returns
the program's output; ``check(op, output)`` is not timed and returns a list
of failure messages.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import partial
from pathlib import Path

import numpy as np

import oracles
from choosiow import cli, core, solver, statics

GAINS_HIGH = 5.0


def _market(rng: np.random.Generator, n_men: int, n_women: int, nu_low: float, nu_high: float):
    """Gains U(0, 5) and populations log-uniform on [nu_low, nu_high]."""
    gains = rng.uniform(0.0, GAINS_HIGH, size=(n_men, n_women))
    nu = np.exp(rng.uniform(np.log(nu_low), np.log(nu_high), size=n_men + n_women))
    return gains, nu


def _validated(gains, nu):
    return core.validate_market(core.GainsMatrix(gains), core.PopulationVector(nu))


def _library_op_checks(eq, report, gains, nu) -> list[str]:
    dist = eq.distribution
    failures = oracles.clearing(dist.married, dist.single_men, dist.single_women, nu)
    failures += oracles.choo_siow_identity(dist.married, dist.single_men, dist.single_women, gains)
    failures += oracles.substitution(report.r_matrix, eq.beta, gains, nu, report.spectral_radius)
    return failures


class LibraryWorkload:
    """`solve` then `statics_matrix` on one random market per op.

    The shapes and their order are fixed by the workload, so every seed does
    the same amount of work; gains and populations are drawn from the rng
    stream `[seed, stream]`.  The first `n_warmup` ops are the warm-up.
    """

    nu_range = (1.0, 1e6)

    def __init__(self, shapes, stream: int, n_warmup: int, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, stream])
        self.ops = []
        for n_men, n_women in shapes:
            gains, nu = _market(rng, n_men, n_women, *self.nu_range)
            self.ops.append((_validated(gains, nu), gains, nu))
        self.warmup = self.ops[:n_warmup]

    def run(self, op):
        eq = solver.solve(op[0])
        return eq, statics.statics_matrix(eq)

    def check(self, op, output) -> list[str]:
        _, gains, nu = op
        return _library_op_checks(*output, gains, nu)


# many-small: one market of each shape 1x1 to 12x12, in Latin-square order
# (op 12k + i has shape (i + 1, (i + k) mod 12 + 1)) so that large and small
# markets alternate.  Single-market ops spread their latencies over a
# continuous range, which keeps the median from jumping when the machine
# switches between a fast and a slow state (see README).
MANY_SMALL_SHAPES = [(i + 1, (i + k) % 12 + 1) for k in range(12) for i in range(12)]
# large-lopsided: 40x300 and 300x40, alternating.
LOPSIDED_SHAPES = [(40, 300), (300, 40)] * 6


def _market_text(gains, nu) -> str:
    n_men, n_women = gains.shape
    men = [f"m{i + 1}" for i in range(n_men)]
    women = [f"f{j + 1}" for j in range(n_women)]
    lines = ["format_version = 1", "[types.male]", *men, "[types.female]", *women]
    lines.append("[gains mode=Pi]")
    lines += [" ".join(repr(float(x)) for x in row) for row in gains]
    lines.append("[population]")
    lines += [f"{label} {float(count)!r}" for label, count in zip(men + women, nu)]
    return "\n".join(lines) + "\n"


def _cli(argv) -> tuple[int, str]:
    """In-process `choosiow.cli.main`, report captured in memory."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class CliSession:
    """One op: solve, estimate-gains, statics, check, simulate, whatif on one file.

    The round holds five market files whose shapes (2x3, 3x5, 4x2, 5x6, 6x4)
    are fixed, so the finite-difference oracle and Monte Carlo work per round
    do not depend on the seed; gains and populations do.
    """

    SHAPES = ((2, 3), (3, 5), (4, 2), (5, 6), (6, 4))
    nu_range = (1e2, 1e4)
    SAMPLES = 20_000
    SHOCK = 0.5  # relative increase of m1 in whatif

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for n, (n_men, n_women) in enumerate(self.SHAPES):
            gains, nu = _market(rng, n_men, n_women, *self.nu_range)
            path = workdir / f"market{n}.txt"
            path.write_text(_market_text(gains, nu), encoding="utf-8")
            self.ops.append(
                {
                    "input": str(path),
                    "report": str(workdir / f"solved{n}.json"),
                    "gains": gains,
                    "nu": nu,
                    "sim_seed": int(rng.integers(2**31)),
                    "shock": float(self.SHOCK * nu[0]),
                }
            )
        self.warmup = self.ops[:1]

    def run(self, op) -> dict:
        f = op["input"]
        out = {"solve": _cli(["solve", "--input", f])}
        Path(op["report"]).write_text(out["solve"][1], encoding="utf-8")
        out["estimate-gains"] = _cli(["estimate-gains", "--input", op["report"]])
        out["statics"] = _cli(["statics", "--input", f])
        out["check"] = _cli(["check", "--input", f])
        out["simulate"] = _cli(
            ["simulate", "--input", f, "--seed", str(op["sim_seed"]), "--samples", str(self.SAMPLES)]
        )
        out["whatif"] = _cli(["whatif", "--input", f, "--shock-nu", f"m1={op['shock']!r}"])
        return out

    def check(self, op, output) -> list[str]:
        failures = []
        reports = {}
        for command, (code, text) in output.items():
            if code != 0:
                failures.append(f"{command} exited {code}")
                continue
            try:
                reports[command] = json.loads(text)
            except json.JSONDecodeError:
                failures.append(f"{command} printed no JSON report")
        if failures:
            return failures
        gains, nu = op["gains"], op["nu"]

        def equilibrium(block, counts):
            found = oracles.clearing(block["mu"], block["single_men"], block["single_women"], counts)
            return found + oracles.choo_siow_identity(
                block["mu"], block["single_men"], block["single_women"], gains
            )

        for command in ("solve", "statics", "check", "simulate"):
            failures += [f"{command}: {m}" for m in equilibrium(reports[command]["equilibrium"], nu)]
        failures += oracles.recovered_gains(reports["estimate-gains"]["estimated_gains"]["Pi"], gains)
        block = reports["statics"]["statics"]
        failures += oracles.substitution(
            block["r_matrix"], reports["statics"]["equilibrium"]["beta"], gains, nu,
            block["spectral_radius"],
        )
        if reports["check"]["check"]["passed"] is not True:
            failures.append("check: passed is not true")
        sim = reports["simulate"]["simulation"]
        if sim["sample_count"] != self.SAMPLES:
            failures.append(f"simulate: sample_count {sim['sample_count']} != {self.SAMPLES}")
        failures += oracles.simulation(sim["max_divergence"], self.SAMPLES)
        whatif = reports["whatif"]
        shocked_nu = nu.copy()
        shocked_nu[0] += op["shock"]
        failures += [f"whatif baseline: {m}" for m in equilibrium(whatif["baseline"], nu)]
        failures += [f"whatif shocked: {m}" for m in equilibrium(whatif["shocked"], shocked_nu)]
        failures += oracles.shock_signs(whatif["baseline"], whatif["shocked"])
        return failures


WORKLOADS = {
    "many-small": partial(LibraryWorkload, MANY_SMALL_SHAPES, 1, 12),
    "large-lopsided": partial(LibraryWorkload, LOPSIDED_SHAPES, 2, 2),
    "cli-session": CliSession,
}
