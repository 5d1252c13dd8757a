"""Command-line front end.

Subcommands: solve, statics, transfers, whatif, simulate, check, and
estimate-gains.  The six market commands share one handler, cmd_market: it
loads the market (MarketFile validates it, and the whatif shocks are applied
before any solve), solves once, writes the input, settings and equilibrium
blocks, and adds the command's own blocks.  Markets are read from the
structured market file (or a CSV table pair); reports are emitted as JSON
with full-precision numbers so they round-trip losslessly.

Exit codes: 0 success, 1 input error, 2 solver non-convergence,
3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .choice import equilibrium_consistency
from .core import ScalingError
from .market_file import FORMAT_VERSION, MarketFile, ParseError, parse_market, parse_market_tables
from .solver import ConvergenceError, Equilibrium, SolverOptions, solve
from .statics import (
    StaticsReport,
    finite_difference_check,
    gains_sensitivity,
    marriage_elasticity,
    participation_analysis,
    statics_matrix,
    transfer_analysis,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3


def _listify(array) -> list:
    """A float array as nested lists for JSON; NaN and inf become null."""
    array = np.asarray(array, dtype=float)
    return np.where(np.isfinite(array), array, None).tolist()


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="PATH", help="structured market file")
    parser.add_argument("--gains-csv", metavar="PATH", help="gains table (CSV pair format)")
    parser.add_argument(
        "--populations-csv", metavar="PATH", help="population table (CSV pair format)"
    )
    parser.add_argument(
        "--gains-mode",
        choices=("pi", "Pi"),
        help="override the gains mode tag (Pi = raw gains, pi = log gains)",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report here (default stdout)")
    parser.add_argument(
        "--tolerance", type=float, default=1e-10, help="relative gradient tolerance"
    )
    parser.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")


def _load_market(args) -> MarketFile:
    if args.input and (args.gains_csv or args.populations_csv):
        raise ParseError("give either --input or the --gains-csv/--populations-csv pair")
    if args.input:
        return parse_market(args.input, gains_mode_override=args.gains_mode)
    if args.gains_csv and args.populations_csv:
        return parse_market_tables(
            args.gains_csv, args.populations_csv, gains_mode=args.gains_mode or "Pi"
        )
    raise ParseError("no input given: use --input or --gains-csv with --populations-csv")


def _input_block(mf: MarketFile) -> dict:
    block = {
        "male_types": list(mf.male_types),
        "female_types": list(mf.female_types),
        "gains_mode": mf.gains_mode,
        "gains": _listify(mf.gains),
        "populations": _listify(mf.populations),
    }
    if mf.c_matrix is not None:
        block["c_matrix"] = _listify(mf.c_matrix)
    return block


def _populated_pairs(mf: MarketFile) -> tuple:
    """np.ix_ of the populated men and women: the pairs of the solved market."""
    n_men = len(mf.male_types)
    return np.ix_(mf.populated[:n_men], mf.populated[n_men:])


def _embedded(eq: Equilibrium, mf: MarketFile) -> dict:
    """The equilibrium arrays over all declared types; dropped types get NaN amplitudes."""
    kept, n_men = mf.populated, len(mf.male_types)
    dist = eq.distribution
    amplitudes = np.full((2, kept.size), np.nan)
    amplitudes[:, kept] = eq.beta, eq.log_beta
    singles = np.zeros(kept.size)
    singles[kept] = np.concatenate([dist.single_men, dist.single_women])
    mu = np.zeros(mf.gains.shape)
    mu[_populated_pairs(mf)] = dist.married
    return {
        "beta": amplitudes[0],
        "log_beta": amplitudes[1],
        "mu": mu,
        "single_men": singles[:n_men],
        "single_women": singles[n_men:],
    }


def _equilibrium_block(eq: Equilibrium, mf: MarketFile) -> dict:
    block = {key: _listify(value) for key, value in _embedded(eq, mf).items()}
    block.update(
        residual_norm=eq.residual_norm,
        iterations=eq.iterations,
        sweeps=eq.sweeps,
        objective_value=eq.objective_value,
    )
    if not mf.populated.all():
        block["note"] = (
            "zero-population types were dropped before solving and re-embedded "
            "with zero singles and zero marriages"
        )
    return block


def _statics_blocks(report: StaticsReport) -> dict:
    market = report.equilibrium.market
    participation = participation_analysis(report)
    return {
        "types": list(market.gains.row_labels) + list(market.gains.col_labels),
        "r_matrix": _listify(report.r_matrix),
        "d_beta": _listify(report.d_beta),
        "gains_sensitivity": _listify(gains_sensitivity(report)),
        "marriage_elasticity": _listify(marriage_elasticity(report)),
        "spectral_radius": report.spectral_radius,
        "spectral_pass": report.spectral_pass,
        "sign_check": {
            "mode": report.sign_check.mode,
            "cross_negative": report.sign_check.cross_negative,
            "diagonal_dominant": report.sign_check.diagonal_dominant,
            "cauchy_schwarz": report.sign_check.cauchy_schwarz,
            "failures": list(report.sign_check.failures),
        },
        "conjecture_probe": {
            "male_sums": _listify(report.conjecture.male_sums),
            "female_sums": _listify(report.conjecture.female_sums),
            "all_positive": report.conjecture.all_positive,
        },
        "participation": {
            "rate": _listify(participation.rate),
            "own_derivative": _listify(participation.own_derivative),
            "strict": participation.strict,
            "boundary": market.degenerate,
        },
    }


def _transfer_block(report: StaticsReport, mf: MarketFile) -> dict:
    # c is given for the full market; restrict it to the populated types.
    c = None if mf.c_matrix is None else mf.c_matrix[_populated_pairs(mf)]
    transfers = transfer_analysis(report, c)
    block = {
        "transfer_index": _listify(transfers.transfer_index),
        "transfer_derivatives": _listify(transfers.transfer_derivatives),
    }
    if transfers.tau is not None:
        block["tau"] = _listify(transfers.tau)
    return block


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _shocked(mf: MarketFile, args) -> MarketFile:
    """The whatif market: mf with the --shock-nu and --shock-pi deltas added, in Pi mode."""
    populations = mf.populations.copy()
    gains = mf.pi_matrix.copy()
    labels = list(mf.male_types) + list(mf.female_types)
    for spec in args.shock_nu:
        try:
            label, delta = spec.split("=", 1)
            delta = float(delta)
        except ValueError:
            raise ParseError(f"bad --shock-nu {spec!r}; expected LABEL=DELTA") from None
        if label not in labels:
            raise ParseError(f"--shock-nu label {label!r} is not a declared type")
        populations[labels.index(label)] += delta
    for spec in args.shock_pi:
        try:
            address, delta = spec.split("=", 1)
            row, col = address.split(",")
            delta = float(delta)
        except ValueError:
            raise ParseError(f"bad --shock-pi {spec!r}; expected ROW,COL=DELTA") from None
        if row not in mf.male_types or col not in mf.female_types:
            raise ParseError(f"--shock-pi address {address!r} names unknown types")
        gains[mf.male_types.index(row), mf.female_types.index(col)] += delta
    # MarketFile re-validates: a shock that drives an entry negative is an input error.
    return dataclasses.replace(mf, gains_mode="Pi", gains=gains, populations=populations)


def cmd_market(args) -> int:
    """The six market commands: solve once, then add the command's own blocks."""
    mf = _load_market(args)
    shocked_mf = _shocked(mf, args) if args.command == "whatif" else None
    opts = SolverOptions(gradient_tolerance=args.tolerance, max_iterations=args.max_iter)
    eq = solve(mf.to_market(), opts)
    settings = {"tolerance": args.tolerance, "max_iterations": args.max_iter}
    report = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "input": _input_block(mf),
        "settings": settings,
        "baseline" if args.command == "whatif" else "equilibrium": _equilibrium_block(eq, mf),
    }
    code = EXIT_OK
    if args.command == "statics":
        report["statics"] = _statics_blocks(statics_matrix(eq))
    elif args.command == "transfers":
        report["transfers"] = _transfer_block(statics_matrix(eq), mf)
    elif args.command == "whatif":
        settings.update(shock_nu=args.shock_nu, shock_pi=args.shock_pi)
        shocked = solve(shocked_mf.to_market(), opts)
        report["shocked"] = _equilibrium_block(shocked, shocked_mf)
        # NaN (a type unpopulated on either side) stays NaN and is written as null.
        before, after = _embedded(eq, mf), _embedded(shocked, shocked_mf)
        report["delta"] = {
            key: _listify(after[key] - before[key])
            for key in ("beta", "mu", "single_men", "single_women")
        }
    elif args.command == "simulate":
        settings.update(seed=args.seed, samples=args.samples)
        record = equilibrium_consistency(eq, args.samples, np.random.default_rng(args.seed))
        report["simulation"] = {
            "male_divergence": _listify(record.male_divergence),
            "female_divergence": _listify(record.female_divergence),
            "max_divergence": record.max_divergence,
            "sample_count": record.sample_count,
            "seed": args.seed,
        }
    elif args.command == "check":
        settings.update(fd_step=args.fd_step, fd_tolerance=args.fd_tolerance)
        statics = statics_matrix(eq)
        fd = finite_difference_check(statics, step=args.fd_step, opts=opts)
        checks = {
            "clearing": eq.distribution.clears(eq.market.population),
            "sign_pattern": statics.sign_check.passed,
            "spectral": statics.spectral_pass,
            "finite_difference": fd.max_error <= args.fd_tolerance,
        }
        report["check"] = {
            **checks,
            "sign_check_mode": statics.sign_check.mode,
            "sign_check_failures": list(statics.sign_check.failures),
            "spectral_radius": statics.spectral_radius,
            "finite_difference_errors": {
                "substitution": fd.substitution_error,
                "gains": fd.gains_error,
                "marriage": fd.marriage_error,
                "transfer": fd.transfer_error,
                "participation": fd.participation_error,
            },
            "passed": all(checks.values()),
        }
        if not report["check"]["passed"]:
            code = EXIT_CHECK_FAILED
    _emit(report, args)
    return code


def cmd_estimate_gains(args) -> int:
    try:
        document = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.input}: not a valid report: {exc}") from None
    try:
        block = document["equilibrium"]
        mu = np.array(block["mu"], dtype=float)
        single_men = np.array(block["single_men"], dtype=float)
        single_women = np.array(block["single_women"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.input}: missing or malformed equilibrium block ({exc})") from None
    if np.any(single_men <= 0) or np.any(single_women <= 0):
        raise ParseError("estimate-gains requires strictly positive singles counts")
    geometric = np.sqrt(np.outer(single_men, single_women))
    gains = mu / geometric
    with np.errstate(divide="ignore"):
        log_gains = np.log(gains)
    report = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "estimated_gains": {
            "Pi": _listify(gains),
            "pi": _listify(log_gains),  # null where no marriages were observed
        },
    }
    _emit(report, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most parses."""
    parser = argparse.ArgumentParser(
        prog="choosiow",
        description="Solve marriage-matching markets and their comparative statics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("solve", "compute the equilibrium marriage distribution"),
        ("statics", "equilibrium plus substitution matrix and sensitivities"),
        ("transfers", "transfer index and derivatives (tau needs a [c] block)"),
        ("whatif", "re-solve under population or gains shocks"),
        ("simulate", "Monte Carlo consistency check of the choice model"),
        ("check", "run the full invariant suite; nonzero exit on failure"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_input_flags(p)
        p.set_defaults(handler=cmd_market)

    sub.choices["whatif"].add_argument(
        "--shock-nu", action="append", default=[], metavar="LABEL=DELTA",
        help="population shock (repeatable)",
    )
    sub.choices["whatif"].add_argument(
        "--shock-pi", action="append", default=[], metavar="ROW,COL=DELTA",
        help="gains shock (repeatable)",
    )
    sub.choices["simulate"].add_argument("--seed", type=int, default=0)
    sub.choices["simulate"].add_argument("--samples", type=int, default=100_000)
    sub.choices["check"].add_argument("--fd-step", type=float, default=1e-5)
    sub.choices["check"].add_argument("--fd-tolerance", type=float, default=1e-3)

    estimate = sub.add_parser(
        "estimate-gains", help="recover gains from an observed distribution (a solve report)"
    )
    estimate.add_argument("--input", required=True, metavar="REPORT_JSON")
    estimate.add_argument("--output", metavar="PATH")
    estimate.set_defaults(handler=cmd_estimate_gains)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ScalingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(
            json.dumps(
                {"error": {"kind": "no_convergence", "message": str(exc),
                           "residual_norm": _listify(exc.residual_norm)}},
                indent=2,
            ),
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
