"""Command line front end.

Exit codes: 0 success, 4 when the independent check of a report fails;
an error exits with its type's `exit_code` (errors module): 2 bad
input, 3 resource cap exceeded, 4 a verification or a solver invariant
failed.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import Any, Dict, Optional

from .errors import InputError, MarketError
from .instances import generate, instance_names
from .market import (
    Auction,
    BundleSet,
    InitialAllocation,
    Outcome,
    allocation_welfare,
    find_violation,
    is_cwe,
)
from .revenue import maximize_revenue
from .scalars import format_scalar, parse_scalar
from .serialize import (
    dumps,
    instance_to_json,
    ladder_to_json,
    load_instance,
    load_solution,
    outcome_to_json,
    trace_to_json,
)
from .simple import run_simple
from .poly import run_poly
from .trace import Trace
from .verifier import (
    brute_force_optimal,
    config_lp_fractional_opt,
    max_cwe_revenue,
    max_cwe_welfare,
    singleton_catalog,
    supporting_prices,
)


def _scalar_arg(text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cwemarket",
        description="Bundled-market stability solver and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--input", required=True, help="instance file")
    solve.add_argument(
        "--alg", choices=("simple", "poly"), default="poly", help="solver variant"
    )
    solve.add_argument(
        "--epsilon",
        type=_scalar_arg,
        default=None,
        help="price increment for --alg simple",
    )
    solve.add_argument(
        "--initial",
        default=None,
        help="'optimal' for the exhaustive welfare optimum, or file:<path>",
    )
    solve.add_argument("--trace-out", default=None, help="write the event log here")

    revenue = sub.add_parser("revenue", help="solve, then scan the surcharge ladder")
    revenue.add_argument("--input", required=True, help="instance file")
    revenue.add_argument("--initial", default=None)
    revenue.add_argument("--trace-out", default=None)

    verify = sub.add_parser("verify", help="check a reported outcome for stability")
    verify.add_argument("--input", required=True, help="instance file")
    verify.add_argument("--solution", required=True, help="outcome report file")

    oracle = sub.add_parser("oracle", help="exhaustive desk-scale oracles")
    oracle.add_argument(
        "kind", choices=("optimal", "lp-opt", "max-cwe", "support"),
        help="which oracle to run",
    )
    oracle.add_argument("--input", required=True, help="instance file")
    oracle.add_argument(
        "--solution", default=None, help="outcome report file (for 'support')"
    )

    bench = sub.add_parser(
        "paper-instance", help="emit a named benchmark instance file"
    )
    bench.add_argument("name", help=", ".join(instance_names()))
    bench.add_argument("--epsilon", type=_scalar_arg, default=None)
    bench.add_argument("--delta", type=_scalar_arg, default=None)
    bench.add_argument("--m", type=int, default=None)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("-o", "--output", default=None, help="write here (else stdout)")
    return parser


def _pick_seed(
    auction: Auction,
    file_allocation: Optional[Dict[str, Any]],
    flag: Optional[str],
) -> InitialAllocation:
    if flag is None:
        if file_allocation is None:
            raise InputError(
                "instance file has no initial_allocation; pass --initial"
            )
        return file_allocation
    if flag == "optimal":
        _, allocation = brute_force_optimal(auction)
        return allocation
    if flag.startswith("file:"):
        _, allocation = load_instance(flag[len("file:"):])
        if allocation is None:
            raise InputError(f"{flag[5:]!r} has no initial_allocation")
        return allocation
    raise InputError(f"bad --initial value {flag!r}; use 'optimal' or file:<path>")


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from None


def _report(
    args: argparse.Namespace,
    auction: Auction,
    algorithm: str,
    outcome: Outcome,
    trace: Trace,
    verified: bool,
    seed_welfare: Fraction,
    **extra: Any,
) -> int:
    """Write the outcome report, and the trace under --trace-out.  Exit
    4 when the independent check found the outcome unstable."""
    report: Dict[str, Any] = {"algorithm": algorithm}
    report.update(
        outcome_to_json(
            auction, outcome, verified, trace.iterations, trace.demand_queries
        )
    )
    report["half_welfare_bound"] = format_scalar(seed_welfare / 2)
    report.update(extra)
    if args.trace_out:
        _write(args.trace_out, dumps(trace_to_json(trace)))
    sys.stdout.write(dumps(report))
    return 0 if verified else 4


def _cmd_solve(args: argparse.Namespace) -> int:
    auction, file_alloc = load_instance(args.input)
    allocation = _pick_seed(auction, file_alloc, args.initial)
    if args.alg == "simple":
        if args.epsilon is None:
            raise InputError("--alg simple requires --epsilon")
        outcome, trace = run_simple(auction, allocation, args.epsilon)
    else:
        if args.epsilon is not None:
            raise InputError("--epsilon only applies to --alg simple")
        outcome, trace = run_poly(auction, allocation)
    # the solver's final checks passed: stability and half the seed welfare
    return _report(
        args,
        auction,
        args.alg,
        outcome,
        trace,
        True,
        allocation_welfare(auction, allocation),
    )


def _cmd_revenue(args: argparse.Namespace) -> int:
    auction, file_alloc = load_instance(args.input)
    allocation = _pick_seed(auction, file_alloc, args.initial)
    result = maximize_revenue(auction, allocation)
    # level 0 is run_poly's outcome, which its own stability check passed
    verified = is_cwe(auction, *(level.outcome for level in result.levels[1:]))
    return _report(
        args,
        auction,
        "poly",
        result.base,
        result.trace,
        verified,
        result.seed_welfare,
        **ladder_to_json(result.levels, result.t_star),
        max_revenue=format_scalar(result.max_revenue),
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    auction, _ = load_instance(args.input)
    outcome = load_solution(auction, args.solution)
    violation = find_violation(auction, outcome)
    if violation is None:
        sys.stdout.write(dumps({"cwe": True}))
        return 0
    position = {bid: k for k, (bid, _) in enumerate(outcome.catalog.entries)}

    def price(bundles: BundleSet) -> str:
        return format_scalar(sum((outcome.prices[b] for b in bundles), Fraction(0)))

    sys.stdout.write(
        dumps(
            {
                "cwe": False,
                "agent": violation.agent,
                "held": sorted(position[b] for b in violation.held),
                "better": sorted(position[b] for b in violation.better),
                "gap": format_scalar(violation.gap),
                "held_utility": format_scalar(violation.held_utility),
                "better_utility": format_scalar(violation.best_utility),
                "held_price": price(violation.held),
                "better_price": price(violation.better),
            }
        )
    )
    return 4


def _cmd_oracle(args: argparse.Namespace) -> int:
    auction, _ = load_instance(args.input)
    if args.kind == "optimal":
        welfare, allocation = brute_force_optimal(auction)
        sys.stdout.write(
            dumps(
                {
                    "sw": format_scalar(welfare),
                    "allocation": {
                        name: sorted(allocation.get(name, frozenset()))
                        for name in auction.agent_names
                    },
                }
            )
        )
        return 0
    if args.kind == "lp-opt":
        value = config_lp_fractional_opt(auction, singleton_catalog(auction))
        sys.stdout.write(dumps({"lp_opt": format_scalar(value)}))
        return 0
    if args.kind == "max-cwe":
        welfare, _ = max_cwe_welfare(auction)
        rev, _ = max_cwe_revenue(auction)
        sys.stdout.write(
            dumps(
                {
                    "max_welfare": format_scalar(welfare),
                    "max_revenue": format_scalar(rev),
                }
            )
        )
        return 0
    if args.solution is None:
        raise InputError("oracle support requires --solution")
    outcome = load_solution(auction, args.solution)
    prices = supporting_prices(auction, outcome.catalog, outcome.assignment)
    if prices is None:
        sys.stdout.write(dumps({"supported": False}))
    else:
        ordered = [
            format_scalar(prices[bid]) for bid, _ in outcome.catalog.entries
        ]
        sys.stdout.write(dumps({"supported": True, "prices": ordered}))
    return 0


def _cmd_paper_instance(args: argparse.Namespace) -> int:
    given = {key: getattr(args, key) for key in ("epsilon", "delta", "m", "n", "seed")}
    params = {key: value for key, value in given.items() if value is not None}
    auction, allocation = generate(args.name, **params)
    _write(args.output, dumps(instance_to_json(auction, allocation)))
    return 0


def run_cli(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "revenue": _cmd_revenue,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "paper-instance": _cmd_paper_instance,
    }
    try:
        return handlers[args.command](args)
    except MarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        sys.stdout.flush()


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
