"""Smoke test of the benchmark harness.

    python3 bench/smoke.py            (or: python -m pytest bench/smoke.py)

Runs a tiny slice of each workload through the checker, traces one
operation of each and checks that its span self times add up to its
wall time, and feeds the checker corrupted outcomes (one price
lowered), which it must reject.  Takes a few seconds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import checks
import run
import speed
import workloads
from tracing import Tracer

SLICES = {
    "cli_large_catalog": lambda ops: [op for op in ops if op.name.startswith("mixed_m10")][:1],
    "explicit_sweep": lambda ops: ops[:3],
    "oracle_audit": lambda ops: ops[:2] + [op for op in ops if op.name in (
        "gap3", "item_pricing_um_sm_m2", "item_pricing_xos_m2")],
}


def _slice(workload: str):
    program = run.import_program()
    ops = workloads.build(program, workload, 0, run.OUT / "smoke" / workload)
    return program, SLICES[workload](ops)


def test_slices_pass_their_checks():
    for workload in workloads.WORKLOADS:
        _, ops = _slice(workload)
        assert ops, workload
        for op in ops:
            problems = op.check(op.run())
            assert problems == [], (op.name, problems)


def test_traced_self_times_add_up():
    for workload in workloads.WORKLOADS:
        program, ops = _slice(workload)
        tracer = Tracer()
        tracer.install(program)
        try:
            out, wall = tracer.run_op("smoke", ops[0].run)
        finally:
            tracer.uninstall()
        assert ops[0].check(out) == []
        summary = tracer.summary(["smoke"])
        assert summary["residual"] < 1e-9, summary["residual"]
        assert abs(sum(summary["self"].values()) - wall) < 1e-9
        assert summary["spans"] > 1, workload


def _lowered(report_text: str, auction) -> str:
    """The solve report with the first price whose lowering to zero
    leaves some agent preferring another set, revenue kept consistent."""
    report = checks.parse_json(report_text)
    market = checks.market_from_report(report)
    table = checks.ValueTable(auction, market.bundles)
    for j, price in enumerate(market.prices):
        prices = market.prices[:j] + (Fraction(0),) + market.prices[j + 1:]
        if price > 0 and table.unstable(prices, market.holding):
            report["prices"][j] = "0"
            report["revenue"] = str(checks.revenue(dataclasses.replace(market, prices=prices)))
            return json.dumps(report, indent=2) + "\n"
    raise AssertionError("no single lowered price breaks stability")


def test_checker_rejects_lowered_price_in_cli_report():
    program, (op,) = _slice("cli_large_catalog")
    out = op.run()
    auction = program.serialize.load_instance(
        str(run.OUT / "smoke" / "cli_large_catalog" / f"{op.name}.json"))[0]
    corrupted = dict(out, solve=_lowered(out["solve"], auction))
    problems = op.check(corrupted)
    assert any("can get" in p for p in problems), problems
    # the program's own verifier agrees that the corrupted report is unstable
    path = run.OUT / "smoke" / "corrupted.report.json"
    path.write_text(corrupted["solve"], encoding="utf-8")
    code, verdict, _ = workloads.run_cli(program, [
        "verify", "--input", str(run.OUT / "smoke" / "cli_large_catalog" / f"{op.name}.json"),
        "--solution", str(path)])
    assert code == 4 and checks.parse_json(verdict)["cwe"] is False


def test_checker_rejects_lowered_price_in_library_outcome():
    _, ops = _slice("explicit_sweep")
    for op in ops:
        out = op.run()
        base = out["revenue"].base
        for bid in base.catalog.ids:
            if base.prices[bid] == 0:
                continue
            lowered = dataclasses.replace(base, prices={**base.prices, bid: Fraction(0)})
            result = dataclasses.replace(out["revenue"], base=lowered)
            problems = op.check(dict(out, revenue=result))
            if any("can get" in p for p in problems):
                return
    raise AssertionError("no lowered price in the slice was detected as unstable")


def test_speed_clock_scales_by_the_probes_around_each_operation():
    assert speed.probe() > 0  # the probe's own result is checked inside
    real = speed.probe
    probes = iter([0.02, 0.06, 0.04])
    speed.probe = lambda: next(probes)
    try:
        clock = speed.SpeedClock()
        for seconds in (0.3, 0.3, 0.1):  # a probe before the first and the third
            clock.before()
            clock.after(seconds)
        clock.finish()
    finally:
        speed.probe = real
    ref = speed.REFERENCE_PROBE_S
    expected = [0.3 * ref / 0.04, 0.3 * ref / 0.04, 0.1 * ref / 0.05]
    assert all(abs(a - b) < 1e-12 for a, b in zip(clock.corrected(), expected))


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
