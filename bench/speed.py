"""The machine's speed, probed between operations, and times corrected by it.

The benchmark runs on a few virtual cores of a shared host, whose speed
changes by itself: the same code runs up to twice as slowly for spells
of seconds to minutes, and how much of a run falls in slow spells
differs from run to run (README, "CPU-speed drift").  A probe, a fixed
piece of pure-Python work of the same kind as the program's (subset
enumeration with `Fraction` sums into a table keyed by `frozenset`),
is timed between operations.  It does not use the program, so a change
to the program cannot change it.  An operation's corrected time is its
wall time scaled by REFERENCE_PROBE_S / (the mean of the probes just
before and just after it): its time on a machine on which the probe
takes REFERENCE_PROBE_S.  A program that does more work still takes
longer; a spell of slowness moves the corrected time much less than the
wall time, though not to nothing, since the program slows a little less
than the probe does (README, "Speed correction").
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

# What the probe takes on the reference machine (README) when it is not
# slowed.  It only scales the corrected times.
REFERENCE_PROBE_S = 0.02
# Operation time between two probes; the probe takes about 4% of it.
PROBE_EVERY_S = 0.5

_BUNDLES = tuple(range(10))
_VALUES = tuple(Fraction(k + 1, 5) for k in _BUNDLES)
_PRICES = tuple(Fraction(k + 3, 7 + k % 4) for k in _BUNDLES)
# The best utility, reached by two subsets (bundle 4 is worth its price).
_BEST = (Fraction(1369, 630), 2)


def probe() -> float:
    """Time one fixed demand-style enumeration: the best of all subsets
    of ten bundles by value minus price."""
    t0 = perf_counter()
    table = {}
    for size in range(len(_BUNDLES) + 1):
        for subset in combinations(_BUNDLES, size):
            bundle = frozenset(subset)
            table[bundle] = (sum((_VALUES[k] for k in bundle), Fraction(0))
                             - sum((_PRICES[k] for k in bundle), Fraction(0)))
    best = max(table.values())
    seconds = perf_counter() - t0
    found = (best, sum(u == best for u in table.values()))
    if found != _BEST:
        raise AssertionError(f"speed probe found {found}, not {_BEST}")
    return seconds


class SpeedClock:
    """Probes between operations and corrects their times.

    Call `before()` before each timed operation and `after(seconds)`
    after it, and `finish()` once after the last; then `corrected()`
    gives each operation's corrected time, in the order of `after()`.
    """

    def __init__(self):
        self.probes: List[float] = []
        self.ops: List[Tuple[float, int]] = []  # (wall seconds, index of the probe before it)
        self._since_probe = 0.0

    def _probe(self) -> float:
        self.probes.append(probe())
        self._since_probe = 0.0
        return self.probes[-1]

    def before(self) -> None:
        if not self.probes or self._since_probe >= PROBE_EVERY_S:
            self._probe()

    def after(self, seconds: float) -> None:
        self.ops.append((seconds, len(self.probes) - 1))
        self._since_probe += seconds

    def finish(self) -> None:
        self._probe()

    def corrected(self) -> List[float]:
        return [seconds * 2 * REFERENCE_PROBE_S / (self.probes[k] + self.probes[k + 1])
                for seconds, k in self.ops]

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run `fn` between two probes; returns (output, wall seconds,
        corrected seconds)."""
        before = self._probe()
        t0 = perf_counter()
        out = fn()
        seconds = perf_counter() - t0
        after = self._probe()
        return out, seconds, seconds * 2 * REFERENCE_PROBE_S / (before + after)

    def median_probe(self) -> float:
        return statistics.median(self.probes)
