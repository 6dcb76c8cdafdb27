"""Exact rational scalars.

Money and value quantities are `fractions.Fraction` instances at the
package's interface.  Inside, the solvers, the stability check and the
oracles all work on one integer lattice, where x is the int x * D for
the auction's scale D (`lattice_int`).  No float is ever touched.
Scalars serialize as "p/q" strings (or bare integers) in JSON files.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputError

RawScalar = Union[int, str, Fraction]


def parse_scalar(raw: RawScalar) -> Fraction:
    """Parse a scalar from its serialized form.

    Accepts ints and "p/q" / "p" strings.  Floats are rejected: they
    cannot be trusted to round-trip exactly.
    """
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, bool):
        raise InputError(f"not a scalar: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise InputError(
            f"float scalar {raw!r} rejected; use an exact \"p/q\" string"
        )
    if isinstance(raw, str):
        try:
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar {raw!r}: {exc}") from None
    raise InputError(f"bad scalar of type {type(raw).__name__}: {raw!r}")


def format_scalar(x: Fraction) -> str:
    return str(Fraction(x))


def lattice_int(x: Fraction, scale: int) -> int:
    """x * scale as an int; InputError unless `scale` is a multiple of
    x's denominator, so that nothing is ever floored."""
    den = x.denominator
    if scale % den:
        raise InputError(f"{x} is off the lattice of scale {scale}")
    return x.numerator * (scale // den)

