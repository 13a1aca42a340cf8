"""Helpers shared by the benchmark modules: locating the sources, statistics."""

from __future__ import annotations

import math
import os
import sys


class SourcesMissing(RuntimeError):
    """The working directory is not a pialg checkout."""


def import_pialg(root: str):
    """Import pialg from ``root/src`` and nowhere else.

    Raises SourcesMissing when the checkout has no sources, so that a
    stray installed copy can never be benchmarked by mistake.
    """
    src = os.path.join(os.path.abspath(root), "src")
    init = os.path.join(src, "pialg", "__init__.py")
    if not os.path.isfile(init):
        raise SourcesMissing(f"no pialg sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import pialg
    import pialg.cli  # noqa: F401  (not imported by the package itself)
    if os.path.realpath(pialg.__file__) != os.path.realpath(init):
        raise SourcesMissing(f"imported pialg from {pialg.__file__}, expected {init}")
    return pialg


def digits(x: int) -> int:
    """Decimal digits of |x| (1 for zero), without str() and its length limit."""
    x = abs(x)
    if x < 10:
        return 1
    d = int(x.bit_length() * math.log10(2))
    if 10 ** d <= x:
        d += 1
    return d


def max_digits(rows) -> int:
    """Digits of the entry of largest magnitude in a list of integer rows."""
    return digits(max((abs(x) for r in rows for x in r), default=0))


def percentile(values, pct: float):
    """Nearest-rank percentile: the smallest value with pct% of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]

