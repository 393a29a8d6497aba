"""Deterministic low-discrepancy sampling of scene boxes.

Sample points come from a Halton sequence (one prime base per
coordinate), offset by the seed, and mapped affinely onto the declared
box.  Points violating an exclusion guard, or at which a guard is
singular, are skipped, so for a fixed seed the first n accepted points
are always a prefix of the first m > n — residual maxima are monotone
in the sample count by construction.
"""

import numpy as np

from .expr import values_at
from .jets import JetDomainError

HALTON_BASES = (2, 3, 5, 7, 11)


class SamplingError(ValueError):
    """The box or its exclusion guards admit no sample set."""


def radical_inverse(index, base):
    """The van der Corput radical inverse of a positive integer."""
    out = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        out += digit * scale
        scale /= base
    return out


def halton_points(names, box, count, seed=0, exclusions=()):
    """A sample set of `count` points over `names`: each name mapped to a
    1-D array of its values, the one point form every residual and
    `expr.jets_at` take.  The points are drawn from the Halton sequence
    starting at index 1 + seed and scaled into the box.

    `box` maps each name to (lo, hi); `exclusions` is a sequence of
    (expression, guard) pairs and a candidate is rejected unless
    |expression| > guard at the candidate.  A guard that hits a domain
    error (log(0), 1/0, ...) at a candidate rejects it.
    """
    names = tuple(names)
    if len(names) > len(HALTON_BASES):
        raise SamplingError("at most %d sampled coordinates" % len(HALTON_BASES))
    bounds = [box[nm] for nm in names]
    for nm, (lo, hi) in zip(names, bounds):
        if not lo < hi:
            raise SamplingError(f"empty box interval for {nm}")
    clear = _clearance(names, exclusions) if exclusions else None
    rows = []
    index = 1 + int(seed)
    budget = 1000 * (count + 10)  # guards should reject a small fraction
    while len(rows) < count:
        if budget <= 0:
            raise SamplingError("exclusion guards reject almost all of the box")
        budget -= 1
        row = [lo + (hi - lo) * radical_inverse(index, base)
               for (lo, hi), base in zip(bounds, HALTON_BASES)]
        index += 1
        if clear is None or clear(row):
            rows.append(row)
    return {nm: np.array([row[d] for row in rows], dtype=float)
            for d, nm in enumerate(names)}


def _clearance(names, exclusions):
    """The test of a candidate point, given as its row of values in the
    order of `names`, against the exclusions: whether |expression| > guard
    for each, and False where any is singular.  The expressions are
    compiled once (`expr.values_at`) and evaluated at each candidate."""
    values = values_at([e for e, _ in exclusions], names)

    def clear(row):
        try:
            got = values(row)
        except JetDomainError:
            return False
        return all(abs(v) > guard for v, (_, guard) in zip(got, exclusions))
    return clear
