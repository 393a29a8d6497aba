"""Deterministic low-discrepancy sampling of scene boxes.

Sample points come from a Halton sequence (one prime base per
coordinate), offset by the seed, and mapped affinely onto the declared
box.  Points violating an exclusion guard are skipped, so for a fixed
seed the first n accepted points are always a prefix of the first m > n
— residual maxima are monotone in the sample count by construction.
"""

import numpy as np

from .expr import evaluate
from .jets import JetSpace

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
    """`count` points as dicts over `names`, drawn from the Halton
    sequence starting at index 1 + seed and scaled into the box.

    `box` maps each name to (lo, hi); `exclusions` is a sequence of
    (expression, guard) pairs and a candidate is rejected unless
    |expression| > guard at the candidate.
    """
    names = tuple(names)
    if len(names) > len(HALTON_BASES):
        raise SamplingError("at most %d sampled coordinates" % len(HALTON_BASES))
    for nm in names:
        lo, hi = box[nm]
        if not lo < hi:
            raise SamplingError(f"empty box interval for {nm}")
    space = JetSpace(names, 0)
    points = []
    index = 1 + int(seed)
    budget = 1000 * (count + 10)  # guards should reject a small fraction
    while len(points) < count:
        if budget <= 0:
            raise SamplingError("exclusion guards reject almost all of the box")
        budget -= 1
        pt = {}
        for d, nm in enumerate(names):
            lo, hi = box[nm]
            pt[nm] = lo + (hi - lo) * radical_inverse(index, HALTON_BASES[d])
        index += 1
        env = space.seed(pt)
        if all(abs(evaluate(e, env, space=space).value) > guard
               for e, guard in exclusions):
            points.append(pt)
    return points
