"""Output checker: compares each CLI report with construction truth.

A command counts as failed when its exit code, a verdict or an oracle
value disagrees with what the scene was built to show, or when a check
value is not finite.  The checker reads neither ``order`` nor
``wall_time``.
"""

import math

from scenes import ward_oracle

ORACLE_ABS = 1e-9        # closed-form fitted values (b coefficients, ...)
WARD_REL = 1e-7          # RK4 at step 0.01 against exp(f(start) - f(end))
LINEAR_BAND = (5.0, 20.0)  # value ratio for an eps ratio of 10


def _is_flag(check):
    return check["tolerance"] == 0.5 and check["value"] in (0.0, 1.0)


def _fitted(report, dotted):
    node = report["fitted"]
    for part in dotted.split("."):
        node = node[part]
    return node


def _close(got, want, tol=ORACLE_ABS):
    return len(got) == len(want) and all(
        isinstance(g, (int, float)) and math.isfinite(g) and abs(g - w) <= tol
        for g, w in zip(got, want))


class Checker:
    """Holds the values of negative controls seen so far, so the partner
    of an (eps, eps/10) pair can be tested for linear scaling."""

    def __init__(self):
        self.linear_seen = {}

    def problems(self, job, code, report):
        """A list of disagreements; empty when the report is correct."""
        expect = job.expect
        if code != expect["exit"]:
            return [f"exit {code}, expected {expect['exit']}"]
        if not isinstance(report, dict):
            return ["no report"]
        out = []
        if report.get("command") != job.command:
            out.append(f"report command {report.get('command')!r}")
        if job.samples is not None and report.get("samples") != job.samples:
            out.append(f"report samples {report.get('samples')!r}")
        if job.seed is not None and report.get("seed") != job.seed:
            out.append(f"report seed {report.get('seed')!r}")
        out += self._checks(job, report)
        for name, want in expect["oracles"].items():
            try:
                ok = ORACLES[name](report, want)
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                ok, name = False, f"{name} ({exc!r})"
            if not ok:
                out.append(f"oracle {name}")
        if expect["linear"]:
            out += self._linear(expect["linear"], report)
        return out

    def _checks(self, job, report):
        out = []
        failing = set(job.expect["failing"])
        checks = report.get("checks") or []
        if not checks:
            return ["report has no checks"]
        for c in checks:
            value, tol, verdict = c["value"], c["tolerance"], c["verdict"]
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                out.append(f"{c['name']}: non-finite value {value!r}")
                continue
            if not _is_flag(c) and verdict != (value < tol):
                out.append(f"{c['name']}: verdict {verdict} for {value!r}")
            if c["name"] in failing:
                if verdict or (not _is_flag(c) and value < tol):
                    out.append(f"{c['name']}: negative control passed")
            elif not verdict:
                out.append(f"{c['name']}: failed ({value!r} vs {tol!r})")
        missing = failing - {c["name"] for c in checks}
        out += [f"{name}: missing" for name in sorted(missing)]
        if report.get("pass") != all(c["verdict"] for c in checks):
            out.append("pass disagrees with the verdicts")
        return out

    def _linear(self, spec, report):
        kind, where = spec["where"]
        if kind == "check":
            value = next(c["value"] for c in report["checks"]
                         if c["name"] == where)
        else:
            value = _fitted(report, where)
        if not (math.isfinite(value) and value > 0.0):
            return [f"negative control value {value!r}"]
        seen = self.linear_seen.setdefault(spec["key"], {})
        seen[spec["eps"]] = value
        if len(seen) < 2:
            return []
        (e_small, v_small), (e_big, v_big) = sorted(seen.items())[:2]
        ratio = (v_big / v_small) / (e_big / e_small) * 10.0
        if not LINEAR_BAND[0] < ratio < LINEAR_BAND[1]:
            return [f"residual ratio {ratio:.3g} for an eps ratio of 10"]
        return []


def _b_coeffs(report, want):
    return _close(report["fitted"]["b_coeffs"], want)


def _weyl_minus_below(report, bound):
    v = report["fitted"]["weyl_minus"]
    return math.isfinite(v) and v < bound


def _weyl_minus_above(report, bound):
    v = report["fitted"]["weyl_minus"]
    return math.isfinite(v) and v > bound


def _null_field(report, name):
    """The symmetry d/dt of the null-Kaehler family is a null Killing
    field: g(K, K) and its exact Killing defect vanish."""
    rep = report["fitted"][name]
    return rep["null_defect"] < 1e-12 and rep["exact_killing"] < 1e-12


def _divisor_verdicts(report, want):
    return report["fitted"]["verdicts"] == want


def _multiplier(report, want):
    return all(_close(report["fitted"][name]["multiplier"], values)
               for name, values in want.items())


def _ward_f(report, want):
    """Transport along the geodesic equals exp(f(start) - f(end)) for
    rho = df, with the end point read from the report."""
    got = report["fitted"]["transport"]
    expected = ward_oracle(want["f"], want["start"], report["fitted"]["end"])
    return (math.isfinite(got)
            and abs(got - expected) <= WARD_REL * max(1.0, expected))


def _batch(report, scenes):
    subs = report["fitted"]["reports"]
    return (len(subs) == len(scenes)
            and [r["scene"] for r in subs] == list(scenes)
            and all(r["pass"] and all(math.isfinite(c["value"])
                                      for c in r["checks"]) for r in subs))


ORACLES = {
    "b_coeffs": _b_coeffs,
    "weyl_minus_below": _weyl_minus_below,
    "weyl_minus_above": _weyl_minus_above,
    "null_field": _null_field,
    "divisor_verdicts": _divisor_verdicts,
    "multiplier": _multiplier,
    "ward_f": _ward_f,
    "batch": _batch,
}
