"""Closed-form oracles for the benchmark's results, and the list of known
defects its failures are matched against.

Every check returns None when the result is accepted and a one-line
problem otherwise.  Nothing here imports poncelet: the oracles are
independent of the code they judge.
"""

import json
import math

#: Slack allowed on a value the program reports as exact (error radius 0).
EXACT_SLACK = 1e-12
#: Bound on the closure residual of an n-Poncelet pair, in radians.
CLOSURE_TOL = 1e-8
#: Relative agreement required between a found radius and its closed form.
RADIUS_RTOL = 1e-9
#: Bound on the analytic-vs-geometric residual column of `poncelet orbit`.
ORBIT_RESIDUAL_TOL = 1e-9

# Documented exit codes of the command line.
EXIT_OK = 0
EXIT_CONFIG = 2


def totient(n):
    """Euler's totient by counting, independent of the program's own."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def euler_radius(R, c):
    """Inner radius closing triangles (Euler: d^2 = R^2 - 2 R t)."""
    return (R * R - c * c) / (2.0 * R)


def fuss_radius(R, c):
    """Inner radius closing quadrilaterals (Fuss)."""
    return (R * R - c * c) / math.sqrt(2.0 * (R * R + c * c))


def concentric_rotation(R, t):
    """r(t) = arccos(t / R) / pi for concentric circles."""
    return math.acos(min(t / R, 1.0)) / math.pi


def staircase_expected(R, c, t, label):
    """Exact rotation number of the staircase point, or None when no
    closed form is known for it (off-centre interior points)."""
    if label == "start":
        return 0.5
    if label == "end":
        return 0.0
    if label == "triangle":
        return 1.0 / 3.0
    if label == "quad":
        return 0.25
    if c == 0.0:
        return concentric_rotation(R, t)
    return None


def check_estimate(value, error_radius, expected):
    """A rotation estimate must contain the exact value in its radius."""
    if abs(value - expected) <= error_radius + EXACT_SLACK:
        return None
    return (f"estimate {value!r} +- {error_radius!r} misses "
            f"exact {expected!r}")


def check_staircase(R, c, points, violations):
    """Problems per point of one staircase grid.

    `points` holds (t, label, value, error_radius); `violations` holds the
    (t1, t2, defect) monotonicity violations the program reported.  A
    violation is charged to its later point, where the staircase saw it.
    """
    problems = []
    for t, label, value, radius in points:
        expected = staircase_expected(R, c, t, label)
        problems.append(None if expected is None
                        else check_estimate(value, radius, expected))
    for t1, t2, defect in violations:
        for i, (t, _, _, _) in enumerate(points):
            if t == t2 and problems[i] is None:
                problems[i] = (f"monotone verdict broken on [{t1!r}, {t2!r}]"
                               f" (defect {defect!r})")
    return problems


def check_count(R, c, n, pairs):
    """One `count_poncelet_pairs` result, given as (t, p, residual) rows."""
    want = totient(n) // 2
    if len(pairs) != want:
        return f"n={n}: {len(pairs)} pairs, totient(n)/2 = {want}"
    for t, p, residual in pairs:
        if not residual < CLOSURE_TOL:
            return f"n={n}, p={p}: closure residual {residual!r}"
    closed = {3: euler_radius, 4: fuss_radius}.get(n)
    if closed is not None:
        t_want = closed(R, c)
        if not any(abs(t - t_want) <= RADIUS_RTOL * t_want
                   for t, _, _ in pairs):
            found = [t for t, _, _ in pairs]
            return f"n={n}: radii {found!r}, closed form {t_want!r}"
    return None


def check_growth(status, passed):
    """A second-order estimate at a golden-mean value must apply and pass."""
    if status != "ok":
        return f"status {status!r}, expected 'ok'"
    if not passed:
        return "best ratio below the second-order bound"
    return None


def check_exit(expected, got):
    if got == expected:
        return None
    return f"exit {got}, documented {expected}"


def check_orbit_csv(text, steps):
    """`poncelet orbit` CSV: steps + 1 rows, residual column within tol."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if "residual" not in header:
        return "no residual column"
    rows = lines[1:]
    if len(rows) != steps + 1:
        return f"{len(rows)} rows, expected {steps + 1}"
    col = header.index("residual")
    worst = max(float(row.split(",")[col]) for row in rows)
    if not worst <= ORBIT_RESIDUAL_TOL:
        return f"orbit residual {worst!r} > {ORBIT_RESIDUAL_TOL}"
    return None


def check_cf_json(text, samples):
    """`poncelet cf --random N`: N reports, no remainder-bound violation."""
    payload = json.loads(text)
    if len(payload["reports"]) != samples:
        return f"{len(payload['reports'])} reports, expected {samples}"
    if payload["total_bound_violations"] != 0:
        return f"{payload['total_bound_violations']} bound violations"
    return None


def check_count_json(text, n_min, n_max):
    """`poncelet count`: every n has totient(n)/2 pairs."""
    payload = json.loads(text)
    got = {r["n"]: r["count"] for r in payload["results"]}
    want = {n: totient(n) // 2 for n in range(n_min, n_max + 1)}
    if got != want:
        return f"counts {got}, totient/2 {want}"
    return None


# Known defects: failures the benchmark counts, but that do not make the
# run incorrect.  Each entry names the workload, a predicate on the failed
# case and the oracle's problem, and the defect.  A failure no entry
# matches marks the run incorrect.
KNOWN_DEFECTS = [
    ("staircase",
     lambda case, problem: case["label"] == "end" and case["c"] > 0.0,
     "false rational lock at internal tangency t = R - c (true value 0)"),
    ("count",
     lambda case, problem: case["c"] in (0.6, 0.9),
     "near-tangency count: pairs lost to the tangency false lock or "
     "closure residual >= 1e-8"),
    ("growth",
     lambda case, problem: case["label"] == "poncelet"
     and "NoSolutionError" in problem and "outside estimated image" in problem,
     "tangency false lock puts r(s = 0) above the golden-mean target"),
    ("cli",
     lambda case, problem: case["label"] in ("staircase-points-1",
                                             "cf-x-inf")
     and case.get("exit") == 1,
     "traceback (exit 1) instead of the documented exit 2"),
]


def known_defect(workload, case, problem):
    """Name of the known defect a failed case matches, or None."""
    for name, matches, defect in KNOWN_DEFECTS:
        if name == workload and matches(case, problem):
            return defect
    return None
