"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single PASS/FAIL
line; tolerances are pinned in the assertions.
"""

import math
import random
import time

import numpy as np

from poncelet.cli import main as cli_main
from poncelet.confrac import (
    cf_expand,
    fibonacci_reciprocal_sum,
    find_balanced_pairs,
    k_epsilon,
    remainder_series,
    second_order_bound,
)
from poncelet.families import arnold_family, rigid_family
from poncelet.geometry import (
    TWO_PI,
    PonceletConfig,
    area_twist_check,
    generating_potential,
    poncelet_map_analytic,
    poncelet_map_geometric,
    twist_map,
)
from poncelet.lifts import PonceletLift
from poncelet.rotation import count_poncelet_pairs, euler_totient, \
    find_parameter_for_value, rotation_number
from poncelet.families import poncelet_family
from poncelet.twistfam import second_order_estimate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def circ_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def test_criterion_1_concentric_rotation_oracle():
    start = time.perf_counter()
    ok = True
    for t in np.linspace(0.0, 1.0, 101):
        est = rotation_number(PonceletLift(PonceletConfig(1.0, 0.0, t)),
                              tol=1e-4)
        want = math.acos(min(t, 1.0)) / math.pi
        ok = ok and abs(est.value - want) <= est.error_radius + 1e-9
    elapsed = time.perf_counter() - start
    report(1, "concentric rotation oracle", ok and elapsed < 30.0)


def test_criterion_2_pair_counting():
    start = time.perf_counter()
    ok = True
    for c in (0.0, 0.3):
        family = poncelet_family(1.0, c)
        for n in range(3, 13):
            rep = count_poncelet_pairs(family, n)
            ok = ok and len(rep.pairs) == euler_totient(n) // 2
            ok = ok and all(p.closure_residual < 1e-8 for p in rep.pairs)
    elapsed = time.perf_counter() - start
    report(2, "pair count equals totient/2", ok and elapsed < 300.0)


def test_criterion_3_map_consistency():
    rng = np.random.default_rng(3)
    ok = True
    configs = [(c, t) for c in (0.0, 0.2, 0.4) for t in (0.1, 0.3, 0.5)]
    per_config = 10_000 // len(configs) + 1
    for c, t in configs:
        cfg = PonceletConfig(1.0, c, t)
        for theta in rng.uniform(0.0, TWO_PI, per_config):
            theta_p, phi = poncelet_map_geometric(theta, cfg)
            pred = poncelet_map_analytic(theta, phi, cfg)
            ok = ok and circ_dist(pred[0], theta_p, TWO_PI) < 1e-9
    report(3, "analytic/geometric agreement", ok)


def test_criterion_4_area_and_twist():
    rng = np.random.default_rng(4)
    cfg = PonceletConfig(1.0, 0.4, 0.2)
    ok = True
    for x, y in rng.uniform(0.0, 1.0, (1000, 2)):
        det, d12 = area_twist_check(x, y, cfg)
        ok = ok and abs(det - 1.0) < 1e-5 and abs(d12 - 1.0) < 1e-8
    report(4, "area preservation and twist condition", ok)


def test_criterion_5_generating_relation():
    rng = np.random.default_rng(5)
    cfg = PonceletConfig(1.0, 0.3, 0.0)
    h = 1e-6
    ok = True
    for x, x_p in rng.uniform(0.0, 1.0, (100, 2)):
        y = x + x_p - 0.5
        _, y_p = twist_map(x, y, cfg)
        d1 = (generating_potential(x + h, x_p, cfg)
              - generating_potential(x - h, x_p, cfg)) / (2.0 * h)
        d2 = (generating_potential(x, x_p + h, cfg)
              - generating_potential(x, x_p - h, cfg)) / (2.0 * h)
        ok = ok and abs(d1 + y) < 1e-6 and abs(d2 - y_p) < 1e-6
    report(5, "generating-function relation", ok)


def test_criterion_6_remainder_bound():
    F = fibonacci_reciprocal_sum(1e-15)
    rng = random.Random(6)
    violations = 0
    for _ in range(100):
        for rec in remainder_series(cf_expand(rng.random()), n_max=25):
            if abs(rec.remainder) > F:
                violations += 1
    report(6, "log-denominator remainder bound", violations == 0)


def test_criterion_7_gap_inequality():
    rng = random.Random(7)
    xs = [rng.random() for _ in range(50)]
    ok = True
    checked = 0
    for eps in (0.1, 0.5):
        for x in xs:
            for pair in find_balanced_pairs(cf_expand(x), eps=eps):
                checked += 1
                ok = ok and pair.gap_ok
    report(7, "exact-rational gap inequality", ok and checked > 0)


def test_criterion_8_second_order_growth():
    rigid = second_order_estimate(rigid_family(), GOLDEN, tol=1e-5)
    ok = rigid.status == "ok" and rigid.passed

    family = arnold_family(0.7)
    tau = find_parameter_for_value(family, GOLDEN, tol=1e-5)
    arnold = second_order_estimate(family, tau, tol=1e-5)
    ok = ok and arnold.status == "ok" and arnold.passed

    # the bound constant is the eps -> 0 limit of the gap constant
    ok = ok and abs(second_order_bound(1.0) - k_epsilon(1e-6)) < 1e-12
    report(8, "second-order growth bound", ok)


def test_criterion_9_deterministic_output(tmp_path):
    argv = ["count", "--n-min", "3", "--n-max", "6", "--c", "0.3"]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    report(9, "byte-identical reruns", ok)
