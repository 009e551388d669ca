"""Acceptance gate: twelve numbered criteria, one test each.

Run with -s to see the PASS lines. Each test prints
"ACCEPTANCE nn <label>: PASS" only after every assertion in it held.
"""

import json
import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from tjdiv.centroids import (CentroidConfig, WeightedPointSet,
                             jensen_centroid_cccp, total_jensen_centroid)
from tjdiv.cli import canonical_dumps, main
from tjdiv.clustering import SeedingConfig, seed_indices, seeding_bound_experiment
from tjdiv.divergences import (bregman, conformal_factors, jensen_raw,
                               jensen_scaled, kl_gaussian, rho_b,
                               stolarsky_epsilon, total_jensen)
from tjdiv.generators import make_builtin
from tjdiv.geometry import geometric_oracle_tj, project_beta, pythagoras_residual
from tjdiv.kernels import pairwise_total_jensen
from tjdiv.robustness import boundedness_sweep, influence_analytic, influence_empirical

RANGES_1D = {
    "shannon": (0.1, 5.0),
    "burg": (0.1, 5.0),
    "bit": (0.05, 0.95),
    "squared-euclidean": (-4.0, 4.0),
}


def _passed(n, label, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {n:02d} {label}: PASS ({dt:.2f}s)")


def _draw_pair(rng, lo, hi, min_sep=0.0):
    # min_sep > 0 keeps chords long enough for double precision to
    # resolve the chord gap; identities are exact but not expressible
    # below the conditioning floor eps*|F|/gap
    p = rng.uniform(lo, hi)
    q = rng.uniform(lo, hi)
    while abs(q - p) <= min_sep:
        q = rng.uniform(lo, hi)
    return p, q


def test_criterion_01_counterexample(capsys):
    t0 = time.perf_counter()
    code = main(["metric-check"])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["d1"] - 0.35128346734040883) < 1e-10
    assert abs(res["d2"] - 0.39644485899866616) < 1e-10
    assert abs(res["d3"] - 0.7906141593521927) < 1e-10
    assert abs(res["deficiency"] - 0.04288583301311766) < 1e-10
    assert res["triangle_violated"] is True
    _passed(1, "square-root counterexample", t0, budget=1.0)


def test_criterion_02_geometric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    names = list(RANGES_1D)
    for trial in range(1000):
        name = names[trial % 4]
        g = make_builtin(name)
        lo, hi = RANGES_1D[name]
        p, q = _draw_pair(rng, lo, hi)
        alpha = rng.uniform(0.05, 0.95)
        oracle = geometric_oracle_tj(g, alpha, [p], [q])
        formula = conformal_factors(g, [p], [q]).rho_j \
            * jensen_raw(g, alpha, [p], [q]).value
        assert abs(oracle - formula) / max(formula, 1e-300) < 1e-9
        spun = geometric_oracle_tj(g, alpha, [p], [q],
                                   rotation=rng.uniform(0.0, 2.0 * math.pi))
        assert abs(spun - oracle) <= 1e-12
    _passed(2, "cross-section oracle equivalence", t0, budget=5.0)


def test_criterion_03_conformal_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)

    g = make_builtin("shannon")
    for _ in range(100):
        p, q = _draw_pair(rng, 0.1, 6.0)
        slope = (p * math.log(p) - q * math.log(q) - (p - q)) / (p - q)
        assert abs(conformal_factors(g, [p], [q]).rho_j
                   - 1.0 / math.sqrt(1.0 + slope * slope)) < 1e-12
        assert abs(rho_b(g, [q])
                   - 1.0 / math.sqrt(1.0 + math.log(q) ** 2)) < 1e-12

    g = make_builtin("burg")
    for _ in range(100):
        p, q = _draw_pair(rng, 0.1, 6.0)
        slope = math.log(q / p) / (p - q)
        assert abs(conformal_factors(g, [p], [q]).rho_j
                   - 1.0 / math.sqrt(1.0 + slope * slope)) < 1e-12
        assert abs(rho_b(g, [q]) - 1.0 / math.sqrt(1.0 + 1.0 / q ** 2)) < 1e-12

    g = make_builtin("bit")
    ent = lambda x: x * math.log(x) + (1.0 - x) * math.log(1.0 - x)
    for _ in range(100):
        p, q = _draw_pair(rng, 0.05, 0.95)
        slope = (ent(p) - ent(q)) / (p - q)
        assert abs(conformal_factors(g, [p], [q]).rho_j
                   - 1.0 / math.sqrt(1.0 + slope * slope)) < 1e-12
        assert abs(rho_b(g, [q])
                   - 1.0 / math.sqrt(1.0 + math.log(q / (1.0 - q)) ** 2)) < 1e-12

    for _ in range(100):
        a = rng.normal(size=(2, 2))
        mat = a.T @ a + 0.5 * np.eye(2)
        g = make_builtin("squared-mahalanobis", 2, matrix=mat)
        p = rng.normal(size=2)
        q = rng.normal(size=2)
        df = 0.5 * (p @ mat @ p - q @ mat @ q)
        dd = (p - q) @ (p - q)
        assert abs(conformal_factors(g, p, q).rho_j
                   - 1.0 / math.sqrt(1.0 + df * df / dd)) < 1e-12
        assert abs(rho_b(g, q)
                   - 1.0 / math.sqrt(1.0 + q @ mat @ mat @ q)) < 1e-12
    _passed(3, "conformal-factor closed forms", t0)


def test_criterion_04_projection_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    names = list(RANGES_1D)
    for trial in range(1000):
        name = names[trial % 4]
        g = make_builtin(name)
        lo, hi = RANGES_1D[name]
        p, q = _draw_pair(rng, lo, hi, min_sep=0.05 * (hi - lo))
        alpha = rng.uniform(0.05, 0.95)
        assert pythagoras_residual(g, alpha, [p], [q]) < 1e-10
        res = project_beta(g, alpha, [p], [q])
        df = float(g.f(np.array([p])) - g.f(np.array([q])))
        dd = (p - q) ** 2
        jraw = jensen_raw(g, alpha, [p], [q]).value
        assert abs((alpha - res.beta) - df / (dd + df * df) * jraw) < 1e-12

    g = make_builtin("shannon")
    low = project_beta(g, 1e-5, [3.0], [1e-12])
    assert low.beta < 0.0
    assert low.beta == pytest.approx(-1.2438194835576318e-06, rel=1e-9)
    assert pythagoras_residual(g, 1e-5, [3.0], [1e-12]) < 1e-10
    high = project_beta(g, 1.0 - 1e-5, [1e-12], [3.0])
    assert high.beta > 1.0
    assert high.beta == pytest.approx(1.0 - low.beta, abs=1e-12)
    assert pythagoras_residual(g, 1.0 - 1e-5, [1e-12], [3.0]) < 1e-10
    _passed(4, "foot-of-projection identities", t0)


def test_criterion_05_limit_behavior():
    t0 = time.perf_counter()
    for name in ("shannon", "burg"):
        g = make_builtin(name)
        b = bregman(g, [2.0], [1.0]).value
        gaps = [abs(jensen_scaled(g, a, [2.0], [1.0]).value - b)
                for a in (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]

    g = make_builtin("shannon")
    p = 1.5
    errs = []
    for h in (1e-2, 1e-4, 1e-6):
        q = p * (1.0 + h)
        errs.append(abs(conformal_factors(g, [p], [q]).rho_j
                        / rho_b(g, [q]) - 1.0))
    assert 50.0 < errs[0] / errs[1] < 200.0
    assert 50.0 < errs[1] / errs[2] < 200.0
    _passed(5, "Bregman limits and factor merge rate", t0)


def test_criterion_06_chord_slope_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    for name in ("shannon", "burg", "squared-euclidean"):
        g = make_builtin(name)
        blind = replace(g, grad_inverse=None)
        lo, hi = RANGES_1D[name]
        for _ in range(1000):
            p, q = _draw_pair(rng, lo, hi)
            eps = stolarsky_epsilon(g, [p], [q])
            assert abs(conformal_factors(g, [p], [q]).rho_j
                       - rho_b(g, [eps])) < 1e-9
            assert abs(eps - stolarsky_epsilon(blind, [p], [q])) < 1e-10
    _passed(6, "chord-slope point equivalence", t0)


def test_criterion_07_influence_functions():
    t0 = time.perf_counter()
    gs = make_builtin("shannon")
    gb = make_builtin("burg")
    for p in np.linspace(0.1, 5.0, 25):
        for y in np.linspace(0.1, 50.0, 30):
            want = 2.0 * p * math.log((p + y) / (2.0 * p))
            assert abs(influence_analytic(gs, p, y) - want) \
                <= 1e-12 * max(1.0, abs(want))
            want = 2.0 * p * (y - p) / (y + p)
            assert abs(influence_analytic(gb, p, y) - want) \
                <= 1e-12 * max(1.0, abs(want))

    for g in (gs, gb):
        z = influence_analytic(g, 1.0, 10.0)
        errs = [abs(influence_empirical(g, 1.0, 10.0, e).x_tilde
                    - (1.0 + e * z)) for e in (1e-3, 1e-4)]
        assert 20.0 < errs[0] / errs[1] < 500.0

    rep = boundedness_sweep(gb, 1.0, 1e9)
    assert rep.sup_abs_z <= 2.0 + 1e-3

    rep = boundedness_sweep(gs, 1.0, 1e9)
    decade = np.floor(np.log10(rep.ys / rep.ys[0]) - 1e-12).astype(int)
    maxima = [np.abs(rep.z_values[decade == d]).max()
              for d in range(decade.max() + 1)]
    assert all(a < b for a, b in zip(maxima, maxima[1:]))
    _passed(7, "influence closed forms and sweeps", t0, budget=10.0)


def _grid_total_loss(g, pts, w, alpha, lo, hi, step=1e-5):
    c = np.arange(lo, hi, step)
    total = np.zeros_like(c)
    for x, wi in zip(pts, w):
        fx = float(g.f(np.array([x])))
        fc = g.f(c.reshape(-1, 1)).ravel()
        fm = g.f((alpha * x + (1.0 - alpha) * c).reshape(-1, 1)).ravel()
        jraw = alpha * fx + (1.0 - alpha) * fc - fm
        d = x - c
        df = fx - fc
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = 1.0 / np.sqrt(1.0 + df * df / (d * d))
        total += wi * np.where(d == 0.0, 0.0,
                               rho * jraw / (alpha * (1.0 - alpha)))
    return float(total.min())


def test_criterion_08_centroids():
    t0 = time.perf_counter()
    datasets = ([2.0, 3.0, 4.0], [1.0, 1.5, 2.0], [1.0, 1.3, 1.7, 2.2])
    for name, pts in product(("shannon", "burg"), datasets):
        g = make_builtin(name)
        data = WeightedPointSet.make(np.reshape(pts, (-1, 1)))
        for a in (0.3, 0.5, 0.7):
            _, losses = jensen_centroid_cccp(g, a, data, iters=25,
                                             trace_loss=True)
            diffs = np.diff(losses)
            assert np.all(
                diffs <= 1e-12 * np.maximum(1.0, np.abs(losses[:-1])))
        res = total_jensen_centroid(g, data)
        best = min(res.loss_trace)
        grid_min = _grid_total_loss(g, pts, data.weights, 0.5,
                                    0.3 * min(pts), 1.7 * max(pts))
        assert best - grid_min <= 1e-4
        assert best >= grid_min - 1e-8
    _passed(8, "centroid loss against grid oracle", t0, budget=30.0)


def test_criterion_09_seeding_bound_and_frequencies():
    t0 = time.perf_counter()
    g = make_builtin("shannon")
    X = np.array([0.4, 0.7, 1.1, 1.6, 2.3, 3.1, 4.0, 5.2, 6.5, 8.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(
        g, X, SeedingConfig(k=2, rng_seed=424242),
        eps_grid=(0.5,), trials=2000)
    assert rep.ratio >= 1.0 - 1e-12
    mult = rep.curve[0]["multiplier"]
    if math.isfinite(mult):
        assert rep.ratio <= mult

    Y = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    n = len(Y)
    probs = np.zeros((n, n))
    for i in range(n):
        tj = pairwise_total_jensen(g, 0.5, Y, np.broadcast_to(Y[i], Y.shape))
        probs[i] = (1.0 / n) * tj / tj.sum()
    counts = np.zeros((n, n))
    draws = 100000
    for s in range(draws):
        i, j = seed_indices(g, Y, SeedingConfig(k=2, rng_seed=s))
        counts[i, j] += 1
    for i in range(n):
        for j in range(n):
            if i == j:
                assert counts[i, j] == 0
                continue
            sigma = math.sqrt(draws * probs[i, j] * (1.0 - probs[i, j]))
            assert abs(counts[i, j] - draws * probs[i, j]) <= 4.0 * sigma
    _passed(9, "seeding bound and exact frequencies", t0, budget=60.0)


def test_criterion_10_conformal_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    boxes = {
        "shannon": (0.2, 5.0),
        "burg": (0.2, 5.0),
        "bit": (0.1, 0.9),
        "squared-euclidean": (-3.0, 3.0),
    }
    for name, (lo, hi) in boxes.items():
        g = make_builtin(name)
        ga, gb_ = float(g.grad(np.array([lo]))[0]), float(g.grad(np.array([hi]))[0])
        rho_lo = 1.0 / math.sqrt(1.0 + max(ga * ga, gb_ * gb_))
        rho_hi = 1.0 if ga * gb_ <= 0.0 \
            else 1.0 / math.sqrt(1.0 + min(ga * ga, gb_ * gb_))
        alpha = rng.uniform(0.05, 0.95)
        p = rng.uniform(lo, hi, size=(10000, 1))
        q = rng.uniform(lo, hi, size=(10000, 1))
        tj = pairwise_total_jensen(g, alpha, p, q)
        scaled = (alpha * g.f(p) + (1.0 - alpha) * g.f(q)
                  - g.f(alpha * p + (1.0 - alpha) * q)) / (alpha * (1.0 - alpha))
        tol = 1e-12 * np.maximum(1.0, np.abs(scaled))
        low_break = tj < rho_lo * scaled - tol
        high_break = tj > rho_hi * scaled + tol
        assert int(low_break.sum()) == 0
        assert int(high_break.sum()) == 0
    _passed(10, "conformal sandwich over compact boxes", t0)


def test_criterion_11_gaussian_kl_rigidity():
    t0 = time.perf_counter()
    assert abs(kl_gaussian([0.0], [[1.0]], [1.0], [[1.0]]).value - 0.5) < 1e-12
    rng = np.random.default_rng(1011)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        mu1, mu2 = rng.normal(size=d), rng.normal(size=d)
        a1 = rng.normal(size=(d, d))
        a2 = rng.normal(size=(d, d))
        c1 = a1 @ a1.T + 0.5 * np.eye(d)
        c2 = a2 @ a2.T + 0.5 * np.eye(d)
        raw = rng.normal(size=(d, d))
        rot, _ = np.linalg.qr(raw)
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        shift = rng.normal(size=d)
        before = kl_gaussian(mu1, c1, mu2, c2).value
        after = kl_gaussian(rot @ mu1 + shift, rot @ c1 @ rot.T,
                            rot @ mu2 + shift, rot @ c2 @ rot.T).value
        assert abs(before - after) < 1e-9
    _passed(11, "Gaussian KL rigid-motion invariance", t0)


def test_criterion_12_stochastic_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    data = tmp_path / "pts.csv"
    data.write_text("0.4\n0.7\n1.1\n1.6\n2.3\n3.1\n4.0\n5.2\n6.5\n8.0\n",
                    encoding="utf-8")
    small = tmp_path / "small.csv"
    small.write_text("0.5\n1.0\n2.0\n4.0\n8.0\n", encoding="utf-8")
    commands = [
        ["seed", "--input", str(data), "--k", "2"],
        ["cluster", "--input", str(data), "--k", "2"],
        ["bound-experiment", "--input", str(small), "--k", "2",
         "--trials", "20"],
        ["metric-check", "--search", "--trials", "50"],
    ]
    for argv in commands:
        assert main(list(argv)) == 0
        rep1 = json.loads(capsys.readouterr().out)
        echoed = rep1["command"]["rng_seed"]
        assert isinstance(echoed, int)
        assert main(list(argv) + ["--rng-seed", str(echoed)]) == 0
        rep2 = json.loads(capsys.readouterr().out)
        assert canonical_dumps(rep1["results"]) \
            == canonical_dumps(rep2["results"])
    _passed(12, "seeded re-runs are byte-identical", t0)
