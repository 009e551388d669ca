"""The four benchmark workloads: inputs, the op, and its output checks.

Inputs depend only on the workload seed and are made with numpy alone;
tjdiv sees nothing but the generated CSV files or arrays. Every op of a
workload does the same amount of work whatever the seed, so op timings
from different seeds are comparable.

Nothing here imports tjdiv at module level: the set-up probe imports
this module only after it has timed the cold `import tjdiv`.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from statistics import NormalDist

import numpy as np

import reference as ref

ALPHA = 0.5  # the CLI's and the library's default skew


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark-side reference."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def write_csv(path, x):
    # repr is the shortest round-trip form, so the CLI parses back the
    # exact doubles the checks use
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in x.tolist()))
        fh.write("\n")


def run_cli(argv):
    """One in-process `tjdiv` invocation; returns its stdout report."""
    from tjdiv import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def results_block(report_text):
    """The canonical `results` bytes of a CLI report (keys are sorted, so
    `timings` follows `results`)."""
    start = report_text.index('"results":')
    end = report_text.rindex(',"timings":')
    return report_text[start:end].encode()


class Workload:
    name = ""
    why = ""
    imports = ("tjdiv",)  # modules whose cold import is part of set-up
    warmup_ops = 1   # untimed ops before the clock starts
    replays = 0      # ops re-run after the timed phase to test repeatability

    def make_inputs(self, seed, workdir):
        raise NotImplementedError

    def construct(self, inputs):
        """Calls into tjdiv made once before the first op (timed as set-up)."""
        return None

    def op(self, state, i):
        raise NotImplementedError

    def key(self, i):
        """Ops with equal keys must give byte-identical results."""
        return 0

    def fingerprint(self, out):
        raise NotImplementedError

    def check(self, inputs, out):
        raise NotImplementedError

    def new_tally(self):
        """Running summary of the timed outputs, for check_all."""
        return None

    def tally(self, tally, out):
        pass

    def check_all(self, inputs, tally):
        """Check over all timed outputs together; raise CheckFailed."""


class Cluster20k(Workload):
    name = "cluster-20k"
    why = ("CLI cluster, shannon, k=8, 3 rounds x 5 centroid stages on a "
           "20000x4 lognormal-noise 8-mixture CSV: the large-n path (per-row "
           "validation, CCCP, assignment sweep, CSV parse)")
    # Both caps bind on every seed, so each op does the same work. With only
    # --max-rounds 6, Lloyd stopped after 4 to 6 rounds and centroids after
    # 8 to 12 stages depending on the seed, and op times ranged from 1.7 s
    # to 4.1 s (2-vCPU Xeon VM, numpy backend)
    n, d, k, rounds, stages = 20000, 4, 8, 3, 5
    imports = ("tjdiv", "tjdiv.cli")

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        centres = rng.uniform(0.5, 6.0, size=(self.k, self.d))
        comp = rng.permutation(np.arange(self.n) % self.k)
        x = centres[comp] * rng.lognormal(0.0, 0.15, size=(self.n, self.d))
        path = os.path.join(workdir, f"{self.name}.csv")
        write_csv(path, x)
        return {"x": x, "rows": self.n,
                "argv": ["cluster", "--input", path, "--generator", "shannon",
                         "--k", str(self.k), "--max-rounds", str(self.rounds),
                         "--outer-max", str(self.stages),
                         "--rng-seed", str(seed)]}

    def construct(self, inputs):
        return inputs["argv"]

    def op(self, argv, i):
        return run_cli(argv)

    def fingerprint(self, out):
        return results_block(out)

    def check(self, inputs, out):
        res = json.loads(out)["results"]
        x = inputs["x"]
        centers = np.asarray(res["centers"], dtype=np.float64)
        assign = np.asarray(res["assignments"], dtype=np.int64)
        _require(res["k"] == self.k and res["n_points"] == self.n,
                 "k or n_points echoed wrong")
        _require(1 <= res["rounds"] <= self.rounds, f"rounds {res['rounds']}")
        _require(centers.shape == (self.k, self.d), "centres have wrong shape")
        _require(bool(np.all(centers > 0.0)), "centre outside the domain")
        _require(assign.shape == (self.n,) and assign.min() >= 0
                 and assign.max() < self.k, "assignments out of range")
        dmat = ref.divergence_matrix(ref.shannon_f, ALPHA, x, centers)
        best = dmat.min(axis=1)
        held = dmat[np.arange(self.n), assign]
        bad = int((held > best + 1e-9 * best).sum())
        _require(not bad, f"{bad} points not assigned to their argmin centre")
        _require(ref.close(float(held.sum()), res["potential"], 1e-9),
                 f"potential {res['potential']!r} vs reference {held.sum()!r}")


class CentroidWide(Workload):
    name = "centroid-wide"
    why = ("total_jensen_centroid, shannon, d=16, default config on 20000x16 "
           "lognormal(0.5,0.6) with 2% outliers x U[20,100]: bulk kernel math "
           "with a single validation pass")
    n, d = 20000, 16

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        x = rng.lognormal(0.5, 0.6, size=(self.n, self.d))
        out = rng.choice(self.n, size=self.n // 50, replace=False)
        x[out] *= rng.uniform(20.0, 100.0, size=(len(out), 1))
        return {"x": x, "rows": self.n}

    def construct(self, inputs):
        from tjdiv import centroids, generators
        g = generators.make_builtin("shannon", self.d)
        data = centroids.WeightedPointSet.make(inputs["x"])
        return g, data, centroids.CentroidConfig()

    def op(self, state, i):
        from tjdiv import centroids
        return centroids.total_jensen_centroid(*state)

    def fingerprint(self, res):
        return (res.center.tobytes()
                + np.asarray(res.loss_trace, dtype=np.float64).tobytes()
                + repr((res.iterations, res.converged)).encode())

    def _loss(self, x, c):
        tj = ref.total_jensen(ref.shannon_f, ALPHA, x, c[None, :])
        return float(tj.mean())

    def check(self, inputs, res):
        x = inputs["x"]
        c = np.asarray(res.center, dtype=np.float64)
        _require(c.shape == (self.d,) and bool(np.all(c > 0.0)),
                 "centre has the wrong shape or leaves the domain")
        best = min(float(v) for v in res.loss_trace)
        loss = self._loss(x, c)
        _require(ref.close(loss, best, 1e-9),
                 f"loss at centre {loss!r} vs best_loss {best!r}")
        bary = self._loss(x, x.mean(axis=0))
        _require(loss <= bary * (1.0 + 1e-12),
                 f"loss at centre {loss!r} exceeds barycenter loss {bary!r}")


class SeedDraws(Workload):
    name = "seed-draws"
    why = ("seed_indices(k=2) on the 5 points [0.5,1,2,4,8], rng_seed base+i "
           "per op: fixed per-call cost (validation, RNG set-up, tiny "
           "assignment) with no bulk math")
    points = (0.5, 1.0, 2.0, 4.0, 8.0)
    warmup_ops = 200
    replays = 256

    def make_inputs(self, seed, workdir):
        # disjoint rng_seed ranges per workload seed; ops use base + i
        y = np.asarray(self.points, dtype=np.float64).reshape(-1, 1)
        return {"y": y, "base": int(seed) * 10 ** 7, "rows": len(y)}

    def construct(self, inputs):
        from tjdiv import generators
        g = generators.make_builtin("shannon", 1)
        return g, inputs["y"], inputs["base"]

    def op(self, state, i):
        from tjdiv import clustering
        g, y, base = state
        return clustering.seed_indices(
            g, y, clustering.SeedingConfig(k=2, rng_seed=base + i))

    def key(self, i):
        return i

    def fingerprint(self, idx):
        return np.asarray(idx, dtype=np.int64).tobytes()

    def check(self, inputs, idx):
        idx = np.asarray(idx)
        _require(idx.shape == (2,), f"expected 2 indices, got {idx.shape}")
        _require(0 <= idx.min() and idx.max() < len(self.points),
                 f"index out of range: {idx.tolist()}")
        _require(idx[0] != idx[1], f"drew one point twice: {idx.tolist()}")

    def pair_probabilities(self, y):
        """Exact P(first = i, second = j): uniform first draw, second
        proportional to tJ(y_j : y_i)."""
        d = ref.divergence_matrix(ref.shannon_f, ALPHA, y, y)  # d[j, i]
        return (d / d.sum(axis=0, keepdims=True)).T / len(y)

    def new_tally(self):
        return np.zeros((len(self.points), len(self.points)))

    def tally(self, counts, idx):
        counts[int(idx[0]), int(idx[1])] += 1

    def check_all(self, inputs, counts):
        # A 4 sigma test on each of the 20 ordered pairs would raise a
        # false alarm in about one run of 800. Each pair is held instead to
        # the level (4.66 sigma) at which all 20 together false-alarm as
        # rarely as one 4 sigma test, about once in 16000 runs.
        n = counts.sum()
        p = self.pair_probabilities(inputs["y"])
        pairs = int((p > 0.0).sum())
        normal = NormalDist()
        z = normal.inv_cdf(1.0 - (1.0 - normal.cdf(4.0)) / pairs)
        sigma = np.sqrt(n * p * (1.0 - p))
        bad = np.argwhere(np.abs(counts - n * p) > z * sigma + 1e-9)
        _require(not len(bad), f"pair frequencies beyond {z:.2f} sigma "
                 f"(family-wise 4 sigma) at {bad.tolist()}")


class BoundExperiment(Workload):
    name = "bound-experiment"
    why = ("CLI bound-experiment, burg, k=3, 1000 trials on a 24x2 "
           "lognormal(0,0.7) CSV: the brute-force optimum, spawned-stream "
           "trials and bound constants")
    n, d, k, trials = 24, 2, 3, 1000
    imports = ("tjdiv", "tjdiv.cli")

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        x = rng.lognormal(0.0, 0.7, size=(self.n, self.d))
        path = os.path.join(workdir, f"{self.name}.csv")
        write_csv(path, x)
        opt = ref.brute_force_optimum(ref.burg_f, ALPHA, x, self.k)
        return {"x": x, "opt": opt, "rows": self.n,
                "argv": ["bound-experiment", "--input", path,
                         "--generator", "burg", "--k", str(self.k),
                         "--trials", str(self.trials),
                         "--rng-seed", str(seed)]}

    def construct(self, inputs):
        return inputs["argv"]

    def op(self, argv, i):
        return run_cli(argv)

    def fingerprint(self, out):
        return results_block(out)

    def check(self, inputs, out):
        res = json.loads(out)["results"]
        _require(res["k"] == self.k and res["trials"] == self.trials,
                 "k or trials echoed wrong")
        opt = inputs["opt"]
        _require(ref.close(res["opt_potential"], opt, 1e-9),
                 f"opt_potential {res['opt_potential']!r} vs {opt!r}")
        _require(res["mean_potential"] >= opt * (1.0 - 1e-9),
                 "mean seeded potential below the optimum")


WORKLOADS = {w.name: w for w in (
    Cluster20k(), CentroidWide(), SeedDraws(), BoundExperiment())}
