"""Fingerprint the seeded CLI `results` blocks of one tjdiv source tree.

Writes fixed-seed CSV datasets (400 rows at d = 1, 2, 4, 8, 16, a 24x2
file, a file of repeated rows, the 24x2 points again under a header with
a weight column and a blank line, 9000 rows at d = 16 and the same rows
mapped into (0, 1), two 4x2 files within 1e-13 of a domain end:
shannon's at 1e-14 scale, bit's near 1, and five points at d = 1 with
their image in (0, 1), one row [1.5, 2] and three 2-d rows, one on
shannon's boundary) to a temporary directory, runs
the seeded cluster, seed, centroid, bound-experiment, constants,
influence, divergence, project and metric-check commands in process
(among them a cluster run whose sweeps re-seed an empty cluster,
bound experiments on 400 rows at d = 16 and, for squared-mahalanobis,
at d = 2, whose tables take several groups of centres per row block,
centroids on the 9000-row files, whose CCCP stages span two row blocks,
for shannon, burg, bit and squared-mahalanobis, centroids on the two
files near a domain end, the Jensen-Shannon kinds at p = q, the Bregman
kinds on every builtin, total-bregman on burg at q = 1e-200, where
|grad F|^2 overflows, jensen-scaled and total-jensen at alpha = 0 and 1,
total-jensen with q on the domain's boundary, where rho_b_q is null,
and the tiny-n seedings `seed --k 2` and `seed --k 1` on the 5-point
d = 1 file [0.5, 1, 2, 4, 8], for shannon and burg, and for bit on the
same points mapped into (0, 1), at rng seeds 4 and 5, and the bound
constants on the one row, on the bit points, which straddle 1/2, and on
the rows with a boundary row), and prints one
`name sha256[:16]` line per `results` block, each followed by one
`name.key sha256[:16]` line per top-level key of that block and one
`name.command sha256[:16]` line for the run's `command` echo, with the
temporary directory replaced by a fixed token. Run it against two trees
and diff the output to see which results, which fields of them, and
which echoes a change moved:

    python scripts/results_hashes.py > change.txt
    python scripts/results_hashes.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

Needs only the standard library and numpy.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

DIMS = (1, 2, 4, 8, 16)


def _digest(obj, tmp=None):
    """sha256[:16] of obj's JSON text, with tmp, if given, replaced by a
    fixed token so that runs in different directories compare equal."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if tmp is not None:
        text = text.replace(tmp, "$TMP")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _write_csv(path, x):
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    return path


def _datasets(tmp):
    """Name -> CSV path. Lognormal mixtures are positive, so every
    builtin with a (0, inf) domain accepts them."""
    rng = np.random.default_rng(20130917)
    files = {}
    for d in DIMS:
        means = rng.normal(0.0, 1.0, size=(4, d))
        labels = rng.integers(0, 4, size=400)
        x = np.exp(means[labels] + rng.normal(0.0, 0.4, size=(400, d)))
        files[f"mix{d}"] = _write_csv(os.path.join(tmp, f"mix{d}.csv"), x)
    small = np.exp(rng.normal(0.0, 0.7, size=(24, 2)))
    files["small2"] = _write_csv(os.path.join(tmp, "small2.csv"), small)
    # three distinct rows, four copies each: seeding and the bound
    # experiment at k = 4 on it reach the draw where every remaining
    # point has zero divergence mass
    dup = np.repeat(small[:3], 4, axis=0)
    files["dup2"] = _write_csv(os.path.join(tmp, "dup2.csv"), dup)
    # a header row, a weight column and a blank line: the ingest path
    # that headerless files never take
    table = np.column_stack([small, rng.uniform(0.5, 2.0, size=len(small))])
    rows = [",".join(format(v, ".17g") for v in r) for r in table.tolist()]
    path = os.path.join(tmp, "weighted2.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["x,y,weight"] + rows[:12] + [""] + rows[12:]))
        fh.write("\n")
    files["weighted2"] = path
    # 9000 rows at d = 16: two of the kernels' 8192-row blocks
    means = rng.normal(0.0, 1.0, size=(4, 16))
    labels = rng.integers(0, 4, size=9000)
    wide = np.exp(means[labels] + rng.normal(0.0, 0.4, size=(9000, 16)))
    files["wide16"] = _write_csv(os.path.join(tmp, "wide16.csv"), wide)
    # the same rows mapped into (0, 1), for bit
    files["wide16unit"] = _write_csv(os.path.join(tmp, "wide16unit.csv"),
                                     wide / (1.0 + wide))
    # points closer to a domain end than the 1e-12 margin the CCCP solver
    # once kept: shannon's points at 1e-14 scale, and bit's within 1e-13
    # of 1
    near = np.array([[1.0, 3.0], [2.0, 5.0], [4.0, 1.0], [3.0, 2.0]])
    files["tiny2"] = _write_csv(os.path.join(tmp, "tiny2.csv"), 1e-14 * near)
    files["nearone2"] = _write_csv(os.path.join(tmp, "nearone2.csv"),
                                   1.0 - 1e-14 * near)
    # five points at d = 1, a seeding's fixed cost with no bulk math, and
    # the same points mapped into (0, 1), for bit
    draws = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    files["draws1"] = _write_csv(os.path.join(tmp, "draws1.csv"), draws)
    files["draws1unit"] = _write_csv(os.path.join(tmp, "draws1unit.csv"),
                                     draws / (1.0 + draws))
    # one row, whose convex closure is the row itself, and shannon points
    # with a row on the domain's boundary
    files["onerow2"] = _write_csv(os.path.join(tmp, "onerow2.csv"),
                                  np.array([[1.5, 2.0]]))
    files["zero2"] = _write_csv(os.path.join(tmp, "zero2.csv"), np.array(
        [[0.0, 1.0], [1.5, 2.0], [3.0, 0.5]]))
    return files


def _tridiagonal(d):
    """The --matrix text of the SPD (d, d) matrix with 2 on the diagonal
    and 0.5 beside it."""
    return ";".join(",".join("2" if i == j else "0.5" if abs(i - j) == 1
                             else "0" for j in range(d)) for i in range(d))


def _commands(files):
    """(name, argv) for every seeded run."""
    runs = []
    for d in DIMS:
        f = files[f"mix{d}"]
        runs += [
            (f"cluster-shannon-d{d}",
             ["cluster", "--input", f, "--k", "4", "--rng-seed", "3",
              "--max-rounds", "20", "--outer-max", "50"]),
            (f"seed-shannon-d{d}",
             ["seed", "--input", f, "--k", "4", "--rng-seed", "11"]),
            (f"centroid-shannon-d{d}",
             ["centroid", "--input", f, "--outer-max", "200"]),
            (f"constants-shannon-d{d}",
             ["constants", "--input", f]),
        ]
    # squared-mahalanobis, the one generator built from its matrix
    maha = ["--generator", "squared-mahalanobis", "--matrix", "2,0.5;0.5,1"]
    runs += [
        ("cluster-mahalanobis-d2",
         ["cluster", "--input", files["mix2"], *maha, "--k", "4",
          "--rng-seed", "3", "--max-rounds", "20", "--outer-max", "50"]),
        ("centroid-mahalanobis-d2",
         ["centroid", "--input", files["mix2"], *maha, "--outer-max", "200"]),
        ("constants-mahalanobis-d2",
         ["constants", "--input", files["mix2"], *maha]),
        ("influence-mahalanobis-d1",
         ["influence", "--generator", "squared-mahalanobis", "--matrix", "2",
          "--p", "1"]),
        ("divergence-total-jensen-mahalanobis",
         ["divergence", "--kind", "total-jensen", *maha, "--alpha", "0.3",
          "--p", "0.2,-0.3", "--q", "0.6,1.1"]),
    ]
    runs += [
        ("cluster-burg-d4",
         ["cluster", "--input", files["mix4"], "--generator", "burg",
          "--k", "3", "--rng-seed", "7", "--max-rounds", "20",
          "--outer-max", "50"]),
        ("centroid-left-shannon-d16",
         ["centroid", "--input", files["mix16"], "--side", "left",
          "--outer-max", "200"]),
        ("centroid-burg-d8",
         ["centroid", "--input", files["mix8"], "--generator", "burg",
          "--alpha", "0.3", "--outer-max", "200"]),
        ("bound-experiment-burg-d2",
         ["bound-experiment", "--input", files["small2"], "--generator",
          "burg", "--k", "3", "--trials", "200", "--rng-seed", "5"]),
        ("bound-experiment-burg-d2-k1",
         ["bound-experiment", "--input", files["small2"], "--generator",
          "burg", "--k", "1", "--trials", "200", "--rng-seed", "6"]),
        # 400 rows at d = 1: the k = 1 table spans several centre blocks
        ("bound-experiment-shannon-d1-k1",
         ["bound-experiment", "--input", files["mix1"], "--k", "1",
          "--trials", "200", "--rng-seed", "10"]),
        ("bound-experiment-shannon-d2-k2",
         ["bound-experiment", "--input", files["small2"], "--k", "2",
          "--trials", "200", "--rng-seed", "7"]),
        # 400 rows at d >= 2: each row block of the table spans several
        # groups of centres, 20 at d = 16 and 3 at d = 2
        ("bound-experiment-shannon-d16-k2",
         ["bound-experiment", "--input", files["mix16"], "--k", "2",
          "--trials", "200", "--rng-seed", "12"]),
        ("bound-experiment-mahalanobis-d2-k2",
         ["bound-experiment", "--input", files["mix2"], *maha, "--k", "2",
          "--trials", "200", "--rng-seed", "13"]),
        # every trial's fourth draw takes the zero-mass branch
        ("bound-experiment-shannon-dup2-k4",
         ["bound-experiment", "--input", files["dup2"], "--k", "4",
          "--trials", "200", "--rng-seed", "9"]),
        ("centroid-shannon-wide16",
         ["centroid", "--input", files["wide16"], "--outer-max", "200"]),
        # grad written into the CCCP stage's buffer across row blocks, on
        # every other builtin
        ("centroid-burg-wide16",
         ["centroid", "--input", files["wide16"], "--generator", "burg",
          "--outer-max", "200"]),
        ("centroid-bit-wide16",
         ["centroid", "--input", files["wide16unit"], "--generator", "bit",
          "--outer-max", "200"]),
        ("centroid-mahalanobis-wide16",
         ["centroid", "--input", files["wide16"], "--generator",
          "squared-mahalanobis", "--matrix", _tridiagonal(16),
          "--outer-max", "200"]),
        ("cluster-shannon-wide16",
         ["cluster", "--input", files["wide16"], "--k", "4",
          "--rng-seed", "3", "--max-rounds", "20", "--outer-max", "50"]),
        ("centroid-weighted-shannon-d2",
         ["centroid", "--input", files["weighted2"], "--outer-max", "200"]),
        ("seed-shannon-dup2",
         ["seed", "--input", files["dup2"], "--k", "4", "--rng-seed", "8"]),
        # a centre duplicates another, so the sweeps re-seed an empty
        # cluster in place
        ("cluster-shannon-dup2",
         ["cluster", "--input", files["dup2"], "--k", "4",
          "--rng-seed", "8"]),
        ("centroid-shannon-tiny2", ["centroid", "--input", files["tiny2"]]),
        ("centroid-bit-nearone2",
         ["centroid", "--input", files["nearone2"], "--generator", "bit"]),
        ("influence-shannon",
         ["influence", "--p", "1.0", "--ymax", "1e6"]),
        # the bound constants on one row, on bit points on both sides of
        # 1/2 (where phi'' is least) and on a row at shannon's boundary
        ("constants-shannon-onerow2",
         ["constants", "--input", files["onerow2"]]),
        ("constants-bit-draws1unit",
         ["constants", "--input", files["draws1unit"], "--generator", "bit"]),
        ("constants-shannon-zero2", ["constants", "--input", files["zero2"]]),
    ]
    # a single small seeding: one column at k = 2, none at k = 1
    for gen, f in (("shannon", "draws1"), ("burg", "draws1"),
                   ("bit", "draws1unit")):
        for k in ("1", "2"):
            for rng_seed in ("4", "5"):
                runs.append((f"seed-{gen}-draws1-k{k}-s{rng_seed}",
                             ["seed", "--input", files[f], "--generator", gen,
                              "--k", k, "--rng-seed", rng_seed]))
    runs += [
        ("influence-burg-empirical",
         ["influence", "--generator", "burg", "--p", "1.0", "--ymax", "1e3",
          "--per-decade", "8", "--empirical"]),
    ]
    pair = ["--p", "0.2,0.3,0.5", "--q", "0.6,0.1,0.3"]
    for kind in ("jensen-raw", "jensen-scaled", "total-jensen"):
        for gen in ("shannon", "burg", "bit", "squared-euclidean"):
            runs.append((f"divergence-{kind}-{gen}",
                         ["divergence", "--kind", kind, "--generator", gen,
                          "--alpha", "0.3"] + pair))
    # d = 1, where the scalar and the row sums add in the same order
    for kind in ("jensen-raw", "jensen-scaled", "total-jensen"):
        runs.append((f"divergence-{kind}-shannon-d1",
                     ["divergence", "--kind", kind, "--generator", "shannon",
                      "--alpha", "0.3", "--p", "0.7", "--q", "2.5"]))
    for gen in ("bit", "shannon"):
        runs.append((f"project-{gen}",
                     ["project", "--generator", gen, "--alpha", "0.4"]
                     + pair))
    for kind in ("bregman", "total-bregman"):
        for gen in ("shannon", "burg", "bit", "squared-euclidean"):
            runs.append((f"divergence-{kind}-{gen}",
                         ["divergence", "--kind", kind, "--generator", gen]
                         + pair))
        runs.append((f"divergence-{kind}-mahalanobis",
                     ["divergence", "--kind", kind, *maha, "--p", "0.2,-0.3",
                      "--q", "0.6,1.1"]))
    # the tangent-gap limits, where both kinds read the Bregman gap
    for kind in ("jensen-scaled", "total-jensen"):
        for alpha in ("0", "1"):
            for gen in ("shannon", "burg", "bit"):
                runs.append((f"divergence-{kind}-{gen}-alpha{alpha}",
                             ["divergence", "--kind", kind, "--generator",
                              gen, "--alpha", alpha] + pair))
    # |grad F(q)| = 1e200, whose square overflows
    runs.append(("divergence-total-bregman-burg-q1e-200",
                 ["divergence", "--kind", "total-bregman", "--generator",
                  "burg", "--p", "1", "--q", "1e-200"]))
    # q on the boundary, where rho_b_q is null
    runs.append(("divergence-total-jensen-shannon-boundary",
                 ["divergence", "--kind", "total-jensen", "--generator",
                  "shannon", "--p", "0.2,0.8", "--q", "0,1"]))
    # "-simplex": the total-jensen run on shannon is already
    # divergence-total-jensen-shannon
    for kind in ("jensen-shannon", "total-jensen-shannon"):
        runs.append((f"divergence-{kind}-simplex",
                     ["divergence", "--kind", kind] + pair))
        # p = q, where rho_j is reported as null
        runs.append((f"divergence-{kind}-coincident",
                     ["divergence", "--kind", kind, "--p", "0.3,0.7",
                      "--q", "0.3,0.7"]))
    runs.append(("divergence-kl-gaussian",
                 ["divergence", "--kind", "kl-gaussian", "--mu1", "0,1",
                  "--cov1", "2,0.5;0.5,1", "--mu2", "1,0",
                  "--cov2", "1,0;0,3"]))
    # sqrt(tJS) on the fixed counterexample and on random simplex triples
    runs += [
        ("metric-check", ["metric-check"]),
        ("metric-check-search-d3",
         ["metric-check", "--search", "--trials", "50", "--dim", "3",
          "--rng-seed", "1"]),
    ]
    return runs


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory that holds the tjdiv package "
                         "(default: this repository's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from tjdiv.cli import main as tjdiv_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in _commands(_datasets(tmp)):
            report = _run(tjdiv_main, cmd)
            results = report["results"]
            print(name, _digest(results))
            for key in sorted(results):
                print(f"{name}.{key}", _digest(results[key]))
            print(f"{name}.command", _digest(report["command"], tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
