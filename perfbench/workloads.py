"""The benchmark's workloads: fixed lists of `hbl` jobs and their known answers.

A job is an `hbl` command line.  Its known answer is the normalised record
of the equivalent builtin command (``reference``), stored in
``expected.json`` by ``make_expected.py``.  Only ``dense-file`` depends on
the seed: it runs on operator files made by conjugating ``dj:d`` by g (x) g
for a seeded integer unitriangular g.  Conjugation leaves every dimension,
trace and Koszul verdict unchanged, so its answers are the builtin's.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Job:
    """One `hbl` run.  ``{dense:d}`` in ``argv`` names the seeded file for dj:d."""

    argv: tuple
    reference: tuple = None  # builtin command with the same known answer

    @property
    def key(self):
        return " ".join(self.reference or self.argv)


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple


def _job(text, reference=None):
    return Job(tuple(text.split()), tuple(reference.split()) if reference else None)


WORKLOADS = {
    "report-sparse": Workload(
        "everyday full verification of sparse builtins: every layer runs, echelonize dominates",
        (
            _job("report --builtin dj:2 -N 4"),
            _job("report --builtin dj:3 -N 3"),
        ),
    ),
    "koszul-lattice": Workload(
        "lattice closures: thousands of small eliminations and containments, no traces or commutants",
        (
            _job("koszul --builtin dj:2 -a E -n 4"),
            _job("koszul --builtin superflip:1|1 -a E -n 4"),
            _job("koszul --builtin dj:2 -a Lambda -n 5"),
            _job("koszul --builtin dj:3 -a S -n 4"),
        ),
    ),
    "trace-series": Workload(
        "series pipeline: cycle traces build every Hecke matrix in rho_basis, which dominates time and memory",
        (
            _job("poincare --builtin dj:2 -N 5"),
            _job("poincare --builtin superflip:1|1 -N 5"),
            _job("poincare --builtin dj:3 -N 4"),
            _job("poincare --builtin superflip:2|1 -N 4"),
        ),
    ),
    "dense-file": Workload(
        "seeded dense operator files: fill-in makes Scalar gcd and multiply dominate; covers file load and specialization",
        (
            _job("report --file {dense:2} -N 3", "report --builtin dj:2 -N 3"),
            _job(
                "report --file {dense:2} -N 3 --specialize p=3/2",
                "report --builtin dj:2 -N 3 --specialize p=3/2",
            ),
            _job("dims --file {dense:2} -a E -N 4", "dims --builtin dj:2 -a E -N 4"),
            _job("dims --file {dense:3} -a E -N 2", "dims --builtin dj:3 -a E -N 2"),
        ),
    ),
}


def dense_operator(d, rng):
    """dj:d conjugated by g (x) g, g unitriangular with off-diagonal entries +-1.

    Only the signs are drawn: entries of one magnitude keep the cost of a
    job nearly the same for every seed, while fill-in makes every operator
    entry and every lift dense.
    """
    from heckebialg.exactnum import ONE, ZERO, Scalar
    from heckebialg.linalg import Matrix
    from heckebialg.rmatrix import HeckeOperator, dj_r_matrix

    signs = [rng.choice((-1, 1)) for _ in range(d * (d - 1) // 2)]
    if d == 3:
        # dj:d is invariant under conjugation by diagonal sign matrices D,
        # so g and DgD give operators of the same cost; the product of
        # g's three signs tells the two classes apart.  Fixing it to -1,
        # the costlier class, gives every seed the same work.
        signs[2] = -signs[0] * signs[1]
    upper = iter(signs)
    g = Matrix.from_rows(
        [[ONE if i == j else Scalar(next(upper)) if j > i else ZERO for j in range(d)] for i in range(d)]
    )
    gg = g.kron(g)
    base = dj_r_matrix(d)
    return HeckeOperator(d, gg * base.R * gg.inverse(), base.q, f"dense-dj{d}")


def materialize(workload, seed, workdir):
    """Concrete argv lists for the workload's jobs, writing any seeded inputs."""
    from heckebialg.cli import save_operator

    rng = random.Random(seed)
    files = {}
    for job in workload.jobs:
        for arg in job.argv:
            if arg.startswith("{dense:") and arg not in files:
                d = int(arg[len("{dense:") : -1])
                path = Path(workdir) / f"dense-dj{d}.json"
                save_operator(dense_operator(d, rng), path)
                files[arg] = str(path)
    return [[files.get(a, a) for a in job.argv] for job in workload.jobs]


def operator_sources(argvs):
    """Distinct (builtin, file, specialize) operator sources used by the jobs."""
    out = []
    for argv in argvs:
        opts = dict(zip(argv, argv[1:]))
        src = {k: opts.get(f"--{k}") for k in ("builtin", "file", "specialize")}
        if src not in out:
            out.append(src)
    return out


def normalize(doc, exit_code):
    """The parts of a report that a job's known answer pins down.

    Per check: name with the operator name replaced, degree, ok and
    computed.  Elapsed times are left out.  For lattice distributivity
    only the status counts: closure size and elimination counts are
    engine counters that a faster engine may change.
    """
    op = doc["operator"]
    checks = []
    for c in doc["checks"]:
        name = c["name"].replace(op, "<op>")
        computed = c["computed"]
        if name.startswith("koszul/distributivity/"):
            computed = {"status": computed["status"]}
        checks.append([name, c["degree"], c["ok"], computed])
    return {"exit": exit_code, "checks": checks}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
