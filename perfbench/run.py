"""Benchmark for heckebialg: fixed lists of `hbl` jobs, timed from outside.

    python3 perfbench/run.py --workload report-sparse --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each job runs as a fresh child Python
process, one at a time (a closed loop with one client).  The harness times
every job from spawn to exit, reads its peak RSS and CPU time with
``os.wait4``, and compares its exit code and report with the known answer
in ``expected.json``; report ``elapsed`` fields are never read.

Set-up: several fresh interpreters each import ``heckebialg.cli``, resolve
the workload's operators and build their S, Lambda and E algebras; the
median of their times is ``setup_s``.  Then the jobs run round-robin, the
first pass always complete, until ``--seconds`` have passed.  A job's time
is the median of its runs.

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` it carries per-layer metrics: plain and span-traced runs
of each job alternate until ``--seconds`` have passed, then one count-only
pass gathers Scalar operation counts (see ``child.py``).  Per-layer values
are summed over the jobs (``*_max`` values take the maximum), using each
job's median over its traced runs.

Exit code 0 with a result line.  Exit code 2 without one when there is
nothing to measure: no ``src/heckebialg``, a set-up probe that fails, or a
traced job that fails its check.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, load_expected, materialize, normalize, operator_sources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
HARD_LIMIT_S = 165.0  # a run must end within 180 s, whatever the program does

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; exactnum counts come from the count-only pass
PER_LAYER = {
    "linalg.echelonize.self_s": "s",
    "linalg.echelonize.calls": "count",
    "linalg.echelonize.rows_in": "count",
    "linalg.echelonize.rank_out": "count",
    "linalg.echelonize.ambient_max": "dim",
    "linalg.rank_yield": "ratio",
    "linalg.subspace_intersect.self_s": "s",
    "linalg.subspace_intersect.calls": "count",
    "linalg.subspace_sum.calls": "count",
    "linalg.is_subspace_of.calls": "count",
    "linalg.commutant.self_s": "s",
    "linalg.commutant.calls": "count",
    "linalg.commutant.ambient_max": "dim",
    "linalg.lift_rows.self_s": "s",
    "exactnum.scalar_mul.calls": "count",
    "exactnum.scalar_add.calls": "count",
    "exactnum.scalar_div.calls": "count",
    "exactnum.parse_scalar.calls": "count",
    "exactnum.entry_terms_max": "terms",
    "rmatrix.rho_basis.self_s": "s",
    "rmatrix.rho_basis.calls": "count",
    "rmatrix.rho_basis.matrices": "count",
    "rmatrix.character.self_s": "s",
    "rmatrix.character.calls": "count",
    "rmatrix.cycle_trace.calls": "count",
    "rmatrix.matrix_space_operator.self_s": "s",
    "rmatrix.operator_axiom_report.self_s": "s",
    "qalg.algebra_by_key.calls": "count",
    "qalg.graded_dimension.calls": "count",
    "qalg.graded_dimension.self_s": "s",
    "qalg.dual_graded_dimension.calls": "count",
    "qalg.distributivity_check.self_s": "s",
    "qalg.distributivity_check.closure_size": "count",
    "qalg.distributivity_check.eliminations": "count",
    "qalg.koszul_series_check.self_s": "s",
    "symhecke.symmetrizer.self_s": "s",
    "poincare.t_specialize_p_from_operator.self_s": "s",
    "poincare.verify_character_recursion.self_s": "s",
    "schur.multiplicities.self_s": "s",
    "schur.centralizer_dimension.self_s": "s",
    "schur.bicommutant_check.self_s": "s",
    "cli.load_operator.self_s": "s",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",  # traced wall outside cli.main: interpreter, imports, exit
    "cli.child_cpu_s": "s",  # user + system CPU of the plain job processes
    "trace.wall_s": "s",  # traced job walls; every self_s above plus startup sums to it
    "trace.overhead_frac": "ratio",
}


class Failure(Exception):
    """The benchmark cannot run here: exit 2 without a result line."""


class Harness:
    def __init__(self, workdir, started, expected):
        self.workdir = Path(workdir)
        self.started = started
        self.expected = expected
        self.env = {k: v for k, v in os.environ.items() if k != "HBL_MAX_AMBIENT"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv):
        """Run one child to completion: (wall seconds, exit code, rusage)."""
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(max(left, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def schedule(self, samples, seconds, paired=None):
        """Job indices, round-robin: one full pass, then more until ``seconds``.

        After the first pass a job starts only if its median time so far
        still fits, so a run ends close to ``seconds`` instead of one long
        job after it.
        """
        start = time.perf_counter()
        done = 0
        while True:
            now = time.perf_counter()
            if now - self.started > HARD_LIMIT_S:
                return
            i = done % len(samples)
            if done >= len(samples):
                cost = statistics.median(s["wall"] for s in samples[i])
                if paired is not None:
                    cost += statistics.median(s["wall"] for s in paired[i])
                if now - start + cost > seconds:
                    return
            yield i
            done += 1

    def setup_probe(self, sources):
        out = self.workdir / "setup.json"
        wall, code, _ = self.spawn(
            [sys.executable, str(HERE / "child.py"), "setup", str(out)]
            + [json.dumps(s) for s in sources]
        )
        if code != 0:
            raise Failure(f"set-up probe exited {code}: {self._stderr_tail()}")
        package = Path(json.loads(out.read_text())["package"]).resolve()
        if SRC.resolve() not in package.parents:
            raise Failure(f"set-up imported heckebialg from {package}, not from {SRC}")
        return wall

    def job(self, argv, key, mode=None):
        """One checked job run; mode None runs `hbl`, else a traced child."""
        report = self.workdir / "report.json"
        trace_out = self.workdir / "trace.json"
        report.unlink(missing_ok=True)
        trace_out.unlink(missing_ok=True)
        full = list(argv) + ["-o", str(report)]
        if mode is None:
            cmd = [sys.executable, "-m", "heckebialg.cli"] + full
        else:
            cmd = [sys.executable, str(HERE / "child.py"), mode, str(trace_out)] + full
        wall, code, usage = self.spawn(cmd)
        self.attempted += 1
        ok = self._matches(report, code, self.expected.get(key))
        if not ok:
            self.failed += 1
            print(f"job failed ({' '.join(argv)}): exit {code}; {self._stderr_tail()}",
                  file=sys.stderr)
        trace = json.loads(trace_out.read_text()) if mode is not None and ok else None
        return {
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "trace": trace,
        }

    def count_unrun(self, samples):
        """A job cut off before its first run counts as attempted and failed."""
        unrun = sum(1 for runs in samples if not runs)
        self.attempted += unrun
        self.failed += unrun

    def _matches(self, report, code, answer):
        if answer is None or not report.exists():
            return False
        try:
            return normalize(json.loads(report.read_text()), code) == answer
        except (ValueError, KeyError, TypeError):  # not a report of the known shape
            return False

    def _stderr_tail(self):
        text = (self.workdir / "stderr.txt").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else "no stderr"


def _median_by_job(samples, field):
    return [statistics.median(s[field] for s in runs) for runs in samples if runs]


def measure_end_to_end(h, argvs, keys, labels, seconds):
    samples = [[] for _ in argvs]
    for i in h.schedule(samples, seconds):
        samples[i].append(h.job(argvs[i], keys[i]))
    h.count_unrun(samples)
    jobs = [
        {"job": label, "runs": len(runs), "median_s": statistics.median(s["wall"] for s in runs)}
        for label, runs in zip(labels, samples)
        if runs
    ]
    walls = [j["median_s"] for j in jobs]
    metrics = {
        "wall_s": sum(walls),
        "slowest_job_s": max(walls),
        "peak_rss_mb": max(s["rss_mb"] for runs in samples for s in runs),
    }
    return metrics, jobs


def _job_layers(span_runs, count_run):
    """Per-layer values of one job: medians over its span-traced runs."""
    values = {}
    for run in span_runs:
        trace = run["trace"]
        flat = {"cli.startup_s": run["wall"] - trace["root_s"], "trace.wall_s": run["wall"]}
        for name, stat in trace["spans"].items():
            flat[f"{name}.self_s"] = stat["self_s"]
            flat[f"{name}.calls"] = stat["calls"]
        flat.update(trace["counters"])
        total = sum(v for k, v in flat.items() if k.endswith(".self_s")) + flat["cli.startup_s"]
        if abs(total - run["wall"]) > 1e-6 * max(1.0, run["wall"]):
            raise Failure(f"self times sum to {total}, not the traced wall {run['wall']}")
        for k, v in flat.items():
            values.setdefault(k, []).append(v)
    out = {k: statistics.median(v) for k, v in values.items()}
    out.update(count_run["trace"]["counters"])
    return out


def measure_layers(h, argvs, keys, labels, seconds):
    plain = [[] for _ in argvs]
    spans = [[] for _ in argvs]
    for i in h.schedule(plain, seconds, spans):
        plain[i].append(h.job(argvs[i], keys[i]))
        spans[i].append(h.job(argvs[i], keys[i], mode="span"))
    counts = [h.job(a, k, mode="count") for a, k in zip(argvs, keys)]
    if not all(spans) or any(r["trace"] is None for r in counts + sum(spans, [])):
        raise Failure("a traced job failed its check or never ran; see above")

    per_job = [_job_layers(s, c) for s, c in zip(spans, counts)]
    out = {}
    for name in PER_LAYER:
        vals = [job.get(name, 0) for job in per_job]
        out[name] = max(vals) if name.endswith("_max") else sum(vals)
    out["cli.child_cpu_s"] = sum(_median_by_job(plain, "cpu"))
    rows_in = out["linalg.echelonize.rows_in"]
    out["linalg.rank_yield"] = out["linalg.echelonize.rank_out"] / rows_in if rows_in else 0.0
    plain_wall = sum(_median_by_job(plain, "wall"))
    out["trace.overhead_frac"] = (out["trace.wall_s"] - plain_wall) / plain_wall
    jobs = [
        {
            "job": label,
            "traced_s": job["trace.wall_s"],
            "startup_s": job["cli.startup_s"],
            "self_s": {k[: -len(".self_s")]: v for k, v in job.items() if k.endswith(".self_s")},
        }
        for label, job in zip(labels, per_job)
    ]
    return out, jobs


def run_info(seed, workload):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the checkout need not be a git repository
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "heckebialg" / "cli.py").is_file():
        print(f"error: no heckebialg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    keys = [job.key for job in workload.jobs]
    labels = [" ".join(job.argv) for job in workload.jobs]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        h = Harness(workdir, started, load_expected())
        argvs = materialize(workload, args.seed, workdir)
        sources = operator_sources(argvs)
        setup = statistics.median(h.setup_probe(sources) for _ in range(SETUP_PROBES))
        if args.trace:
            metrics, jobs = measure_layers(h, argvs, keys, labels, args.seconds)
            units = PER_LAYER
        else:
            metrics, jobs = measure_end_to_end(h, argvs, keys, labels, args.seconds)
            metrics["setup_s"] = setup
            units = END_TO_END
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"run": run_info(args.seed, args.workload), "jobs": jobs}))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
