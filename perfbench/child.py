"""Child process of the benchmark: a set-up probe, or one traced `hbl` job.

    python3 perfbench/child.py setup OUT SOURCE_JSON...
    python3 perfbench/child.py span  OUT HBL_ARG...
    python3 perfbench/child.py count OUT HBL_ARG...

``setup`` imports ``heckebialg.cli``, resolves each operator source (a JSON
object with ``builtin``, ``file`` and ``specialize``, as on the command
line) and builds its S, Lambda and E algebras.  It runs no check.

``span`` and ``count`` run ``hbl`` in this process with the package's
public functions wrapped from outside; nothing in the package is edited.
Modules bind each other's functions with ``from .linalg import
echelonize`` and the like, so a wrapper replaces the original in every
``heckebialg`` module that holds it.  ``span`` records calls and self time
(span minus child spans) for the functions in SPANS, call counts for
COUNTED and the size counters in ``_after_*``.  ``count`` only counts
Scalar arithmetic, ``parse_scalar`` calls and the entry size of
echelonize outputs, so that wrapping arithmetic does not inflate self
times.  Both write JSON to OUT and exit with the code ``hbl`` returned.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (module, attribute) whose calls and self time are measured
SPANS = (
    ("linalg", "echelonize"),
    ("linalg", "subspace_intersect"),
    ("linalg", "commutant"),
    ("linalg", "lift_rows"),
    ("rmatrix", "rho_basis"),
    ("rmatrix", "character"),
    ("rmatrix", "matrix_space_operator"),
    ("rmatrix", "operator_axiom_report"),
    ("qalg", "graded_dimension"),
    ("qalg", "distributivity_check"),
    ("qalg", "koszul_series_check"),
    ("symhecke", "symmetrizer"),
    ("poincare", "t_specialize_p_from_operator"),
    ("poincare", "verify_character_recursion"),
    ("schur", "multiplicities"),
    ("schur", "centralizer_dimension"),
    ("schur", "bicommutant_check"),
    ("cli", "load_operator"),
    ("cli", "main"),
)

# (module, attribute) whose calls are counted; their time stays with the caller
COUNTED = (
    ("linalg", "subspace_sum"),
    ("linalg", "Subspace.is_subspace_of"),
    ("qalg", "algebra_by_key"),
    ("qalg", "dual_graded_dimension"),
    ("rmatrix", "cycle_trace"),
)

# Scalar methods counted in the count pass, by the counter they feed
SCALAR_OPS = {
    "__mul__": "exactnum.scalar_mul.calls",
    "__rmul__": "exactnum.scalar_mul.calls",
    "__add__": "exactnum.scalar_add.calls",
    "__radd__": "exactnum.scalar_add.calls",
    "__sub__": "exactnum.scalar_add.calls",
    "__rsub__": "exactnum.scalar_add.calls",
    "__truediv__": "exactnum.scalar_div.calls",
    "__rtruediv__": "exactnum.scalar_div.calls",
}


def _owner(module, attr):
    """The object holding ``attr`` (a module or a class) and the bare name."""
    obj = sys.modules[f"heckebialg.{module}"]
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def _rebind(original, wrapper):
    """Replace ``original`` by ``wrapper`` wherever a heckebialg module binds it."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "heckebialg" or mod_name.startswith("heckebialg.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                hits += 1
    return hits


class Tracer:
    """Span and counter store for one process; spans nest on one stack."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.counters = {}
        self.stack = []  # child-span seconds accumulated per open span
        self.root_s = 0.0
        self.seen = {}  # objects already counted, kept alive so ids stay unique

    def add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def span(self, name, fn, after=None):
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
                entry = stats.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - child
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counted(self, key, fn, after=None):
        """Wrap ``fn`` to count calls under ``key`` (None: no count)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            if key is not None:
                counters[key] = counters.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def document(self):
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in self.stats.items()},
            "counters": self.counters,
            "root_s": self.root_s,
        }


def _after_echelonize(tr, args, result):
    rows, ambient = args[0], args[1]
    tr.add("linalg.echelonize.rows_in", len(rows))
    tr.add("linalg.echelonize.rank_out", result.dim)
    tr.peak("linalg.echelonize.ambient_max", ambient)


def _after_commutant(tr, args, result):
    tr.peak("linalg.commutant.ambient_max", result.ambient)


def _after_rho_basis(tr, args, result):
    # the operator caches its image table, so count each table once
    if id(result) not in tr.seen:
        tr.seen[id(result)] = result
        tr.add("rmatrix.rho_basis.matrices", len(result))


def _after_distributivity(tr, args, result):
    tr.add("qalg.distributivity_check.closure_size", result.closure_size)
    tr.add("qalg.distributivity_check.eliminations", result.honest_ops)


def _after_echelonize_terms(tr, args, result):
    longest = 0
    for row in result.basis:
        for v in row.values():
            terms = max(len(getattr(v, "num", ())), len(getattr(v, "den", ())))
            if terms > longest:
                longest = terms
    tr.peak("exactnum.entry_terms_max", longest)


SPAN_HOOKS = {
    "linalg.echelonize": _after_echelonize,
    "linalg.commutant": _after_commutant,
    "rmatrix.rho_basis": _after_rho_basis,
    "qalg.distributivity_check": _after_distributivity,
}


def install_spans(tr):
    for module, attr in SPANS + COUNTED:
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        metric = f"{module}.{name}"
        if (module, attr) in SPANS:
            wrapper = tr.span(metric, original, SPAN_HOOKS.get(metric))
        else:
            wrapper = tr.counted(f"{metric}.calls", original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
        elif _rebind(original, wrapper) == 0:
            raise RuntimeError(f"heckebialg.{module}.{attr} is bound nowhere")


def install_counts(tr):
    from heckebialg import exactnum, linalg

    for method, key in SCALAR_OPS.items():
        setattr(exactnum.Scalar, method, tr.counted(key, getattr(exactnum.Scalar, method)))
    _rebind(exactnum.parse_scalar, tr.counted("exactnum.parse_scalar.calls", exactnum.parse_scalar))
    _rebind(linalg.echelonize, tr.counted(None, linalg.echelonize, _after_echelonize_terms))


def run_setup(out, sources):
    import heckebialg
    from heckebialg import cli
    from heckebialg.qalg import algebra_by_key

    for text in sources:
        op = cli.resolve_operator(argparse.Namespace(**json.loads(text)))
        for key in ("s", "lambda", "e"):
            algebra_by_key(op, key)
    Path(out).write_text(json.dumps({"package": heckebialg.__file__}))
    return 0


def run_traced(mode, out, hbl_args):
    import heckebialg.cli as cli

    tr = Tracer()
    (install_spans if mode == "span" else install_counts)(tr)
    try:
        code = cli.main(hbl_args)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    Path(out).write_text(json.dumps(tr.document()))
    return code


def main(argv):
    mode, out, rest = argv[0], argv[1], argv[2:]
    if mode == "setup":
        return run_setup(out, rest)
    if mode in ("span", "count"):
        return run_traced(mode, out, rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
