"""Command-line front end: operator files, verification reports, exit codes.

Matrices go over the wire as JSON with every entry a canonical scalar
string, so exactness survives serialization.  Reports are JSON documents
listing one record per check; the process exits 0 exactly when every
check passed, and a run that would make no check is refused.  Ambient
dimensions are guarded by an explicit budget (``--max-dim`` or the
HBL_MAX_AMBIENT variable, default 4096): oversized requests are refused
with an error, never silently truncated.  The q = 1 routes (cycle traces
and S_n multiplicities at p = 1) run only when q is 1 at p = 1
(``HeckeOperator.q_tends_to_one``); on any other q, specialized or not,
those records keep the routes that hold at every q.

A run is one process, and each value a check asks for is computed once
and kept in the memo of its operator or algebra (``rmatrix.memoised``):
the double centralizer of a degree reads the centralizer from the
elimination its dimension check already made.  A record's ``elapsed`` is
the wall time from the start of its check.
"""

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .exactnum import scalar
from .linalg import Matrix
from .poincare import (
    b_sequence,
    p_sequence_from_s,
    poincare_E,
    t_specialize_p_from_operator,
    verify_character_recursion,
)
from .qalg import (
    algebra_by_key,
    distributivity_check,
    dual_graded_dimension,
    graded_dimension,
    koszul_series_check,
)
from .rmatrix import (
    HeckeOperator,
    dj_r_matrix,
    flip_operator,
    operator_axiom_report,
    super_flip,
)
from .schur import (
    MAX_TABLE_DEGREE,
    bicommutant_check,
    centralizer_dimension,
    schur_dimension_check,
)

DEFAULT_BUDGET = 4096

CONVENTION_NOTE = (
    "operators act on row vectors from the right; the basis of the tensor "
    "square is row-major lexicographic in the index pairs; entries are "
    "expressions in p with q = p^2 unless the file says otherwise"
)


class CLIError(Exception):
    """A usage or input problem: reported cleanly, exit status 2."""


# ---------------------------------------------------------------------------
# operator sources


def builtin_operator(name):
    kind, sep, arg = name.partition(":")
    if not sep:
        raise CLIError(f"builtin name needs a parameter, like dj:2 (got {name!r})")
    try:
        if kind == "dj":
            return dj_r_matrix(_space_dimension(name, int(arg)))
        if kind == "flip":
            return flip_operator(_space_dimension(name, int(arg)))
        if kind == "superflip":
            r, sep2, s = arg.partition("|")
            if not sep2:
                raise CLIError("superflip takes r|s, like superflip:1|1")
            r, s = int(r), int(s)
            if r < 0 or s < 0:
                raise CLIError(f"superflip dimensions must be nonnegative (got {name!r})")
            _space_dimension(name, r + s)
            return super_flip(r, s)
    except ValueError as exc:
        raise CLIError(f"bad builtin parameter in {name!r}: {exc}") from None
    raise CLIError(f"unknown builtin {name!r} (expected dj:<d>, flip:<d>, superflip:<r>|<s>)")


def _space_dimension(name, d):
    """d, refused below 1: on the zero space every check holds vacuously."""
    if d < 1:
        raise CLIError(f"{name!r} acts on a space of dimension {d}; it needs d >= 1")
    return d


def operator_to_document(op):
    """JSON-ready description of an operator, canonical scalar strings."""
    m = op.d * op.d
    entries = [
        [str(op.R.entry(i, j)) for j in range(m)] for i in range(m)
    ]
    parameter = "symbolic-p" if op.specialized_at is None else str(op.specialized_at)
    return {
        "name": op.name,
        "d": op.d,
        "parameter": parameter,
        "q": str(op.q),
        "entries": entries,
        "convention": CONVENTION_NOTE,
    }


def operator_from_document(doc, budget=DEFAULT_BUDGET):
    """Parse and validate; a document that fails the axioms is rejected.

    The Yang-Baxter check works on the d^3-dimensional cube, so d is held
    to the ambient budget before any entry is parsed.
    """
    try:
        d = doc["d"]
        # the schema's integer: 2.0 is one, true, "2" and 2.5 are not
        if isinstance(d, bool) or not isinstance(d, (int, float)) or d % 1:
            raise ValueError(f"d must be an integer, got {d!r}")
        d = int(d)
        name = str(doc["name"])
        q = scalar(str(doc["q"]))
        entries = doc["entries"]
        parameter = str(doc.get("parameter", "symbolic-p"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"malformed operator document: {exc}") from None
    _space_dimension(name, d)
    require_budget(d**3, budget, f"the Yang-Baxter check of {name!r}")
    m = d * d
    # a string is a sequence too: a row given as one would be read by character
    if not isinstance(entries, list) or len(entries) != m or any(
        not isinstance(row, list) or len(row) != m for row in entries
    ):
        raise CLIError(f"entries must be a {m}x{m} array of scalar strings")
    data = []
    for i, row in enumerate(entries):
        out = {}
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise CLIError(f"entry ({i}, {j}) is {text!r}, not a scalar string")
            try:
                v = scalar(text)
            except ValueError as exc:
                raise CLIError(f"bad scalar at entry ({i}, {j}): {exc}") from None
            if v:
                out[j] = v
        data.append(out)
    op = HeckeOperator(d, Matrix(m, m, data), q, name)
    if parameter != "symbolic-p":
        try:
            op = op.specialize(Fraction(parameter))
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"bad parameter value {parameter!r}: {exc}") from None
        op.name = name  # a saved specialized operator's name already says where
    for check_name, result in operator_axiom_report(op):
        if not result:
            raise CLIError(
                f"operator {name!r} rejected: {check_name} fails at {result.witness}"
            )
    return op


def load_operator(path, budget=DEFAULT_BUDGET):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise CLIError(f"{path} is nested too deeply to be an operator document") from None
    return operator_from_document(doc, budget)


def save_operator(op, path):
    with open(path, "w") as fh:
        json.dump(operator_to_document(op), fh, indent=2)
        fh.write("\n")


def resolve_operator(args, budget=DEFAULT_BUDGET):
    if bool(args.builtin) == bool(args.file):
        raise CLIError("give exactly one of --builtin or --file")
    op = builtin_operator(args.builtin) if args.builtin else load_operator(args.file, budget)
    spec = getattr(args, "specialize", None)
    if spec:
        if not spec.startswith("p="):
            raise CLIError("--specialize takes p=<rational>, like p=3/2")
        try:
            op = op.specialize(Fraction(spec[2:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"bad specialization {spec!r}: {exc}") from None
    if not op.q:
        # R^2 = (q - 1) R + q, so R is invertible exactly when q is not 0
        raise CLIError(f"{op.name!r} has q = 0, so its operator is not invertible")
    return op


def ambient_budget(args):
    limit = getattr(args, "max_dim", None)
    if limit is None:
        env = os.environ.get("HBL_MAX_AMBIENT")
        try:
            limit = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise CLIError(f"HBL_MAX_AMBIENT must be an integer, got {env!r}") from None
    if limit < 1:
        raise CLIError("the ambient budget must be positive")
    return limit


def require_budget(ambient, budget, what):
    if ambient > budget:
        raise CLIError(
            f"{what} needs ambient dimension {ambient}, over the budget {budget}; "
            "raise --max-dim or HBL_MAX_AMBIENT to allow it"
        )


# ---------------------------------------------------------------------------
# reports


class CheckRecord(
    namedtuple("CheckRecord", "name degree expected computed routes ok elapsed")
):
    __slots__ = ()

    def line(self):
        state = "PASS" if self.ok else "FAIL"
        deg = f" n={self.degree}" if self.degree is not None else ""
        return f"[{state}] {self.name}{deg}: {self.computed}"


class VerificationReport:
    """The records of one run, in the order its checks ran."""

    __slots__ = ("command", "operator", "parameters", "checks")

    def __init__(self, command, operator, parameters):
        self.command = command
        self.operator = operator
        self.parameters = parameters
        self.checks = []

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def add(self, name, computed, ok, degree=None, expected=None, routes=(), started=None):
        """Append a record; its ``elapsed`` is the seconds since ``started``."""
        elapsed = 0.0 if started is None else round(time.monotonic() - started, 6)
        self.checks.append(
            CheckRecord(name, degree, expected, computed, list(routes), bool(ok), elapsed)
        )

    def to_document(self):
        return {
            "tool": "heckebialg",
            "version": __version__,
            "command": self.command,
            "operator": self.operator,
            "parameters": self.parameters,
            "checks": [c._asdict() for c in self.checks],
            "ok": self.ok,
        }


def _merge_routes(report, name, degree, by_route, started):
    """One record out of per-route values; pass iff they all agree."""
    values = list(by_route.values())
    agree = all(v == values[0] for v in values)
    report.add(
        name,
        computed=by_route,
        ok=agree,
        degree=degree,
        expected=values[0] if agree else None,
        routes=list(by_route),
        started=started,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_axioms(op, report, max_degree, budget):
    if max_degree < 1:
        raise CLIError(f"the q-integer check needs degree N >= 1 (got {max_degree})")
    require_budget(op.d**3, budget, f"the Yang-Baxter check of {op.name!r}")
    # the axioms are decided in one computation, so each record carries its time
    started = time.monotonic()
    for name, result in operator_axiom_report(op, max_degree=max_degree):
        report.add(
            f"axioms/{name}",
            computed="holds" if result.ok else f"violated at {result.witness}",
            ok=result.ok,
            routes=["matrix-identity"],
            started=started,
        )


def cmd_dims(op, report, algebra, max_degree, budget):
    key = algebra.lower()
    algebra = algebra_by_key(op, "e" if key == "edual" else key)
    label = algebra.label if key != "edual" else f"dual of {algebra.label}"
    dimension = dual_graded_dimension if key == "edual" else graded_dimension
    for n in range(max_degree + 1):
        started = time.monotonic()
        require_budget(algebra.generators**n, budget, f"degree {n} of {algebra.label}")
        by_route = {"direct-rank": dimension(algebra, n)}
        if key == "e" and n >= 1:  # E has d^2 generators, so (d^n)^2 is within the budget
            by_route["centralizer"] = centralizer_dimension(op, n)
        _merge_routes(report, f"dims/{label}", n, by_route, started)


def cmd_poincare(op, report, max_degree, budget):
    if max_degree < 1:
        raise CLIError(f"the series pipeline needs degree N >= 1 (got {max_degree})")
    n_p = max_degree  # p_0..p_{N-1} feed e_n and b_n through degree N
    s_alg = algebra_by_key(op, "s")
    require_budget(op.d ** (n_p + 1), budget, f"degree {n_p + 1} of {s_alg.label}")

    started = time.monotonic()
    s_dims = [graded_dimension(s_alg, n) for n in range(n_p + 2)]
    p_vals = p_sequence_from_s(s_dims, n_p)
    by_route = {"formula": [str(x) for x in p_vals]}
    if op.q_tends_to_one():
        p_vals = t_specialize_p_from_operator(op, n_p)
        by_route = {"direct-rank": [str(x) for x in p_vals], **by_route}
    _merge_routes(report, "poincare/p-sequence", None, by_route, started)

    e_alg = algebra_by_key(op, "e")
    for name, series, dimension in (
        ("e-dimension", poincare_E, graded_dimension),
        ("b-dimension", b_sequence, dual_graded_dimension),
    ):
        formula = series(p_vals, max_degree)
        for n in range(max_degree + 1):
            started = time.monotonic()
            by_route = {"formula": int(formula[n])}
            if e_alg.generators**n <= budget:
                by_route["direct-rank"] = dimension(e_alg, n)
            _merge_routes(report, f"poincare/{name}", n, by_route, started)

    # the recursion holds at any q, but perfbench/expected.json pins specialized reports without it
    if op.specialized_at is None:
        started = time.monotonic()
        rec = verify_character_recursion(op, max_degree)
        report.add(
            "poincare/character-recursion",
            computed={
                "p_zero": rec.p_zero,
                "rows": [f"n={n}: {lhs} = {rhs}" for n, lhs, rhs, _ in rec.rows],
                "naive_p0_fails": rec.naive_p0_fails,
                "note": rec.note,
            },
            ok=rec.ok,
            routes=["formula"],
            started=started,
        )


def cmd_koszul(op, report, algebra, degree, cap, budget, time_budget=None):
    if degree < 2:
        raise CLIError(
            f"the Koszul checks need degree n >= 2 (got {degree}): "
            "below that there are no relations to test"
        )
    algebra = algebra_by_key(op, algebra.lower())
    require_budget(algebra.generators**degree, budget, f"degree {degree} of {algebra.label}")

    started = time.monotonic()
    series = koszul_series_check(algebra, degree)
    report.add(
        f"koszul/series/{algebra.label}",
        computed={"dims": series.dims, "dual_dims": series.dual_dims, "residuals": series.residuals},
        ok=series.ok,
        degree=degree,
        routes=["direct-rank"],
        started=started,
    )

    started = time.monotonic()
    verdict = distributivity_check(algebra, degree, cap=cap, time_budget=time_budget)
    computed = {"status": verdict.status}
    if verdict.free is not None:
        # the basis counts dim A_n and dim (A^!)_n: a third route for both
        computed["free"] = verdict.free
        computed["dual"] = verdict.dual
    if "closure" in verdict.routes:
        computed["closure_size"] = verdict.closure_size
        computed["eliminations"] = verdict.honest_ops
        computed["certified"] = verdict.certified_ops
    if verdict.status == "inconclusive":
        computed["limit"] = verdict.note
    report.add(
        f"koszul/distributivity/{algebra.label}",
        computed=computed,
        ok=verdict.status == "distributive"
        and verdict.free == series.dims[degree]
        and verdict.dual == series.dual_dims[degree],
        degree=degree,
        expected="distributive",
        routes=verdict.routes,
        started=started,
    )


def _require_schur(op, degree, budget):
    """Refuse a degree the Schur checks cannot run in."""
    if degree < 1:
        raise CLIError(f"the Schur checks need degree n >= 1 (got {degree})")
    if degree > MAX_TABLE_DEGREE and op.q_tends_to_one():
        raise CLIError(
            f"the multiplicities need the character table of S_{degree}, "
            f"which is supported up to n = {MAX_TABLE_DEGREE}"
        )
    # E has d^2 generators, so this bounds its degree-n rank as well
    require_budget((op.d**degree) ** 2, budget, f"the degree-{degree} centralizer")


def cmd_schur(op, report, degree, budget):
    _require_schur(op, degree, budget)
    if op.q_tends_to_one():
        started = time.monotonic()
        rep = schur_dimension_check(op, degree)
        report.add(
            "schur/dimension-three-routes",
            computed={
                "sum_of_squares": rep.sum_of_squares,
                "centralizer": rep.centralizer,
                "e_dimension": rep.e_dimension,
                "multiplicities": {str(k): v for k, v in sorted(rep.table.mult.items(), reverse=True)},
            },
            ok=rep.ok,
            degree=degree,
            routes=["formula", "centralizer", "direct-rank"],
            started=started,
        )
        started = time.monotonic()
        total = rep.table.total_dimension()
        report.add(
            "schur/multiplicity-mass",
            computed={"sum_m_f": total, "d^n": op.d**degree},
            ok=total == op.d**degree,
            degree=degree,
            routes=["formula"],
            started=started,
        )
    else:
        started = time.monotonic()
        by_route = {"centralizer": centralizer_dimension(op, degree)}
        by_route["direct-rank"] = graded_dimension(algebra_by_key(op, "e"), degree)
        _merge_routes(report, "schur/dimension-two-routes", degree, by_route, started)

    started = time.monotonic()
    bic = bicommutant_check(op, degree)
    report.add(
        "schur/double-centralizer",
        computed={
            "hecke_span": bic.hecke_span,
            "bicommutant": bic.bicommutant,
            "centralizer": bic.centralizer,
        },
        ok=bic.ok,
        degree=degree,
        routes=["centralizer"],
        started=started,
    )


def cmd_report(op, report, max_degree, cap, budget, time_budget=None):
    if max_degree < 1:
        raise CLIError(f"the report needs degree N >= 1 (got {max_degree})")
    cmd_axioms(op, report, max(max_degree, 8), budget)
    for key in ("s", "lambda", "e", "edual"):
        cmd_dims(op, report, key, max_degree, budget)
    cmd_poincare(op, report, max_degree, budget)
    if max_degree >= 2:
        for key in ("s", "lambda", "e"):
            cmd_koszul(op, report, key, max_degree, cap, budget, time_budget)
    for n in range(2, min(max_degree, 4) + 1):
        cmd_schur(op, report, n, budget)


# ---------------------------------------------------------------------------
# argument plumbing


# each subcommand and the arguments its report lists as parameters
COMMANDS = {
    "axioms": (cmd_axioms, ("max_degree",)),
    "dims": (cmd_dims, ("algebra", "max_degree")),
    "poincare": (cmd_poincare, ("max_degree",)),
    "koszul": (cmd_koszul, ("algebra", "degree", "cap", "time_budget")),
    "schur": (cmd_schur, ("degree",)),
    "report": (cmd_report, ("max_degree", "cap", "time_budget")),
}


TIME_BUDGET_HELP = "seconds each distributivity check may run before it is inconclusive"
CAP_HELP = "also close the lattice, up to this many members, as a second route"


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--builtin", help="dj:<d>, flip:<d>, or superflip:<r>|<s>")
    common.add_argument("--file", help="path to an operator JSON file")
    common.add_argument("--specialize", help="substitute a rational for p, like p=3/2")
    common.add_argument(
        "--max-dim",
        type=int,
        default=None,
        help=f"ambient dimension budget (default HBL_MAX_AMBIENT or {DEFAULT_BUDGET})",
    )
    common.add_argument("-o", "--out", help="write the JSON report here")

    parser = argparse.ArgumentParser(
        prog="hbl",
        description="exact verification of matrix bialgebras built from Hecke operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", parents=[common], help="operator axiom checks")
    p.add_argument("-N", "--max-degree", type=int, default=8, help="check [k]_q != 0 up to here")

    p = sub.add_parser("dims", parents=[common], help="graded dimensions of one algebra")
    p.add_argument("-a", "--algebra", default="E", choices=["S", "Lambda", "E", "Edual"])
    p.add_argument("-N", "--max-degree", type=int, default=3)

    p = sub.add_parser("poincare", parents=[common], help="series pipeline cross-checks")
    p.add_argument("-N", "--max-degree", type=int, default=4)

    p = sub.add_parser("koszul", parents=[common], help="series identity and distributivity")
    p.add_argument("-a", "--algebra", default="E", choices=["S", "Lambda", "E"])
    p.add_argument("-n", "--degree", type=int, default=3)
    p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    p.add_argument("--time-budget", type=float, default=None, help=TIME_BUDGET_HELP)

    p = sub.add_parser("schur", parents=[common], help="multiplicities and centralizers")
    p.add_argument("-n", "--degree", type=int, default=3)

    p = sub.add_parser("report", parents=[common], help="everything, one JSON document")
    p.add_argument("-N", "--max-degree", type=int, default=3)
    p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    p.add_argument("--time-budget", type=float, default=None, help=TIME_BUDGET_HELP)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise CLIError(f"cannot write the report to {args.out}: no such directory")
        cap = getattr(args, "cap", None)
        if cap is not None and cap < 1:
            raise CLIError(f"the closure size bound --cap must be at least 1 (got {cap})")
        time_budget = getattr(args, "time_budget", None)
        if time_budget is not None and not time_budget > 0:
            raise CLIError(f"the time budget must be a positive number of seconds (got {time_budget})")
        budget = ambient_budget(args)
        op = resolve_operator(args, budget)
        command, names = COMMANDS[args.command]
        # time_budget is a parameter of the run only when it is given
        params = {k: getattr(args, k) for k in names if k != "time_budget" or time_budget is not None}
        report = VerificationReport(args.command, op.name, params)
        command(op, report, budget=budget, **params)
        if not report.checks:
            raise CLIError("these parameters give no checks to run")
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check in report.checks:
        print(check.line())
    state = "all checks passed" if report.ok else "some checks FAILED"
    print(f"{report.command} {report.operator}: {state}")

    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report.to_document(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write the report to {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
