"""Outside-in tracing of cyclift's public functions.

The package binds its functions with `from .x import f`, so one function
object can be reachable under several module attributes (`cyclift.verify`,
`cyclift.factorization.verify`, `cyclift.lifting.verify`,
`cyclift.cli.verify`). `Tracer.install` replaces the function at every one
of those bindings, and methods on their class, with a wrapper that records
a span (name, start, end, parent) or, for the tiny rational helpers, only
a call count. Nothing under `src/` changes; the untraced runs never call
`install`.

Counts are computed from each call's arguments and return value, never from
private state, so they are the same on every run with the same inputs.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" patches the class itself.
SPANNED = [
    ("cli.main", "cyclift.cli", "main"),
    ("geometry.enumerate_facets", "cyclift.geometry", "enumerate_facets"),
    ("geometry.slack_matrix", "cyclift.geometry", "slack_matrix"),
    ("geometry.facet_inequality", "cyclift.geometry", "facet_inequality"),
    ("factorization.factorize", "cyclift.factorization", "factorize"),
    ("factorization.hadamard_combine", "cyclift.factorization", "hadamard_combine"),
    ("factorization.verify", "cyclift.factorization", "verify"),
    ("factorization.NonnegFactorization.to_json_dict", "cyclift.factorization",
     "NonnegFactorization.to_json_dict"),
    ("factorization.NonnegFactorization.from_json_dict", "cyclift.factorization",
     "NonnegFactorization.from_json_dict"),
    ("lifting.build_ef_2d", "cyclift.lifting", "build_ef_2d"),
    ("lifting.factorization_from_ef", "cyclift.lifting", "factorization_from_ef"),
    ("lifting.ef_from_factorization", "cyclift.lifting", "ef_from_factorization"),
    ("lifting.independent_equations", "cyclift.lifting", "independent_equations"),
    ("lifting.EfOptimizer.init", "cyclift.lifting", "EfOptimizer.__init__"),
    ("lifting.EfOptimizer.query", "cyclift.lifting", "EfOptimizer.maximize"),
    ("lifting.EfOptimizer.query", "cyclift.lifting", "EfOptimizer.minimize"),
    ("exact_lp.ReoptimizingSolver.init", "cyclift.exact_lp", "ReoptimizingSolver.__init__"),
    ("exact_lp.ReoptimizingSolver.maximize", "cyclift.exact_lp", "ReoptimizingSolver.maximize"),
]
COUNTED = [
    ("rational.parse_rational", "cyclift.rational", "parse_rational"),
    ("rational.format_rational", "cyclift.rational", "format_rational"),
]
JOB = "job"


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans kept in memory; `summary` turns them into per-layer numbers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.calls = Counter()
        self.counts = Counter()
        self.max_bits = 0
        self.job = None
        self._open = []
        self._undo = []

    # -- span recording ---------------------------------------------------

    def begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _spanned(self, name, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe is not None else None

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.calls[name] += 1
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, module, attr in table:
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    self._patch_method(name, sys.modules[module], owner_name, member, make)
                else:
                    self._patch_function(name, getattr(sys.modules[module], attr), make)

    def _patch_function(self, name, original, make) -> None:
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cyclift" and not mod_name.startswith("cyclift."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, name, module, owner_name, member, make) -> None:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[member]
        if isinstance(raw, classmethod):
            patched = classmethod(make(name, raw.__func__))
        else:
            patched = make(name, raw)
        setattr(owner, member, patched)
        self._undo.append((owner, member, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time (span minus its wrapped children), plus the
        job-level totals that show how much of each job the layers cover."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        job_s = covered_s = 0.0
        for k, (name, t0, t1, parent, job) in enumerate(self.spans):
            own = (t1 - t0) - child[k]
            if name == JOB:
                job_s += t1 - t0
                continue
            self_s[name] += own
            if job is not None:
                covered_s += own
        return {
            "self_s": dict(self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "max_bits": self.max_bits,
            "job_s": job_s,
            "covered_s": covered_s,
        }


# -- computed counts, from arguments and return values ------------------------


def _obs_enumerate_facets(tr, args, out):
    tr.counts["geometry.enumerate_facets.facets"] += len(out)


def _obs_slack_matrix(tr, args, out):
    tr.counts["geometry.slack_matrix.entries"] += out.n_rows * out.n_cols


def _obs_factorize(tr, args, out):
    from cyclift.factorization import construction_rank

    built = construction_rank(args["n"], args["d"])
    if out.rank == built:
        tr.counts["factorization.factorize.kept"] += 1
    else:
        tr.counts["factorization.factorize.discarded_rank"] += built


def _obs_verify(tr, args, out):
    M = args["M"]
    if out.ok:
        tr.counts["factorization.verify.entries"] += M.n_rows * M.n_cols
    elif out.first_mismatch is not None:
        vertex, label = out.first_mismatch[0], out.first_mismatch[1]
        row = vertex - M.polytope.interval.t1
        tr.counts["factorization.verify.entries"] += (
            row * M.n_cols + M.columns.index(label) + 1
        )


def _obs_independent_equations(tr, args, out):
    tr.counts["lifting.independent_equations.rows_in"] += len(args["equations"])
    tr.counts["lifting.independent_equations.rows_kept"] += len(out)


def _obs_solver_init(tr, args, out):
    # one tableau row per constraint; 2*nvars + mi + m columns plus the rhs
    nvars = args["nvars"]
    mi = len(args.get("inequalities", ()))
    m = len(args.get("equations", ())) + mi
    tr.counts["exact_lp.ReoptimizingSolver.init.tableau_cells"] += m * (
        2 * nvars + mi + m + 1
    )


def _obs_solver_maximize(tr, args, out):
    parts = [out.value] if out.value is not None else []
    for vec in (out.primal, out.dual_ineq, out.dual_eq):
        if vec:
            parts.extend(vec)
    for x in parts:
        b = _bits(x)
        if b > tr.max_bits:
            tr.max_bits = b


_OBSERVERS = {
    "geometry.enumerate_facets": _obs_enumerate_facets,
    "geometry.slack_matrix": _obs_slack_matrix,
    "factorization.factorize": _obs_factorize,
    "factorization.verify": _obs_verify,
    "lifting.independent_equations": _obs_independent_equations,
    "exact_lp.ReoptimizingSolver.init": _obs_solver_init,
    "exact_lp.ReoptimizingSolver.maximize": _obs_solver_maximize,
}
