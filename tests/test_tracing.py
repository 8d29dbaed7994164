"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

The tracer wraps cyclift's functions by module attribute and reads some of
their parameters by name (nvars, equations, inequalities, M, n, d), so a
rename in the package, or a change to verify's signature, would otherwise
break only the traced benchmark run.
It is loaded by file path, so perfbench/ stays off sys.path. The tests'
own independent checks are tests/reference.py, a name perfbench/ does not
use, so tier-1 and the harness tests run together in one pytest call.
"""

import importlib.util
import sys
from pathlib import Path

import cyclift.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module, attr):
    owner_name, _, member = attr.rpartition(".")
    owner = sys.modules[module]
    if owner_name:
        return getattr(owner, owner_name).__dict__[member]
    return getattr(owner, member)


def test_tracer_binds_every_traced_name(capsys):
    tracing = _load_tracing()
    originals = {(m, a): _target(m, a) for _, m, a in tracing.SPANNED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert _target(module, attr) is not original, f"{module}.{attr}"
        assert cli.main(["ef", "--n", "9", "--d", "3", "--check", "2"]) == 0
        assert cli.main(["factorize", "--n", "9", "--d", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for (module, attr), original in originals.items():
        assert _target(module, attr) is original
    assert tracer.calls["exact_lp.ReoptimizingSolver.init"] > 0
    # the solver's start pivots are its independence check: no command
    # calls the separate reduction any more, so its traced name reads 0
    assert tracer.calls["lifting.independent_equations"] == 0
    assert tracer.counts["exact_lp.ReoptimizingSolver.init.tableau_cells"] > 0
    assert tracer.calls["factorization.verify"] > 0
    assert tracer.counts["factorization.verify.entries"] > 0
