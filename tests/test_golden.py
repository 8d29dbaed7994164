"""Golden stdout corpus: the CLI's machine-readable output, byte for byte.

The README promises that stdout is byte-identical across runs with the same
arguments, and refactors must keep it so. Each case records the exit code
and the SHA-256 of stdout; a changed digest means a changed answer or a
changed format. The digests were taken before any of the refactors they
guard, and are only ever regenerated for an intended change of output.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from cyclift import exact_lp, geometry
from cyclift.cli import main
from cyclift.exact_lp import LinearProgram, ReoptimizingSolver, certify
from cyclift.factorization import factorize, factorize_2d, factorize_even, factorize_odd
from cyclift.geometry import CyclicPolytope
from cyclift.lifting import EfOptimizer, ef_from_factorization, hull_ef, lift_objective
from cyclift.rational import format_rational

from reference import vertex_maximum

CASES = {
    ("facets", "--n", "7", "--d", "3"):
        (0, "8621c057a3dbd57e9a7751b45f23a3a87de1a0f59ef7f37a59435af83e990e80"),
    ("facets", "--t1", "-3", "--t2", "4", "--d", "4", "--format", "json"):
        (0, "fd20520d8ce8b0495f78f528f1b5fb30adb169fe3b860ffe6d96fbdbd68234cf"),
    ("slack", "--n", "6", "--d", "2"):
        (0, "d47145883ab1784d451da39113513588ab0bbf33ff000b439afe41982d35fd8c"),
    ("slack", "--t1", "-2", "--t2", "4", "--d", "3", "--format", "json"):
        (0, "c849df24f2e8c086e61cebf18301341d3a9afa1ed0c372f1671d00e9adc3132f"),
    ("factorize", "--n", "33", "--d", "2"):
        (0, "39deaf953f0faefd80c2d70df99d554b87998fa5fceb1a09edaf9677c05f324b"),
    ("factorize", "--n", "9", "--d", "2"):
        (0, "54737af5a8cc0dd5052192d73bcf0c187c3ef1a471b994517454f4bbb6937ca5"),
    ("factorize", "--n", "12", "--d", "3"):
        (0, "a25f984933f4d09d09072e9d30bb5bc485ebd8312c8fc0b447d53e422bec1a5a"),
    ("factorize", "--n", "10", "--d", "4"):
        (0, "a1ee75813e861ff68074935acfd2bf48c70b0d9885566f6c7aea1516ce3cab92"),
    ("factorize", "--n", "9", "--d", "5"):
        (0, "7467074d62d93802b4b3fbb4b2289975c4b07601b937fa224cd517c136df328d"),
    ("factorize", "--n", "10", "--d", "6"):
        (0, "0ee90c842773df0e621daaa1cd315e18fb779c95f2da4bc96599b796dc26089f"),
    ("factorize", "--n", "20", "--d", "6"):
        (0, "5691e9a7cb569d1e466f25c801a47d043a7a3902b45740e3d780950eecd983f3"),
    ("ef", "--n", "10", "--d", "2"):
        (0, "016cad551044b383159138548bb275dab969cf91598b99de95e7065ce4e14cfc"),
    ("ef", "--n", "10", "--d", "2", "--format", "json"):
        (0, "6a674d44c03d16a434c7768d3924ec14dc53b2b55a5d7989a814ebd01306add0"),
    ("ef", "--n", "33", "--d", "2"):
        (0, "27c0b4d76a43ffe9be26dad890afb10ccf5fbb4922f9517821ccea28e8661a48"),
    ("ef", "--n", "33", "--d", "2", "--format", "json"):
        (0, "460e43e686c07a1634a38da9fb7834f5729c1306f8621d7855b85abe6be18d1c"),
    ("ef", "--n", "8", "--d", "3"):
        (0, "5fb5081affcd7a5af19cf3e28249dd4ada8aa2cad47ff44973fd897ce0262b2d"),
    ("ef", "--n", "8", "--d", "3", "--format", "json"):
        (0, "0d2d4778a8a8d1419ad7b2428d736a94f939632efcf54b12e4226d0b66ef3653"),
    ("ef", "--n", "9", "--d", "4"):
        (0, "2a5407bff4dc3bb1e55f6e6f6999520cfc432278b7a6f28ea0ea6a3bb4b46678"),
    ("ef", "--n", "9", "--d", "4", "--format", "json"):
        (0, "26fd6149c87a0f0ba5daeba847a08ab2270ec89a57d060dc93ad6c2302c131b7"),
    ("ef", "--n", "17", "--d", "2", "--check", "5", "--seed", "3"):
        (0, "e6966e4cf7aad58eb67e5d976d33df216dedafe17209ceb66f08b27af7839089"),
    ("minimize-poly", "--coeffs", "9,-6,1", "--n", "6"):
        (0, "bb10a68d17e319c0a9c9e078dd458d2b79d304073ffd5e050da0719c357af59f"),
    ("minimize-poly", "--coeffs", "1/2,-3,1", "--n", "5"):
        (0, "ec61b5bd2d6e9b5da310a12911fbaa8562fe0b16044dcf6830aafcaeaa5bff1e"),
    ("minimize-poly", "--coeffs", "5,-7,0,1", "--n", "9"):
        (0, "aa89b0da2d54a5b5b16d79fa32d75729a487d193e403f663254cc6967fc67e57"),
    ("minimize-poly", "--coeffs", "196,-252,109,-18,1", "--n", "8"):
        (0, "0537d01fcbba54a236e58e84aeb829e1818f8c4f02cd37e5f2de4496218fe1c1"),
    # degree-2 factorizations whose betas are the unique facet duals of
    # larger lifts: folds by shear (n = 128), by reflection (129) and by
    # both (193)
    ("factorize", "--n", "128", "--d", "2"):
        (0, "1f84206c97ce0968a35478f8bdb3fc0c3ef4e824ee7fd3d9267382d4aa2257ef"),
    ("factorize", "--n", "129", "--d", "2"):
        (0, "eb2fbc4634796cd58ef8e3700d6257db0b17d28059432ec441cebd1cc1b19b9d"),
    ("factorize", "--n", "193", "--d", "2"):
        (0, "d580dd7fe26f17e58e9a188444fbf1de324e4363a1f94aacc5a1cb1dfc457955"),
    # the smallest degree-2 factorizations, where the lift is the facet
    # description itself
    ("factorize", "--n", "3", "--d", "2"):
        (0, "1c553022798081b883761b8611a779f42a9c77ac8e8cd19b1a860257a752e424"),
    ("factorize", "--n", "4", "--d", "2"):
        (0, "70d55d7faf2861856762d1651d9033c0f7f826441cb7b73a6b39e435b52a8fca"),
    ("factorize", "--n", "5", "--d", "2"):
        (0, "f71577321d8becc35fbaafad6e023019f42178be147c6cf783772202db6d4851"),
    ("factorize", "--n", "6", "--d", "2"):
        (0, "9263009bc0d6b3a0cd9bec8b817299d35b1b0cce225b8db301e35e8e6158a078"),
    # the other sizes of the certify2d benchmark workload
    ("factorize", "--n", "256", "--d", "2"):
        (0, "1aa11209ee3b274c39746c082b475ca29f527e74d078715103989577f3e49a2d"),
    ("factorize", "--n", "257", "--d", "2"):
        (0, "7c6ee453cf36dbd40160dc9f6df9300f7dd293e7fbc0249f94eb8c82ceff2197"),
    ("factorize", "--n", "513", "--d", "2"):
        (0, "80ce03cad4fd94991f05d0099952e92106a6d2c304ba0ca43ba124e56e5328c5"),
    ("ef", "--n", "65", "--d", "3", "--check", "6", "--seed", "1"):
        (0, "182ac134831ff77f6073d9856f6e0d89fcf6efc975ea1abb5384c8f6a3f5b4df"),
    # a job that pivots equation rows into its starting basis, and a job
    # whose lift has 1080 equation rows
    ("minimize-poly", "--coeffs", "1,-3,2,5", "--n", "75"):
        (0, "fb1fb696ddd694b6fffc45dbe19885308e7acbe0ce488910bcb8702149a6d6fb"),
    ("minimize-poly", "--coeffs", "3,1,-2,4,1", "--n", "48"):
        (0, "36c50a253b97fb08ba645088f59239fbbd45de27a80570388c4380a6b8d2bcdf"),
    # minimize-poly where the trivial factorization wins (n below the
    # construction rank): the minpoly_mix shapes at d = 4, 5, 6, and a
    # degree-8 polynomial on 30 points (17250 facets)
    ("minimize-poly", "--coeffs", "4,-9,5,-8,1", "--n", "37"):
        (0, "e91adc5c0003863a5373ae3dfb763847b589f2ecce78b633197438af572a97a0"),
    ("minimize-poly", "--coeffs", "5,-4,0,9,-6,1", "--n", "24"):
        (0, "580aedb5a6bef5ef31a52ec878a311efb07e1bb8a27b78d076a1d9cdaf4f0c84"),
    ("minimize-poly", "--coeffs=-5,8,1,-7,2,9,-3", "--n", "17"):
        (0, "9b48c7d0d6d4c9788c49a54924abfc02a2da0e0691dc50993578633dcf750018"),
    ("minimize-poly", "--coeffs", "1,0,0,0,0,0,0,0,1", "--n", "30"):
        (0, "9a357b854c38c6e31c17e0a7fe4d2a90fce5bf8e3c9978ec7314f4d5aad7867c"),
}

# factorize --n 17 --d 2 --out FILE, then verify FILE
FACTORIZE_17_FILE = "afdc9803a16fc97955b3fef0a2cf8b2bcd947bce73f8b17ab29dc46aaa57d04d"
VERIFY_17_STDOUT = "eb04bf068bf4c76e11c4c69d1f64f6f40c8a06d16f1a229742f67d09721c370b"

# factorize --n N --d 2 --out FILE, add 1/7 to one entry, then verify FILE:
# (n, "alpha" or "beta", vector index, coordinate) -> verify stdout. A beta
# entry in a late column fails first at a middle vertex; an alpha entry in a
# late row fails at that row's first column.
TAMPERED = {
    (513, "beta", -3, 0):
        "4cf2e6b43c65acce6ba7287fbbe9a5fc192766ab2aaff14800465f111f482bf5",
    (257, "alpha", -3, 0):
        "bccc850edd10f27bbf65f1dbd803cce83caca695d739eced6ae8e534717e41b1",
}

# factorize_2d(n) for n = 3..130, each document as json.dumps(...,
# sort_keys=True) followed by a newline, hashed as one stream: the plain
# facet systems and lifts of up to five odd and even folds. Each beta is the
# one optimal dual of its facet LP over the lift, so it depends on no pivot
# or tie-break; the digest pins the closed form to the LP's answer
FACTORIZE_2D_SWEEP = (
    range(3, 131),
    "75c69873f786f4e7c11dd6efc04857d2bab1fac0aac5aaaeee3fc9a6b9854332",
)

# factorize_even(n, d // 2) or factorize_odd(n, d // 2) at (d, n) for
# d = 3..7 over the sizes below, each as repr((rank, alpha, beta,
# column_labels, target)) followed by a newline, hashed as one stream. repr
# tells an int entry from a Fraction of equal value, so the digest pins
# every entry's type as well as its value: an integral entry, zeros
# included, is an int, and any other a Fraction, as parse_rational reads
# them. Every factorize --d >= 3 case of the stdout corpus takes the
# trivial route, so nothing else pins these.
FACTORIZE_TENSOR_SWEEP = (
    {3: range(4, 41), 4: range(5, 21), 5: range(6, 15), 6: range(7, 12), 7: range(8, 11)},
    "07b5fee87d642111724501cc3c0d26e77ab2fd251085b6d0ccd59bf6db3e64c1",
)

# the same sweep with every alpha and beta entry rendered by
# format_rational: the values alone, whatever type holds them
FACTORIZE_TENSOR_VALUES = "61bde3aa45dabf3b4eac179a2255fd377c857ca57c512546f3d1e3123d8b44a6"

# (d, n, lift, objectives): one warm EfOptimizer per lift maximizes and then
# minimizes each objective in turn, and every result is hashed in full
# (status, value, primal point, inequality duals and the duals of every
# lifted equation, each by format_rational), one line per solve. The duals
# depend on which optimal basis Bland's rule reaches. The lifts are the
# degree-3 lift of the lift_queries benchmark workload under (2 t0, -1, 0)
# for t0 = 1..65, and the convex-hull lift of minimize-poly's trivial route.
EF_SOLVE_CASES = (
    (3, 65, "factorization", [(2 * t0, -1, 0) for t0 in range(1, 66)]),
    (4, 37, "hull", [(-9, 5, -8, 1)]),
)
EF_SOLVE_DIGEST = "53a69f7693d01275891b63180a7982bcac329b55b2a76dc2ce06c9a79f968668"

# the simplex pivots of the 130 solves of the first EF_SOLVE_CASES lift,
# start-basis pivots excluded: a ceiling, so that a pivot rule that walks
# further fails here before the benchmark sees it
EF_SOLVE_PIVOT_CEILING = 2226

# the row updates over the same 130 solves: exact_lp._update calls (a
# packed tableau row's update in a pivot) and exact_lp._eliminate calls
# (the objective row in a pivot, the pricing of each new objective, and a
# tableau row kept as a list): a ceiling, so that a layout that updates
# rows the simplex never reads again, or pricing that reduces each
# objective against the set-aside rows again once their unit rows are
# priced, fails here: 26189 tableau rows and 2226 objective rows in
# pivots, and 279 in pricing. A row whose entry at the entering position
# is 0 keeps its entries and its den, and is no update
EF_SOLVE_ROW_UPDATE_CEILING = 28694

# the integers those row updates pass through (the row's slots, 11
# positions plus the rhs on this lift, for an exact_lp._update call, and
# len(row) for an exact_lp._eliminate call) over the same 130 solves: a
# ceiling, so that a tableau that stores a column it never needs to update
# (a basic column, or a variable column once the variable has entered)
# fails here: 340980 integers in pivots and 5481 in pricing, which maps
# the priced combination to the positions (plus the basic columns it
# reads) before the tableau rows clear it: 3297 against the tableau rows
# and 2184 against the set-aside rows, the unit rows priced once included
EF_SOLVE_ROW_CELL_CEILING = 346461


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(CASES), ids=" ".join)
def test_stdout_digest(capsys, argv):
    rc = main(list(argv))
    assert (rc, _sha256(capsys.readouterr().out)) == CASES[argv]


# Below the public facet_inequality a facet is its slack polynomial: the
# lifts, factorize's bottom facet system and verify read SlackMatrix
# .polynomials and build no FacetInequality
ONE_FACET_FORM = [
    ("ef", "--n", "65", "--d", "3", "--check", "6", "--seed", "1"),
    ("ef", "--n", "33", "--d", "2"),
    ("minimize-poly", "--coeffs", "1,-3,2,5", "--n", "75"),
    ("factorize", "--n", "129", "--d", "2"),
]


def test_pipeline_builds_no_facet_inequality(capsys, monkeypatch, tmp_path):
    class Refused:
        def __init__(self, *args):
            raise AssertionError("a FacetInequality was built")

    monkeypatch.setattr(geometry, "FacetInequality", Refused)
    for argv in ONE_FACET_FORM:
        rc = main(list(argv))
        assert (rc, _sha256(capsys.readouterr().out)) == CASES[argv]
    path = tmp_path / "f129.json"
    assert main(["factorize", "--n", "129", "--d", "2", "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0


def test_verify_written_file(capsys, tmp_path):
    path = tmp_path / "f17.json"
    assert main(["factorize", "--n", "17", "--d", "2", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert _sha256(path.read_text()) == FACTORIZE_17_FILE
    assert main(["verify", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_17_STDOUT


@pytest.mark.parametrize("case", list(TAMPERED), ids=str)
def test_verify_tampered_file(capsys, tmp_path, case):
    n, side, index, k = case
    path = tmp_path / f"f{n}.json"
    assert main(["factorize", "--n", str(n), "--d", "2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    vec = data[side][index]
    vec[k] = str(Fraction(vec[k]) + Fraction(1, 7))
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert _sha256(capsys.readouterr().out) == TAMPERED[case]


def test_factorize_2d_sweep_digest():
    sizes, digest = FACTORIZE_2D_SWEEP
    h = hashlib.sha256()
    for n in sizes:
        h.update(json.dumps(factorize_2d(n).to_json_dict(), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == digest


def _tensor_sweep():
    for d, ns in FACTORIZE_TENSOR_SWEEP[0].items():
        build = factorize_odd if d % 2 else factorize_even
        for n in ns:
            yield build(n, d // 2)


def test_factorize_tensor_sweep_digest():
    h = hashlib.sha256()
    for F in _tensor_sweep():
        h.update(repr((F.rank, F.alpha, F.beta, F.column_labels, F.target)).encode())
        h.update(b"\n")
    assert h.hexdigest() == FACTORIZE_TENSOR_SWEEP[1]


def test_factorize_tensor_sweep_values():
    h = hashlib.sha256()
    for F in _tensor_sweep():
        alpha, beta = ([list(map(format_rational, v)) for v in side] for side in (F.alpha, F.beta))
        h.update(repr((F.rank, alpha, beta, F.column_labels, F.target)).encode())
        h.update(b"\n")
    assert h.hexdigest() == FACTORIZE_TENSOR_VALUES


def _render_result(res) -> str:
    parts = [res.status, format_rational(res.value)]
    for vec in (res.primal, res.dual_ineq, res.dual_eq):
        parts.append(",".join(map(format_rational, vec)))
    return " ".join(parts)


def test_ef_solve_digest():
    h = hashlib.sha256()
    for d, n, lift, objectives in EF_SOLVE_CASES:
        P = CyclicPolytope.standard(d, n)
        ef = ef_from_factorization(P, factorize(n, d)) if lift == "factorization" else hull_ef(P)
        optimizer = EfOptimizer(ef)
        for objective in objectives:
            for sense in ("max", "min"):
                h.update(_render_result(optimizer.solve(objective, sense)).encode())
                h.update(b"\n")
    assert h.hexdigest() == EF_SOLVE_DIGEST


def _ef_solve_lift(d, n, lift):
    P = CyclicPolytope.standard(d, n)
    return ef_from_factorization(P, factorize(n, d)) if lift == "factorization" else hull_ef(P)


def test_ef_solve_cases_certify_and_match_vertex_scan():
    """Every solve the digest pins is an optimum: it certifies against the
    lift's own program, and its value is the extreme over the vertices."""
    for d, n, lift, objectives in EF_SOLVE_CASES:
        ef = _ef_solve_lift(d, n, lift)
        lifted = ef.lifted
        optimizer = EfOptimizer(ef)
        for objective in objectives:
            for sense in ("max", "min"):
                res = optimizer.solve(objective, sense)
                lp = LinearProgram(
                    sense, lift_objective(ef, objective), lifted.equations, lifted.inequalities
                )
                assert certify(lp, res)
                if sense == "max":
                    assert res.value == vertex_maximum(objective, d, 1, n)
                else:
                    assert res.value == -vertex_maximum([-c for c in objective], d, 1, n)


def test_ef_solve_pivot_ceiling(monkeypatch):
    d, n, lift, objectives = EF_SOLVE_CASES[0]
    optimizer = EfOptimizer(_ef_solve_lift(d, n, lift))
    pivots = []
    original = ReoptimizingSolver._pivot

    def counting(self, pi, ps, column):
        pivots.append(ps)
        original(self, pi, ps, column)

    monkeypatch.setattr(ReoptimizingSolver, "_pivot", counting)
    for objective in objectives:
        for sense in ("max", "min"):
            optimizer.solve(objective, sense)
    assert 0 < len(pivots) <= EF_SOLVE_PIVOT_CEILING


def _count_row_updates(monkeypatch, optimizer):
    """(kind, integers) of every row update of exact_lp: a packed row's
    (_update: its slots) and a list row's (_eliminate: its length)."""
    updates = []
    solver = optimizer._solver
    update, eliminate = exact_lp._update, exact_lp._eliminate

    def counting_update(row, f, p, prow, den):
        updates.append(("packed", len(solver._cols) + 1))
        return update(row, f, p, prow, den)

    def counting_eliminate(row, den, f, p, support):
        updates.append(("list", len(row)))
        return eliminate(row, den, f, p, support)

    monkeypatch.setattr(exact_lp, "_update", counting_update)
    monkeypatch.setattr(exact_lp, "_eliminate", counting_eliminate)
    return updates


def test_ef_solve_row_update_ceiling(monkeypatch):
    d, n, lift, objectives = EF_SOLVE_CASES[0]
    optimizer = EfOptimizer(_ef_solve_lift(d, n, lift))
    updates = _count_row_updates(monkeypatch, optimizer)
    for objective in objectives:
        for sense in ("max", "min"):
            optimizer.solve(objective, sense)
    # the tableau rows are updated packed, and not only pricing is counted
    assert {kind for kind, _ in updates} == {"packed", "list"}
    assert 0 < len(updates) <= EF_SOLVE_ROW_UPDATE_CEILING


def test_ef_solve_row_cell_ceiling(monkeypatch):
    d, n, lift, objectives = EF_SOLVE_CASES[0]
    optimizer = EfOptimizer(_ef_solve_lift(d, n, lift))
    updates = _count_row_updates(monkeypatch, optimizer)
    for objective in objectives:
        for sense in ("max", "min"):
            optimizer.solve(objective, sense)
    assert {kind for kind, _ in updates} == {"packed", "list"}
    assert 0 < sum(cells for _, cells in updates) <= EF_SOLVE_ROW_CELL_CEILING
