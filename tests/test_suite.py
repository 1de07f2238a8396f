"""The suite as one table: a selection of check-id prefixes is applied
before the checks are evaluated, and gives what filtering the full report
would give.  The operators, the report and the decomposition follow a
change of basis.  Every row but a stated few fails under some single fault
of the apparatus or the operators."""

import pytest
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS, _bump

from helpers import conjugate, leonard, replace, unimodular
from tdlab import forge
from tdlab.linalg import Matrix, Subspace
from tdlab.psi import TABLE_PREFIXES, build_operator_set, run_identity_suite
from tdlab.report import VerificationReport
from tdlab.split import build_apparatus
from tdlab.suite import full_suite
from tdlab.uqsl2 import decompose_into_components, first_structure

SELECTIONS = (["thm"], ["lem.KBfactor.1"], ["uq.first"], ["uq"], ["lem.minpoly"], ["cell"], [])


def _shape121():
    return forge.validate(
        (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)), SHAPE_PARAMS)


def _instances():
    yield "fixture2", forge.fixture(2)
    yield "shape121", _shape121()


@pytest.fixture(scope="module", params=list(_instances()), ids=lambda p: p[0])
def chain(request):
    sys = request.param[1]
    app = build_apparatus(sys)
    ops = build_operator_set(sys, app)
    return sys, app, ops, full_suite(sys, app, ops)


@pytest.mark.parametrize("select", SELECTIONS, ids=lambda s: ",".join(s) or "none")
def test_selection_equals_filtered_full_report(chain, select):
    sys, app, ops, full = chain
    selected = full_suite(sys, app, ops, select)
    expected = [e for e in full
                if any(e.check_id == p or e.check_id.startswith(p + ".") for p in select)]
    assert sorted(selected, key=lambda e: e.check_id) == sorted(expected, key=lambda e: e.check_id)
    assert bool(expected) == bool(select)


def test_check_ids_are_unique(chain):
    ids = [e.check_id for e in chain[3]]
    assert len(ids) == len(set(ids))


def test_unreached_table_forms_no_products(chain, monkeypatch):
    """Every id of the identity table begins with one of TABLE_PREFIXES, so
    a selection that reaches none of them, such as `uq` or none at all,
    skips the table with its shared products."""
    sys, app, ops, _ = chain
    ids = [e.check_id for e in run_identity_suite(sys, app, ops)]
    assert ids and all(i.split(".")[0] in TABLE_PREFIXES for i in ids)
    built = []
    original = Matrix._of.__func__

    def counted(cls, *args):
        built.append(1)
        return original(cls, *args)

    monkeypatch.setattr(Matrix, "_of", classmethod(counted))
    for select in (["uq"], []):
        assert len(run_identity_suite(sys, app, ops, VerificationReport(select))) == 0
    assert not built


BASIS_CHANGE_INSTANCES = {
    "fixture3": lambda: forge.fixture(3),
    "shape121": _shape121,
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", BASIS_CHANGE_INSTANCES)
def test_change_of_basis(name, seed):
    """Conjugating (A, A*) by P conjugates K, B, R, R↓, psi and Lambda by P,
    and leaves the report bytes and the components unchanged."""
    sys = BASIS_CHANGE_INSTANCES[name]()
    app = build_apparatus(sys)
    ops = build_operator_set(sys, app)
    report = full_suite(sys, app, ops)
    p = unimodular(sys.dim, seed)
    pinv = p.inverse()
    moved = conjugate(sys, p)
    moved_app = build_apparatus(moved)
    moved_ops = build_operator_set(moved, moved_app)
    for name, split, dense in (("K", app.Kop, moved_app.Kop), ("B", app.Bop, moved_app.Bop),
                               *((f, getattr(ops, f), getattr(moved_ops, f))
                                 for f in ("R", "Rdd", "psi", "Lambda"))):
        assert dense == p * split * pinv, name
    moved_report = full_suite(moved, moved_app, moved_ops)
    assert moved_report.to_json_lines().encode() == report.to_json_lines().encode()
    parts = [decompose_into_components(first_structure(s, a, o.R, o.psi), s, a).components
             for s, a, o in ((sys, app, ops), (moved, moved_app, moved_ops))]
    assert [(c.i, c.label, c.multiplicity, c.casimir_scalar) for c in parts[1]] == [
        (c.i, c.label, c.multiplicity, c.casimir_scalar) for c in parts[0]]
    assert [c.space for c in parts[1]] == [
        Subspace.from_columns(p * c.space.basis) for c in parts[0]]


def _bumped(m: Matrix) -> Matrix:
    return _bump(m, 0, 1)


def _swap(spaces: tuple) -> tuple:
    return (spaces[1], spaces[0]) + spaces[2:]


# name -> (record, field, fault): one field of the apparatus or the operators
# changed.  Kinv and Binv follow a changed K and B; swapped U_i or U_i↓ meet
# the flag E*_0 V + ... + E*_i V of the true apparatus.
SINGLE_FAULTS = {
    "K doubled": ("app", "Kop", lambda m: 2 * m),
    "K bumped": ("app", "Kop", _bumped),
    "B doubled": ("app", "Bop", lambda m: 2 * m),
    "B bumped": ("app", "Bop", _bumped),
    **{f"{f} bumped": ("ops", f, _bumped) for f in ("R", "Rdd", "psi", "Lambda")},
    **{f"{f} plus I": ("ops", f, lambda m: m + Matrix.identity(m.rows))
       for f in ("R", "Rdd", "psi", "Lambda")},
    "U_0, U_1 swapped": ("app", "U", _swap),
    "U_0↓, U_1↓ swapped": ("app", "Udd", _swap),
}

# Check ids (or id prefixes) that no single fault above fails, and why none can.
NO_SINGLE_FAULT = {
    "uq.first.kkinv": "k^-1 is K.inverse() of whatever K is, so k k^-1 = I",
    "uq.second.kkinv": "k^-1 is B.inverse() of whatever B is, so k k^-1 = I",
    "lem.invertible1": "a I - a^-1 B K^-1 and its companions are singular only when "
                       "a^2 or a^-2 is one of their eigenvalues, which no fault here "
                       "brings about",
    "lem.minpoly.MK": "reads only the factors A - theta_j I and the cells, which no "
                      "fault of K, B, the operators or the U_i changes",
}


def test_every_row_fails_under_a_named_single_fault():
    """Every check id of `full_suite` on fixture 3, leonard(4) and the
    (1,2,1) shape fails under at least one of SINGLE_FAULTS on one of them,
    or is named in NO_SINGLE_FAULT, which names no row that a fault fails."""
    ids, failed_by = set(), {}
    for system in (forge.fixture(3), leonard(4), _shape121()):
        app = build_apparatus(system)
        ops = build_operator_set(system, app)
        ids |= {e.check_id for e in full_suite(system, app, ops)}
        for name, (record, field, fault) in SINGLE_FAULTS.items():
            parts = {"app": app, "ops": ops}
            parts[record] = replace(parts[record], **{field: fault(getattr(parts[record], field))})
            for e in full_suite(system, parts["app"], parts["ops"]).failures:
                failed_by.setdefault(e.check_id, name)

    def excused(check_id):
        return any(check_id.startswith(k) for k in NO_SINGLE_FAULT)

    assert sorted(i for i in ids - failed_by.keys() if not excused(i)) == []
    assert {i: f for i, f in failed_by.items() if excused(i)} == {}
    assert all(any(i.startswith(k) for i in ids) for k in NO_SINGLE_FAULT)
