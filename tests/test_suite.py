"""The suite as one table: a selection of check-id prefixes is applied
before the checks are evaluated, and gives what filtering the full report
would give."""

import pytest
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS

from tdlab import forge
from tdlab.linalg import Matrix
from tdlab.psi import build_operator_set
from tdlab.split import build_apparatus
from tdlab.suite import full_suite

SELECTIONS = (["thm"], ["lem.KBfactor.1"], ["uq.first"], ["uq"], ["lem.minpoly"], ["cell"], [])


def _instances():
    yield "fixture2", forge.fixture(2)
    yield "shape121", forge.validate(
        (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)), SHAPE_PARAMS)


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
