"""Acceptance gate: the eight binding correctness criteria.

Each test prints one pass/fail line.  Everything is exact rational
arithmetic with zero tolerance; a single nonzero residual anywhere is a
failure.
"""

import time
from fractions import Fraction

import pytest

from helpers import commutant_oracle, replace, second_inversion, weight_decomposition
from tdlab import forge
from tdlab.linalg import Matrix, Subspace, is_direct_sum, solve_commutant_constraint
from tdlab.psi import (
    build_operator_set,
    build_psi_from_formula,
    build_R,
    run_identity_suite,
)
from tdlab.split import build_apparatus
from tdlab.suite import full_suite
from tdlab.uqsl2 import (
    casimir_of,
    decompose_into_components,
    first_structure,
    second_structure,
)

F = Fraction
FIXTURE_DIAMETERS = (1, 2, 3)


class Bundle:
    """A fixture instance with its apparatus, operators, and timed suite run."""

    def __init__(self, d):
        self.d = d
        self.sys = forge.fixture(d)
        start = time.perf_counter()
        self.apparatus = build_apparatus(self.sys)
        self.ops = build_operator_set(self.sys, self.apparatus)
        self.report = full_suite(self.sys, self.apparatus, self.ops)
        self.elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def bundles():
    return {d: Bundle(d) for d in FIXTURE_DIAMETERS}


def announce(number: int, label: str, ok: bool):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_base_fixture_suite(bundles):
    b = bundles[1]
    ok = (
        len(b.report) >= 30
        and b.report.all_passed
        and all(e.residual is None for e in b.report)
        and b.elapsed < 1.0
    )
    announce(1, "diameter-1 fixture: full exact suite, < 1 s", ok)


def test_criterion_2_higher_fixtures_suite(bundles):
    required = (
        ["thm.BK.%d" % i for i in range(1, 5)]
        + ["thm.psiequations.%d" % i for i in range(1, 5)]
        + ["thm.KBquad", "thm.KBinvquad"]
        + ["lem.KBfactor.%d" % i for i in range(1, 5)]
        + ["lem.KKBB1.%d" % i for i in range(1, 4)]
        + ["lem.KKBB2.%d" % i for i in range(1, 4)]
        + ["eq.A2psi", "eq.psi2A"]
    )
    ok = True
    for d in (2, 3):
        b = bundles[d]
        ids = {e.check_id for e in b.report}
        ok = ok and b.report.all_passed and b.elapsed < 10.0
        ok = ok and all(name in ids for name in required)
    announce(2, "diameter-2 and -3 fixtures: full exact suite, < 10 s each", ok)


def test_criterion_3_lowering_map_uniqueness(bundles):
    ok = True
    for b in bundles.values():
        sys, apparatus = b.sys, b.apparatus
        q = sys.params.q
        formula = build_psi_from_formula(sys, apparatus)
        r = build_R(sys, apparatus)
        k = apparatus.Kop
        c = (q - 1 / q) * (k - k.inverse())
        oracle, freedom = commutant_oracle(r, c, apparatus.Kspaces)
        ok = ok and freedom == 0
        ok = ok and oracle == solve_commutant_constraint(r, c, apparatus.Kspaces)
        ok = ok and oracle == formula == b.ops.psi
    announce(3, "lowering map: formula equals the unique linear-system solution", ok)


def test_criterion_4_casimir_agreement(bundles):
    ok = True
    for b in bundles.values():
        sys, apparatus, ops = b.sys, b.apparatus, b.ops
        q, d, n = sys.params.q, sys.d, sys.dim
        lam1 = casimir_of(first_structure(sys, apparatus, ops.R, ops.psi))
        lam2 = casimir_of(second_structure(sys, apparatus, ops.Rdd, ops.psi))
        ok = ok and lam1 == lam2 == ops.Lambda
        eye = Matrix.identity(n)
        for i, kspace in enumerate(apparatus.Kspaces):
            if kspace.is_zero():
                continue
            scalar = q ** (d - 2 * i + 1) + q ** (2 * i - d - 1)
            mk = apparatus.MK[i]
            ok = ok and ((ops.Lambda - scalar * eye) * mk.basis).is_zero()
    ok = ok and bundles[1].ops.Lambda == F(17, 4) * Matrix.identity(2)
    announce(4, "one Casimir action from both module structures, scalar per block", ok)


def test_criterion_5_decomposition(bundles):
    ok = True
    for b in bundles.values():
        sys, apparatus, ops = b.sys, b.apparatus, b.ops
        n, d, q = sys.dim, sys.d, sys.params.q
        seeded = [i for i, k in enumerate(apparatus.Kspaces) if not k.is_zero()]
        ok = ok and is_direct_sum([apparatus.MK[i] for i in seeded])
        spectrum = [q ** (d - 2 * i) for i in range(d + 1)]
        # decompose_into_components raises if any component basis breaks
        # the irreducible action formulas; the weight spaces, which it does
        # not compute, come from the test oracle
        action1 = first_structure(sys, apparatus, ops.R, ops.psi)
        dec1 = decompose_into_components(action1, sys, apparatus)
        ok = ok and [c.label for c in dec1.components] == [d - 2 * i for i in seeded]
        inv = second_inversion(sys)
        inv_apparatus = build_apparatus(inv)
        action2 = second_structure(sys, apparatus, ops.Rdd, ops.psi)
        decompose_into_components(action2, inv, inv_apparatus)
        weights1, highest1 = weight_decomposition(action1, spectrum)
        weights2, highest2 = weight_decomposition(action2, spectrum)
        for i in range(d + 1):
            ok = ok and weights1[spectrum[i]] == apparatus.U[i]
            ok = ok and weights2[spectrum[i]] == apparatus.Udd[i]
            seed = (
                apparatus.Kspaces[i]
                if i < len(apparatus.Kspaces)
                else Subspace.zero(n)
            )
            ok = ok and highest1[spectrum[i]] == seed
            ok = ok and highest2[spectrum[i]] == seed
    announce(5, "module decomposition: blocks, bases, weight spaces", ok)


def _perturbations(m: Matrix):
    for i in range(m.rows):
        for j in range(m.cols):
            rows = [list(r) for r in (m.row(k) for k in range(m.rows))]
            rows[i][j] += 1
            yield Matrix(rows)


def test_criterion_6_fault_injection(bundles):
    ok = True
    for d in (1, 2):
        b = bundles[d]
        runs = []
        for bad_psi in _perturbations(b.ops.psi):
            runs.append((b.apparatus, replace(b.ops, psi=bad_psi)))
        for bad_k in _perturbations(b.apparatus.Kop):
            runs.append((replace(b.apparatus, Kop=bad_k), b.ops))
        for bad_b in _perturbations(b.apparatus.Bop):
            runs.append((replace(b.apparatus, Bop=bad_b), b.ops))
        residual_witnesses = 0
        for apparatus, ops in runs:
            try:
                report = run_identity_suite(b.sys, apparatus, ops)
            except (ValueError, ArithmeticError):
                # e.g. the perturbed operator became singular: detected
                continue
            bad = [
                e
                for e in report.failures
                if e.residual is not None and not e.residual.is_zero()
            ]
            if not bad:
                ok = False
            residual_witnesses += len(bad)
        ok = ok and residual_witnesses > 0
    announce(6, "every single-entry +1 fault is caught with a residual witness", ok)


def test_criterion_7_dimension_ladder_and_nilpotency(bundles):
    ok = True
    for b in bundles.values():
        sys, apparatus, ops = b.sys, b.apparatus, b.ops
        d, n = sys.d, sys.dim
        for i in range(d + 1):
            dims = {
                sys.eig.eigenspaces[i].dim,
                sys.eigstar.eigenspaces[i].dim,
                apparatus.U[i].dim,
                apparatus.Udd[i].dim,
            }
            ok = ok and len(dims) == 1
        ok = ok and (ops.psi ** (d + 1)).is_zero()
        eye = Matrix.identity(n)
        K, B = apparatus.Kop, apparatus.Bop
        for m in (
            eye - B * K.inverse(),
            eye - K * B.inverse(),
            eye - K.inverse() * B,
            eye - B.inverse() * K,
        ):
            ok = ok and (m ** (d + 1)).is_zero()
    announce(7, "dimension ladder and nilpotency bounds", ok)


def test_criterion_8_round_trip(bundles, tmp_path):
    ok = True
    for d, b in bundles.items():
        path = tmp_path / f"fixture{d}.json"
        forge.export_instance(b.sys, path)
        first = path.read_bytes()
        forge.export_instance(forge.ingest(path), path)
        ok = ok and path.read_bytes() == first
    announce(8, "export then ingest is byte-identical", ok)
