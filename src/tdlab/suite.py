"""Aggregate verification: the operator identity suite plus the defining
relations of both module structures, under one report."""

from __future__ import annotations

from .psi import OperatorSet, build_operator_set, run_identity_suite
from .report import CheckResult, VerificationReport
from .split import SplitApparatus, build_apparatus, verify_minpoly_on_MKi
from .tdsystem import TDSystemInstance
from .uqsl2 import first_structure, second_structure, verify_uq_relations


def full_suite(
    sys: TDSystemInstance,
    apparatus: SplitApparatus | None = None,
    ops: OperatorSet | None = None,
) -> VerificationReport:
    """Run every named check for a validated instance."""
    apparatus = apparatus or build_apparatus(sys)
    ops = ops or build_operator_set(sys, apparatus)
    report = run_identity_suite(sys, apparatus, ops)

    for prefix, action in (
        ("uq.first", first_structure(sys, apparatus, ops.R, ops.psi)),
        ("uq.second", second_structure(sys, apparatus, ops.Rdd, ops.psi)),
    ):
        for e in verify_uq_relations(action):
            check_id = e.check_id.replace("uq.", prefix + ".", 1)
            report.add(CheckResult(check_id, e.anchor, e.passed, e.residual, e.note))

    for i, kspace in enumerate(apparatus.Kspaces):
        if not kspace.is_zero():
            report.add(verify_minpoly_on_MKi(sys, apparatus, i))

    return report.sorted()
