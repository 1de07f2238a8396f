"""Aggregate verification: the operator identity suite plus the defining
relations of both module structures and the minimal polynomial on each
MK_i, recorded into one report.

A selection of check-id prefixes is applied before any check is evaluated:
a row it does not select is never formed, and a module structure none of
whose checks it selects is not built.  The apparatus and the operators are
built for every selection.
"""

from __future__ import annotations

from .psi import OperatorSet, build_operator_set, run_identity_suite
from .report import VerificationReport
from .split import SplitApparatus, build_apparatus, verify_minpoly_on_MKi
from .tdsystem import TDSystemInstance
from .uqsl2 import first_structure, second_structure, verify_uq_relations


def full_suite(
    sys: TDSystemInstance,
    apparatus: SplitApparatus | None = None,
    ops: OperatorSet | None = None,
    select=None,
) -> VerificationReport:
    """Run every named check for a validated instance, or, given `select`
    (check-id prefixes), the checks it selects."""
    apparatus = apparatus or build_apparatus(sys)
    ops = ops or build_operator_set(sys, apparatus)
    report = run_identity_suite(sys, apparatus, ops, VerificationReport(select))
    for prefix, structure, raising in (("uq.first", first_structure, ops.R),
                                       ("uq.second", second_structure, ops.Rdd)):
        if report.reaches(prefix):
            verify_uq_relations(structure(sys, apparatus, raising, ops.psi), prefix, report)
    report.run(
        (f"lem.minpoly.MK{i}",
         "minimal polynomial of A on MK_i is the factored product of length d-2i+1",
         lambda i=i: verify_minpoly_on_MKi(sys, apparatus, i))
        for i, k in enumerate(apparatus.Kspaces) if not k.is_zero())
    return report
