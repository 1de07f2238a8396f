"""tdlab: exact verification toolkit for tridiagonal systems of q-Racah type.

Validation (`linalg`, `report`, `tdsystem`) is imported with the package;
the layers that only run after an instance is validated (the split
apparatus, the operators and the suite) are imported on first use of their
names, so that a process that refuses its input never loads them.  The
names are looked up in their module on every use, not copied here, so
whatever that module holds is what the package serves.
"""

from .linalg import Matrix, Rational, Subspace, rat, rat_str
from .report import CheckResult, VerificationReport
from .tdsystem import QRacahParams, TDSystemInstance

# name -> the module that defines it, imported by `__getattr__` (PEP 562).
_LAZY = {
    "SplitApparatus": "split",
    "build_apparatus": "split",
    "OperatorSet": "psi",
    "build_operator_set": "psi",
    "full_suite": "suite",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "CheckResult",
    "Matrix",
    "OperatorSet",
    "QRacahParams",
    "Rational",
    "SplitApparatus",
    "Subspace",
    "TDSystemInstance",
    "VerificationReport",
    "build_apparatus",
    "build_operator_set",
    "full_suite",
    "rat",
    "rat_str",
]
