"""Guards on the exact library chain that the golden tests do not cover.

The chain apparatus -> operators -> full suite -> decomposition is kept
within a budget of matrix constructions (each one pays a normalization),
and a report with failing checks is pinned byte for byte, so that the
residual witnesses, not only passing verdicts, stay identical.  A refused
CLI command is kept from importing the layers it does not run.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from helpers import leonard, replace
from tdlab import forge, linalg, split
from tdlab.linalg import Matrix, Subspace
from tdlab.psi import build_operator_set
from tdlab.split import build_apparatus
from tdlab.suite import full_suite
from tdlab.tdsystem import QRacahParams
from tdlab.uqsl2 import decompose_into_components, first_structure

F = Fraction

# Matrices built through Matrix._of by the chain on the d = 4 Leonard pair
# below: 1907 when each sum and scaling built its own temporary, about 900
# with fused linear combinations and one subspace lattice per apparatus.
MATRIX_BUDGET = 1200

# full_suite on fixture(2) with K doubled in the apparatus and the operators
# of the true apparatus: (checks, failing checks, bytes, sha256 of the JSON).
FAILING_SUITE = (84, 33, 10876, "90fa6b10b3b339e736383d487edaa466ab3183838ae884750366a0a9575921d5")

# Modules a refused command must not load: the layers past validation, and
# standard modules that no tdlab module needs before its verdict.
NOT_LOADED_ON_REFUSAL = ("dataclasses", "inspect", "typing", "pathlib",
                         "tdlab.split", "tdlab.psi", "tdlab.suite", "tdlab.uqsl2")
REFUSAL_SCRIPT = """
import json, sys
from tdlab import cli
code = cli.main(["verify", "--instance", sys.argv[1]])
print(json.dumps([code, [m for m in sys.argv[2:] if m in sys.modules]]))
"""


def test_library_chain_stays_within_matrix_budget(monkeypatch):
    p = QRacahParams(4, F(2), F(3), F(5))
    system = forge.validate(forge.build_split_form(p, forge.leonard_phi(p)), p)
    built = []
    original = Matrix._of.__func__

    def counted(cls, *args):
        built.append(1)
        return original(cls, *args)

    monkeypatch.setattr(Matrix, "_of", classmethod(counted))
    app = build_apparatus(system)
    ops = build_operator_set(system, app)
    report = full_suite(system, app, ops)
    decompose_into_components(first_structure(system, app, ops.R, ops.psi), system, app)
    monkeypatch.undo()
    assert report.all_passed
    assert 0 < len(built) <= MATRIX_BUDGET, len(built)


def test_apparatus_intersects_only_for_U_Udd_and_K(monkeypatch):
    """2(d + 1) intersections cut the two split decompositions and d/2 + 1
    more the K_i = U_i ∩ U_i↓, with no second formula for the K_i to check
    them against; a subspace is its basis alone."""
    system, calls = leonard(8), []
    original = split.subspace_intersect

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(split, "subspace_intersect", counted)
    build_apparatus(system)
    assert len(calls) <= 2 * (8 + 1) + 8 // 2 + 1, len(calls)
    assert Subspace.__slots__ == ("basis",)


def test_apparatus_checks_the_flag_by_dimensions(monkeypatch):
    """Both splits are held to the flag E*_0 V + ... + E*_i V that
    `eigenspace_sums` built, by a dimension count: no sums of the U_i or the
    U_i↓ are formed (94 eliminations for leonard(8) when both chains were
    formed and compared), and directness is decided once, by K and B."""
    system, calls = leonard(8), []
    original = linalg.rref

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    build_apparatus(system)
    assert len(calls) <= 76, len(calls)
    assert not hasattr(split.SplitApparatus, "prefix_sums")


def test_failing_report_bytes():
    system = forge.fixture(2)
    app = build_apparatus(system)
    ops = build_operator_set(system, app)
    report = full_suite(system, replace(app, Kop=2 * app.Kop), ops)
    text = report.to_json_lines().encode()
    assert all(e.residual is not None for e in report.failures)
    assert (len(report), len(report.failures), len(text), hashlib.sha256(text).hexdigest()) == (
        FAILING_SUITE
    )


def test_refusal_loads_only_the_validation_layer(tmp_path):
    """Without site (which may import typing and pathlib itself), a malformed
    instance is refused with exit 2 before any later layer is imported."""
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "A": [["1"]]}')
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", REFUSAL_SCRIPT, str(path), *NOT_LOADED_ON_REFUSAL],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert json.loads(proc.stdout) == [2, []], proc.stderr
    assert proc.stderr.startswith("invalid instance: ")
