"""Golden outputs: exit codes and exact output bytes, frozen.

Byte streams are pinned by length and SHA-256 digest; the operators of the
(1,2,1) shape are pinned as literal matrices.  A refactor of the operator
or suite code must leave every one of them unchanged.
"""

import hashlib
from fractions import Fraction

import pytest

from helpers import replace
from tdlab import cli, forge
from tdlab.linalg import Matrix
from tdlab.psi import build_operator_set, run_identity_suite
from tdlab.split import build_apparatus
from tdlab.suite import full_suite
from tdlab.tdsystem import QRacahParams
from tdlab.uqsl2 import decompose_into_components, first_structure

F = Fraction

# (d, argv after --instance) -> (exit code, byte length, sha256 of stdout)
CLI_GOLDEN = {
    (1, ("verify",)): (0, 8318, "f9763497715ff88a15f1c2300ef7acd648c4cb87a6e02d4ec489153bc489ebd7"),
    (1, ("decompose",)): (0, 70, "9c0f50ea8f9ada641fc1075a09435d442078af606afe3ff4098fb7f5d2bf06f3"),
    (1, ("export", "--what", "operators")): (0, 514, "7f05b0c22e137485fc28fd92f753512b3031f2b2c0058db357821139adc4c917"),
    (1, ("export", "--what", "apparatus")): (0, 740, "7d1f2140813dcc58c1f903477619d33409bfb538d9f6a11f233465529e2e1cac"),
    (2, ("verify",)): (0, 8318, "f9763497715ff88a15f1c2300ef7acd648c4cb87a6e02d4ec489153bc489ebd7"),
    (2, ("decompose",)): (0, 70, "581dfb2e24f9b3ab089c2b02db1c5800d511f4dea928c64226942914d31a7b0c"),
    (2, ("export", "--what", "operators")): (0, 945, "879ef13ddeca1f80698433c5c9d9d8f65d54742abc912a44b99b2ed1a4f56de8"),
    (2, ("export", "--what", "apparatus")): (0, 1490, "cdee3cf5d7b001df812f13c36a6ab8525729db7217a743e2f62ce4c3beb55fb1"),
    (3, ("verify",)): (0, 8318, "f9763497715ff88a15f1c2300ef7acd648c4cb87a6e02d4ec489153bc489ebd7"),
    (3, ("decompose",)): (0, 72, "52dea6dec3a5761a97888462eafb52b1567c982304abce892ce1f27d3f839f75"),
    (3, ("export", "--what", "operators")): (0, 1557, "9dc2f8a28469fbd1c1cb24f2a08687afa63ac1e9194e634c339db4d21d7821ce"),
    (3, ("export", "--what", "apparatus")): (0, 2477, "995e04369b0a9465071176963ff10bf421dc9aaa4e4bf6f8e25de45688eb6b33"),
}

# The (1,2,1) shape at d = 2: n = 4, K_1 != 0, decomposes as L(2,1) + L(0,1).
SHAPE_PARAMS = QRacahParams(2, F(2), F(5), F(5))
SHAPE_A = [
    ["401/20", "0", "0", "0"],
    ["3/2", "26/5", "0", "0"],
    ["0", "0", "26/5", "0"],
    ["0", "15/4", "0", "41/20"],
]
SHAPE_ASTAR = [
    ["401/20", "-1529/10", "1", "0"],
    ["0", "26/5", "0", "-5"],
    ["0", "0", "26/5", "-4"],
    ["0", "0", "0", "41/20"],
]
SHAPE_OPERATORS = {
    "R": [
        ["0", "0", "0", "0"],
        ["3/2", "0", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "15/4", "0", "0"],
    ],
    "Rdd": [
        ["18", "-189/5", "0", "-16848/25"],
        ["3/2", "0", "0", "-1782/25"],
        ["0", "0", "0", "0"],
        ["0", "15/4", "0", "-18"],
    ],
    "psi": [
        ["0", "15/4", "0", "0"],
        ["0", "0", "0", "3/2"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "0"],
    ],
    "Lambda": [
        ["65/8", "0", "0", "0"],
        ["0", "65/8", "0", "0"],
        ["0", "0", "5/2", "0"],
        ["0", "0", "0", "65/8"],
    ],
}
SHAPE_SUITE = (85, 8449, "a5f9bbec567f6dbe7a3bb8abdcf72103178401f3be97745c851edd6d906c9ea5")

# Identity-suite reports on fixture(2) with one operator entry bumped by 1:
# (operator, row, col) -> (failures, byte length, sha256 of the JSON lines).
FAULT_GOLDEN = {
    ("psi", 0, 0): (40, 9977, "13503218fa57ae6d81eaf16d6a0e65553209bf514ef91b8f485aa0380eda182c"),
    ("R", 0, 0): (12, 7880, "bfd413461b9d443f5d085645a5ef4aed62dd8a8f2117ad1b1b7afe779b456e8d"),
    ("Rdd", 2, 0): (13, 8124, "76bda368575a68ad30c2e4264d26f5d2392adac1f2465d9d23cf99a7d3f8e3ad"),
    ("Kop", 0, 1): (28, 9116, "61edba05b1680fb5c3f1a67198049330b67661418d1601f4b68b30eb3d3c80b0"),
    ("Bop", 1, 0): (33, 10031, "b5179f4d1c6cd2a55c1d8ae536587d60eafb801034a6e014a1a967869bd39d62"),
}


def _fingerprint(text: str) -> tuple:
    data = text.encode()
    return len(data), hashlib.sha256(data).hexdigest()


def _bump(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(m.row(k)) for k in range(m.rows)]
    rows[i][j] += 1
    return Matrix(rows)


@pytest.mark.parametrize("d,argv", sorted(CLI_GOLDEN))
def test_cli_output_bytes(d, argv, tmp_path, capsys):
    path = tmp_path / f"fixture{d}.json"
    forge.export_instance(forge.fixture(d), path)
    code = cli.main([argv[0], "--instance", str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert (code, *_fingerprint(out)) == CLI_GOLDEN[(d, argv)]


@pytest.fixture(scope="module")
def shape():
    sys = forge.validate(
        (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)), SHAPE_PARAMS
    )
    app = build_apparatus(sys)
    return sys, app, build_operator_set(sys, app)


def test_shape_operators(shape):
    _, _, ops = shape
    for name, expected in SHAPE_OPERATORS.items():
        assert getattr(ops, name).to_strings() == expected, name


def test_shape_suite_bytes(shape):
    report = full_suite(*shape)
    assert report.all_passed
    assert "lem.minpoly.MK1" in {e.check_id for e in report}
    assert (len(report), *_fingerprint(report.to_json_lines())) == SHAPE_SUITE


def test_shape_decomposition(shape):
    sys, app, ops = shape
    action = first_structure(sys, app, ops.R, ops.psi)
    dec = decompose_into_components(action, sys, app)
    assert [(c.i, c.label, c.multiplicity, c.casimir_scalar) for c in dec.components] == [
        (0, 2, 1, F(65, 8)),
        (1, 0, 1, F(5, 2)),
    ]


@pytest.fixture(scope="module")
def w2():
    sys = forge.fixture(2)
    app = build_apparatus(sys)
    return sys, app, build_operator_set(sys, app)


@pytest.mark.parametrize("fault", sorted(FAULT_GOLDEN))
def test_fault_report_bytes(fault, w2):
    name, i, j = fault
    sys, app, ops = w2
    if name in ("Kop", "Bop"):
        app = replace(app, **{name: _bump(getattr(app, name), i, j)})
    else:
        ops = replace(ops, **{name: _bump(getattr(ops, name), i, j)})
    report = run_identity_suite(sys, app, ops)
    assert (len(report.failures), *_fingerprint(report.to_json_lines())) == FAULT_GOLDEN[fault]
