"""Produce validated instances: the split-form Leonard pairs and JSON
ingest/export.

In the split basis A is lower bidiagonal with the eigenvalue sequence on
the diagonal and all-ones subdiagonal (basis rescaling freedom); A* is
upper bidiagonal with the dual sequence and superdiagonal phi_1 .. phi_d.
For d >= 2 not every nonzero phi yields a tridiagonal pair: axiom (ii)
holds exactly on the line `leonard_phi`, one point per phi_1.  Every
candidate, on the line or not, is accepted only by the axiom verifier.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import Matrix, rat, rat_str
from .tdsystem import (
    QRacahParams,
    TDSystemInstance,
    make_instance,
    qracah_eigenvalues,
)


# The largest diameter the command line accepts.  verify of a split-form
# Leonard pair takes 0.4, 0.6, 1.1 and 2.9 s at d = 16, 20, 24 and 32, and
# of the slowest input class, the same pair in a dense basis, 1.6, 5.5, 17
# and 144 s (timings in the README).  The library takes any d.
MAX_DIAMETER = 32


class IngestError(ValueError):
    pass


def build_split_form(params: QRacahParams, phi) -> tuple:
    """Assemble the candidate (A, A*) with superdiagonal phi (parsed by
    `rat`); not yet a validated instance."""
    d = params.d
    phi = tuple(rat(x) for x in phi)
    if len(phi) != d:
        raise ValueError(f"expected {d} superdiagonal entries")
    if any(x == 0 for x in phi):
        raise ValueError("superdiagonal entries must be nonzero")
    theta, theta_star = qracah_eigenvalues(params)
    n = d + 1
    a_rows = [[Fraction(0)] * n for _ in range(n)]
    astar_rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a_rows[i][i] = theta[i]
        astar_rows[i][i] = theta_star[i]
        if i < d:
            a_rows[i + 1][i] = Fraction(1)
            astar_rows[i][i + 1] = phi[i]
    return Matrix(a_rows), Matrix(astar_rows)


def validate(candidate: tuple, params: QRacahParams) -> TDSystemInstance:
    """Run the full validation pipeline on a candidate (A, A*) pair."""
    return make_instance(*candidate, params)


def leonard_phi(params: QRacahParams, phi1=Fraction(1)) -> tuple:
    """The superdiagonal of the split-form Leonard pair with first entry phi1.

    For this split form the parameter-array conditions make phi affine in
    one free scalar (Terwilliger, Linear Algebra Appl. 330, 2001; the
    q-Racah form in Linear Algebra Appl. 387, 2004):

        phi_i = c sum_{h<i} (th_h - th_{d-h}) / (th_0 - th_d)
                + (th*_i - th*_0)(th_{i-1} - th_d),

    with c = phi1 - (th*_1 - th*_0)(th_0 - th_d), the first entry of the
    companion sequence.  Nothing is checked here: a point where some phi_i
    or a companion entry vanishes is refused by `validate`.
    """
    d = params.d
    th, ts = qracah_eigenvalues(params)
    c = rat(phi1) - (ts[1] - ts[0]) * (th[0] - th[d])
    phi, partial = [], Fraction(0)
    for i in range(1, d + 1):
        partial += th[i - 1] - th[d - i + 1]
        phi.append(c * partial / (th[0] - th[d]) + (ts[i] - ts[0]) * (th[i - 1] - th[d]))
    return tuple(phi)


def export_instance_dict(sys: TDSystemInstance) -> dict:
    return {
        "d": sys.params.d,
        "q": rat_str(sys.params.q),
        "a": rat_str(sys.params.a),
        "b": rat_str(sys.params.b),
        "A": sys.A.to_strings(),
        "Astar": sys.Astar.to_strings(),
    }


def format_instance(sys: TDSystemInstance) -> str:
    """Canonical byte format: sorted keys, two-space indent, trailing newline."""
    return json.dumps(export_instance_dict(sys), sort_keys=True, indent=2) + "\n"


def export_instance(sys: TDSystemInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_instance(sys))


def parse_instance_dict(data: dict) -> TDSystemInstance:
    # The shapes and MAX_DIAMETER are checked before QRacahParams, which
    # takes O(d) large powers: a file with a huge d is refused at once.
    try:
        d = data["d"]
        if type(d) is not int:  # true and 1.0 would pass the shape check as 1
            raise TypeError(f"d must be an int, not {type(d).__name__}")
        n = d + 1
        a = Matrix.from_strings(data["A"])
        astar = Matrix.from_strings(data["Astar"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed instance file: {exc}") from exc
    if a.shape != (n, n) or astar.shape != (n, n):
        raise IngestError(f"matrix shape {a.shape} does not match diameter {d}")
    if d > MAX_DIAMETER:
        raise IngestError(f"diameter {d} exceeds the limit {MAX_DIAMETER}")
    try:
        params = QRacahParams(d, rat(data["q"]), rat(data["a"]), rat(data["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed instance file: {exc}") from exc
    return validate((a, astar), params)


def ingest(path) -> TDSystemInstance:
    """Parse and validate an instance file; round-trips bit-exactly."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or JSON
        raise IngestError(f"cannot read instance file: {exc}") from exc
    if not isinstance(data, dict):
        raise IngestError("instance file must hold a JSON object")
    return parse_instance_dict(data)


def fixture(d: int) -> TDSystemInstance:
    """The frozen test fixture at diameter d (q = 2, a = 3, b = 5).

    Each fixture is one point of `leonard_phi`'s line, named by its phi_1.
    """
    params = QRacahParams(d, Fraction(2), Fraction(3), Fraction(5))
    phi1 = {1: Fraction(1), 2: Fraction(1), 3: Fraction(21, 2)}[d]
    return validate(build_split_form(params, leonard_phi(params, phi1)), params)
