"""Produce validated instances: split-form builder, superdiagonal search,
and JSON ingest/export.

In the split basis A is lower bidiagonal with the eigenvalue sequence on
the diagonal and all-ones subdiagonal (basis rescaling freedom); A* is
upper bidiagonal with the dual sequence and superdiagonal phi_1 .. phi_d.
For d >= 2 not every nonzero phi yields a tridiagonal pair: candidates
are accepted only by the axiom verifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .linalg import Matrix, rat, rat_str
from .tdsystem import (
    NotTDSystemError,
    QRacahParams,
    TDSystemInstance,
    make_instance,
    qracah_eigenvalues,
)


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class SplitFormSpec:
    params: QRacahParams
    phi: tuple

    def __post_init__(self):
        phi = tuple(rat(x) for x in self.phi)
        if len(phi) != self.params.d:
            raise ValueError(f"expected {self.params.d} superdiagonal entries")
        if any(x == 0 for x in phi):
            raise ValueError("superdiagonal entries must be nonzero")
        object.__setattr__(self, "phi", phi)


def build_split_form(spec: SplitFormSpec) -> tuple:
    """Assemble the candidate (A, A*); not yet a validated instance."""
    d = spec.params.d
    theta, theta_star = qracah_eigenvalues(spec.params)
    n = d + 1
    a_rows = [[Fraction(0)] * n for _ in range(n)]
    astar_rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a_rows[i][i] = theta[i]
        astar_rows[i][i] = theta_star[i]
        if i < d:
            a_rows[i + 1][i] = Fraction(1)
            astar_rows[i][i + 1] = spec.phi[i]
    return Matrix(a_rows), Matrix(astar_rows)


def validate(candidate: tuple, params: QRacahParams) -> TDSystemInstance:
    """Run the full validation pipeline on a candidate (A, A*) pair."""
    return make_instance(*candidate, params)


@dataclass(frozen=True)
class SearchSpace:
    """Deterministic enumeration of candidate superdiagonals.

    Either a grid of small rationals (numerators x denominators per slot)
    or an affine one-parameter family phi(t) = base + t * step with t
    drawn from the same scalar grid.
    """

    numerators: tuple = tuple(range(-4, 5))
    denominators: tuple = (1, 2, 3)
    family_base: tuple | None = None
    family_step: tuple | None = None

    def scalars(self) -> list:
        seen = []
        for num in self.numerators:
            for den in self.denominators:
                value = Fraction(num, den)
                if value not in seen:
                    seen.append(value)
        return seen

    def candidates(self, d: int) -> Iterator[tuple]:
        if self.family_base is not None:
            base = tuple(rat(x) for x in self.family_base)
            step = tuple(rat(x) for x in self.family_step or ())
            if len(base) != d or len(step) != d:
                raise ValueError("family vectors must have length d")
            for t in self.scalars():
                phi = tuple(b + t * s for b, s in zip(base, step))
                if all(x != 0 for x in phi):
                    yield phi
            return

        def rec(prefix: tuple) -> Iterator[tuple]:
            if len(prefix) == d:
                yield prefix
                return
            for s in self.scalars():
                if s != 0:
                    yield from rec(prefix + (s,))

        yield from rec(())


def search_phi(params: QRacahParams, space: SearchSpace | None = None) -> list:
    """All superdiagonal sequences in the space that validate."""
    space = space or SearchSpace()
    found = []
    for phi in space.candidates(params.d):
        try:
            validate(build_split_form(SplitFormSpec(params, phi)), params)
        except (NotTDSystemError, ValueError):
            continue
        found.append(phi)
    if not found:
        raise NotTDSystemError("no instance found in search space")
    return found


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
    Path(path).write_text(format_instance(sys))


def parse_instance_dict(data: dict) -> TDSystemInstance:
    # The shapes are checked against d before QRacahParams, which takes
    # O(d) large powers: a small file with a huge d is refused at once.
    try:
        d = data["d"]
        n = d + 1
        a = Matrix.from_strings(data["A"])
        astar = Matrix.from_strings(data["Astar"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed instance file: {exc}") from exc
    if a.shape != (n, n) or astar.shape != (n, n):
        raise IngestError(f"matrix shape {a.shape} does not match diameter {d}")
    try:
        params = QRacahParams(d, rat(data["q"]), rat(data["a"]), rat(data["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed instance file: {exc}") from exc
    return validate((a, astar), params)


def ingest(path) -> TDSystemInstance:
    """Parse and validate an instance file; round-trips bit-exactly."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read instance file: {exc}") from exc
    if not isinstance(data, dict):
        raise IngestError("instance file must hold a JSON object")
    return parse_instance_dict(data)


# Frozen fixtures.  The d = 1 superdiagonal is free; for d in {2, 3} the
# values were discovered by searching the one-parameter solution family
# of the tridiagonality constraints and confirmed by the axiom verifier.
FIXTURE_PHI = {
    1: (Fraction(1),),
    2: (Fraction(1), Fraction(127)),
    3: (Fraction(21, 2), Fraction(41255, 64), Fraction(672)),
}


def fixture(d: int) -> TDSystemInstance:
    """The frozen test fixture at diameter d (q = 2, a = 3, b = 5)."""
    params = QRacahParams(d, Fraction(2), Fraction(3), Fraction(5))
    spec = SplitFormSpec(params, FIXTURE_PHI[d])
    return validate(build_split_form(spec), params)
