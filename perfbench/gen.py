"""Seeded benchmark inputs, built from the theory with the standard library only.

Nothing here imports tdlab, so a change to the library can neither change
nor break the inputs.  Every valid input is checked here, independently of
the program under test, against the tridiagonal-pair axioms; every invalid
candidate pair is checked to fail the axiom its class names.

Conventions follow arXiv:1307.7410 and tdlab's canonical instance format:
theta_i = a q^(d-2i) + a^-1 q^(2i-d), dually with b; in the split basis A is
block lower bidiagonal and A* block upper bidiagonal.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

# --------------------------------------------------------------------------
# Exact linear algebra on lists of Fraction rows.


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), F(0)) for col in bt] for row in a]


def is_zero(m):
    return all(x == 0 for row in m for x in row)


def rref(rows, ncols):
    """Reduced row echelon form of a copy of `rows`; returns (echelon, pivots)."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def solve_affine(rows, rhs, nvars):
    """All solutions of rows . x = rhs: (particular, kernel basis), or None."""
    ech, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], nvars + 1)
    if nvars in pivots:
        return None
    particular = [F(0)] * nvars
    for r, p in enumerate(pivots):
        particular[p] = ech[r][nvars]
    kernel = []
    for f in (j for j in range(nvars) if j not in pivots):
        v = [F(0)] * nvars
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -ech[r][f]
        kernel.append(v)
    return particular, kernel


def idempotents(m, eigenvalues):
    """Primitive idempotents E_i = prod_{j != i} (m - theta_j) / (theta_i - theta_j)."""
    n = len(m)
    out = []
    for i, ti in enumerate(eigenvalues):
        e = identity(n)
        for j, tj in enumerate(eigenvalues):
            if j != i:
                shifted = [[m[r][c] - (tj if r == c else 0) for c in range(n)] for r in range(n)]
                e = [[x / (ti - tj) for x in row] for row in matmul(e, shifted)]
        out.append(e)
    return out


def tridiagonal_violation(op, idem):
    """First (i, j) with |i - j| > 1 and E_j op E_i != 0, or None."""
    for i, ei in enumerate(idem):
        opei = matmul(op, ei)
        for j, ej in enumerate(idem):
            if abs(i - j) > 1 and not is_zero(matmul(ej, opei)):
                return i, j
    return None


def diagonalizable(m, eigenvalues, idem):
    """The idempotents sum to I and reproduce m, i.e. m = sum theta_i E_i."""
    n = len(m)
    total = [[sum(e[r][c] for e in idem) for c in range(n)] for r in range(n)]
    recon = [[sum(t * e[r][c] for t, e in zip(eigenvalues, idem)) for c in range(n)] for r in range(n)]
    return total == identity(n) and recon == m


def algebra_dim(a, astar):
    """Dimension of the algebra generated by a and astar (words, reduced incrementally)."""
    n = len(a)
    basis = {}  # pivot column -> reduced row, kept fully reduced

    def add(m):
        v = [x for row in m for x in row]
        for p, row in basis.items():
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        p = next((k for k, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv for x in v]
        for q, row in basis.items():
            if row[p]:
                f = row[p]
                basis[q] = [x - f * y for x, y in zip(row, v)]
        basis[p] = v
        return True

    frontier = [identity(n)]
    add(frontier[0])
    while frontier and len(basis) < n * n:
        grown = []
        for w in frontier:
            for g in (a, astar):
                m = matmul(g, w)
                if add(m):
                    grown.append(m)
        frontier = grown
    return len(basis)


# --------------------------------------------------------------------------
# q-Racah data and the L(n) models.


def eigenvalues(d, q, x):
    return [x * q ** (d - 2 * i) + q ** (2 * i - d) / x for i in range(d + 1)]


def params_ok(d, q, a, b):
    """The q-Racah non-degeneracy conditions: no root of unity, no collisions."""
    if d < 1 or 0 in (q, a, b):
        return False
    if any(q ** (2 * i) == 1 for i in range(1, max(d, 2) + 1)):
        return False
    forbidden = {q ** (2 * d - 2 - 2 * k) for k in range(2 * d - 1)}
    return a * a not in forbidden and b * b not in forbidden


def q_int(n, q):
    return (q**n - q**-n) / (q - 1 / q)


def shape_basis(d, multiplicities):
    """Levels of the split basis for the module (+)_i L(d - 2i)^m_i.

    Returns the level of each basis vector, for each basis vector the index
    of the vector one level up in the same L(n) copy (or None), and the
    (i, copy, level) label of each basis vector.
    """
    copies = []  # (i, copy) for each L(d - 2i) summand
    for i, m in enumerate(multiplicities):
        copies += [(i, c) for c in range(m)]
    index = {}
    order = []
    for level in range(d + 1):
        for i, c in copies:
            if i <= level <= d - i:
                index[(i, c, level)] = len(order)
                order.append((i, c, level))
    levels = [lev for _, _, lev in order]
    up = [index.get((i, c, lev + 1)) for i, c, lev in order]
    return levels, up, order


def shape_pair_parts(d, multiplicities, q, a, b):
    """A = aK + a^-1 K^-1 + R from the L(n) models, and the A* diagonal."""
    levels, up, order = shape_basis(d, multiplicities)
    n = len(levels)
    theta = eigenvalues(d, q, a)
    theta_star = eigenvalues(d, q, b)
    A = [[F(0)] * n for _ in range(n)]
    for k, (i, _, lev) in enumerate(order):
        A[k][k] = theta[lev]  # a K + a^-1 K^-1 on level lev of L(d - 2i)
        if up[k] is not None:
            j = lev - i  # position inside L(d - 2i): f v_j = [j+1]_q v_(j+1)
            A[up[k]][k] = (q - 1 / q) * q_int(j + 1, q)
    dstar = [theta_star[lev] for lev in levels]
    return levels, A, dstar, theta, theta_star


def superdiagonal_positions(levels):
    """Entries of the blocks that map level i+1 to level i."""
    n = len(levels)
    return [(r, c) for r in range(n) for c in range(n) if levels[c] == levels[r] + 1]


def axiom_ii_solutions(A, dstar, theta, positions):
    """Affine solution set of E_j A* E_i = 0 (|i - j| > 1) in the unknown entries."""
    n = len(A)
    E = idempotents(A, theta)
    rows, rhs = [], []
    for i, ei in enumerate(E):
        for j, ej in enumerate(E):
            if abs(i - j) <= 1:
                continue
            base = [[ej[r][c] * dstar[c] for c in range(n)] for r in range(n)]
            base = matmul(base, ei)
            for r in range(n):
                for c in range(n):
                    coeff = [ej[r][p] * ei[s][c] for p, s in positions]
                    if any(coeff) or base[r][c]:
                        rows.append(coeff)
                        rhs.append(-base[r][c])
    return solve_affine(rows, rhs, len(positions))


def assemble_astar(dstar, positions, values):
    n = len(dstar)
    m = [[F(0)] * n for _ in range(n)]
    for k in range(n):
        m[k][k] = dstar[k]
    for (r, c), v in zip(positions, values):
        m[r][c] = v
    return m


def point(particular, kernel, coords):
    return [p + sum((t * v[k] for t, v in zip(coords, kernel)), F(0)) for k, p in enumerate(particular)]


def check_pair(A, astar, theta, theta_star, leonard):
    """Which axiom (i) to (iv) fails first, computed afresh; None when all hold."""
    E = idempotents(A, theta)
    Es = idempotents(astar, theta_star)
    if not (diagonalizable(A, theta, E) and diagonalizable(astar, theta_star, Es)):
        return "i"
    if tridiagonal_violation(astar, E) is not None:
        return "ii"
    if tridiagonal_violation(A, Es) is not None:
        return "iii"
    if leonard:
        # With one-dimensional eigenspaces, (iv) holds iff A moves every E*_i V
        # into both neighbours: an A*-invariant subspace is a sum of E*_i V.
        for i in range(len(Es) - 1):
            if is_zero(matmul(matmul(Es[i + 1], A), Es[i])) or is_zero(
                matmul(matmul(Es[i], A), Es[i + 1])
            ):
                return "iv"
        return None
    n = len(A)
    return None if algebra_dim(A, astar) == n * n else "iv"


# --------------------------------------------------------------------------
# Instances.


def canonical_text(d, q, a, b, A, astar):
    """tdlab's canonical instance bytes: sorted keys, two-space indent, newline."""
    payload = {
        "d": d,
        "q": str(q),
        "a": str(a),
        "b": str(b),
        "A": [[str(x) for x in row] for row in A],
        "Astar": [[str(x) for x in row] for row in astar],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def leonard_phi_line(d, q, a, b):
    """The split-form Leonard pairs at (d, q, a, b), as tdlab's generate builds them.

    A is lower bidiagonal with subdiagonal 1 and A* upper bidiagonal with
    superdiagonal phi.  Axiom (ii) is linear in phi.  Returns
    (A, theta, theta_star, positions of phi, particular phi, kernel basis).
    """
    theta = eigenvalues(d, q, a)
    theta_star = eigenvalues(d, q, b)
    n = d + 1
    A = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = theta[i]
        if i < d:
            A[i + 1][i] = F(1)
    positions = [(k, k + 1) for k in range(d)]
    solved = axiom_ii_solutions(A, theta_star, theta, positions)
    if solved is None:
        raise ValueError("no split-form Leonard pair at these parameters")
    return (A, theta, theta_star, positions) + solved


# Small q-Racah parameters with entries of similar size, so that per-instance
# cost varies little from seed to seed.
PARAMS = [(F(2), F(a), F(b)) for a in (3, 5, 7) for b in (3, 5, 7)]


def draw_coords(rng, count):
    return [F(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice((1, -1)) for _ in range(count)]


def instance(d, q, a, b, A, astar, shape, **extra):
    return {"d": d, "q": q, "a": a, "b": b, "A": A, "Astar": astar, "shape": shape,
            "text": canonical_text(d, q, a, b, A, astar), **extra}


def leonard_instance(rng, d, params=None):
    """A seeded point with no zero entry on the Leonard phi line, fully checked.

    `params` is a (q, a, b) of PARAMS; by default the seed draws it.
    """
    q, a, b = params or rng.choice(PARAMS)
    if not params_ok(d, q, a, b):
        raise ValueError("bad parameter table")
    A, theta, theta_star, positions, particular, kernel = leonard_phi_line(d, q, a, b)
    while True:
        phi = point(particular, kernel, draw_coords(rng, len(kernel)))
        if any(x == 0 for x in phi):
            continue
        astar = assemble_astar(theta_star, positions, phi)
        if check_pair(A, astar, theta, theta_star, leonard=True) is None:
            return instance(d, q, a, b, A, astar, [1] * (d + 1), phi=phi)


def shape_instance(rng, d, multiplicities, want_failure=None, params=None):
    """A seeded point of the axiom-(ii) solution space for (+)_i L(d - 2i)^m_i.

    With want_failure None, the point must satisfy every axiom; otherwise
    the first failing axiom must be the one named.  `params` is as for
    leonard_instance.
    """
    q, a, b = params or rng.choice(PARAMS)
    if not params_ok(d, q, a, b):
        raise ValueError("bad parameter table")
    levels, A, dstar, theta, theta_star = shape_pair_parts(d, multiplicities, q, a, b)
    positions = superdiagonal_positions(levels)
    solved = axiom_ii_solutions(A, dstar, theta, positions)
    if solved is None:
        raise ValueError("axiom (ii) has no solution for this shape")
    for _ in range(200):
        astar = assemble_astar(dstar, positions, point(*solved, draw_coords(rng, len(solved[1]))))
        if check_pair(A, astar, theta, theta_star, leonard=False) == want_failure:
            return instance(d, q, a, b, A, astar, [levels.count(i) for i in range(d + 1)])
    raise ValueError(f"no point of shape {multiplicities} fails at {want_failure}")


def off_line_instance(rng, d):
    """A Leonard pair with one phi_k moved off the solution line: fails (ii) early."""
    inst = leonard_instance(rng, d)
    theta = eigenvalues(d, inst["q"], inst["a"])
    theta_star = eigenvalues(d, inst["q"], inst["b"])
    astar = [list(row) for row in inst["Astar"]]
    while True:
        k = rng.randrange(d)
        astar[k][k + 1] += F(rng.randint(1, 5))
        if check_pair(inst["A"], astar, theta, theta_star, leonard=True) == "ii":
            return instance(d, inst["q"], inst["a"], inst["b"], inst["A"], astar, None)


# --------------------------------------------------------------------------
# Invalid inputs for the reject workload.  Each must be refused with exit
# code 2 (invalid input) and nothing on stdout.


def malformed_text(rng, valid_text):
    """A broken instance file: the parser, not the verifier, must refuse it."""
    data = json.loads(valid_text)
    d = data["d"]
    variant = rng.randrange(6)
    if variant == 0:
        return valid_text[: len(valid_text) // 2]  # truncated JSON
    if variant == 1:
        return json.dumps([data])  # not an object
    if variant == 2:
        del data["Astar"]  # missing key
    elif variant == 3:
        data["A"][-1] = data["A"][-1][:-1]  # ragged rows
    elif variant == 4:
        data["Astar"][0][0] = rng.choice(["1/0", "x", "1.5e"])  # not a rational
    else:
        data["A"] = [row[:d] for row in data["A"][:d]]  # d x d, not (d+1) x (d+1)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def degenerate_text(rng, inst):
    """Valid matrices under parameters that violate the q-Racah conditions."""
    d, q, a, b = inst["d"], inst["q"], inst["a"], inst["b"]
    variant = rng.randrange(4)
    if variant == 0:
        q = F(1)  # q^4 = 1
    elif variant == 1:
        q = F(-1)  # q^4 = 1
    elif variant == 2:
        a = q ** (d - 1)  # a^2 = q^(2d-2): eigenvalues collide
    else:
        b = F(0)
    if params_ok(d, q, a, b):
        raise ValueError("degenerate parameters expected")
    return canonical_text(d, q, a, b, inst["A"], inst["Astar"])


def oversized_text(rng):
    """d in the thousands with 2 x 2 matrices: refusable from the shape alone."""
    q, a, b = rng.choice(PARAMS)
    d = rng.randrange(5100, 5200)
    A = [[F(1), F(0)], [F(1), F(2)]]
    astar = [[F(3), F(1)], [F(0), F(4)]]
    return canonical_text(d, q, a, b, A, astar)
