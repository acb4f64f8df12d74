"""Integer solutions of ``a*x^2 + b*x*y + c*y^2 = m`` for indefinite forms.

The solution set is empty or breaks into finitely many orbits of the
norm-one unit group of the order attached to the form's discriminant.  The
solver finds one representative per orbit below a provable bound on ``y``,
then sweeps each orbit in both directions with the integer orbit matrix,
merging the sweeps into one stream ordered by ``(|x|, x, y)``.

``brute_force_solutions`` is the independent oracle: a plain scan over
``x`` solving the resulting quadratic in ``y``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .quadarith import (
    is_perfect_square,
    isqrt,
    tau_rho_coords,
)


@dataclass(frozen=True)
class QuadraticForm:
    """Integer binary quadratic form with positive non-square discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("degenerate discriminant")
        d = self.delta
        if d <= 0 or isqrt(d) ** 2 == d:
            raise ValueError("degenerate discriminant")

    @property
    def delta(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


@dataclass(frozen=True)
class OrbitMatrix:
    """Unimodular matrix acting on solution rows ``[x y]`` from the right."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self):
        if self.det() != 1:
            raise ValueError("orbit matrix must have determinant 1")

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "OrbitMatrix":
        return OrbitMatrix(self.m22, -self.m12, -self.m21, self.m11)

    def __mul__(self, other: "OrbitMatrix") -> "OrbitMatrix":
        return OrbitMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def power(self, n: int) -> "OrbitMatrix":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = OrbitMatrix(1, 0, 0, 1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def apply(self, row: tuple[int, int]) -> tuple[int, int]:
        x, y = row
        return (x * self.m11 + y * self.m21, x * self.m12 + y * self.m22)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))


@dataclass(frozen=True)
class Solution:
    """One emitted solution with its orbit provenance."""

    x: int
    y: int
    rep: int
    exponent: int
    sign: int

    def pair(self) -> tuple[int, int]:
        return (self.x, self.y)


RepresentativeSet = list[tuple[int, int]]


def _unit_trace(delta: int) -> tuple[int, int]:
    """``(X, Y)`` with ``tau(delta) = (X + Y*sqrt(delta))/2``; ``X`` is its trace."""
    u, v = tau_rho_coords(delta)
    return 2 * u + v * (delta & 1), v


def orbit_matrix(form: QuadraticForm) -> OrbitMatrix:
    """The matrix of the norm-one fundamental unit acting on solution rows.

    It is the automorph ``((X - b*Y)/2, a*Y; -c*Y, (X + b*Y)/2)`` of the
    form; ``X`` and ``b*Y`` have the same parity, so every entry is integral.
    """
    X, Y = _unit_trace(form.delta)
    a, b, c = form.a, form.b, form.c
    return OrbitMatrix((X - b * Y) // 2, a * Y, -c * Y, (X + b * Y) // 2)


def rep_bound(form: QuadraticForm, m: int) -> Fraction:
    """Upper bound on the representative bound ``U`` on ``y``, within 2^-64.

    Every orbit contains a row with ``0 <= y <= U`` where
    ``U^2 = |a*m| * (X - 2) / delta`` for ``a*m > 0`` and
    ``U^2 = |a*m| * (X + 2) / delta`` for ``a*m < 0``, ``X`` being the trace
    ``t + 1/t`` of the norm-one fundamental unit ``t``.  ``U^2`` is exact;
    its square root is rounded up to a multiple of 2^-64, so the bound can
    only err upward: extra ``y`` candidates cost a redundant scan step,
    never a lost orbit.
    """
    am = form.a * m
    if am == 0:
        raise ValueError("degenerate right-hand side")
    delta = form.delta
    X, _ = _unit_trace(delta)
    num = abs(am) * (X - 2 if am > 0 else X + 2)
    return Fraction(isqrt((num << 128) // delta) + 1, 1 << 64)


def _search_ceiling(form: QuadraticForm, m: int) -> int:
    # floor of the over-approximation, plus one step of slack
    return int(rep_bound(form, m)) + 1


def _bounded_orbit(row, matrix, inverse, steps=32):
    """Rows reachable from ``row`` within ``steps`` matrix steps.

    Sign-flipped images are deliberately not included: a row and its
    flipped power image count as distinct representatives, matching the
    anchor sets such as {[3, 3], [-3, 3]} even though their signed sweeps
    coincide (the emission stream deduplicates pairs anyway).
    """
    out = {row}
    for mat in (matrix, inverse):
        cur = row
        for _ in range(steps):
            cur = mat.apply(cur)
            out.add(cur)
    return out


_SIEVE_MODULI = (64, 9, 5, 7, 11, 13)
_SIEVE_M = 2882880  # product of the moduli
_SECOND_SIEVE_PRIMES = (17, 19, 23, 29, 31)
_SECOND_SIEVE_M = 6678671  # product of the primes
_CEILING_LIMIT = 10**12


def _numpy_square_hits(np, delta, shift, y):
    """Exact square hits among int64 candidates ``y`` (values below 2^62)."""
    v = delta * y * y + shift
    s = np.sqrt(np.maximum(v, 0).astype(np.float64)).astype(np.int64)
    hit = np.zeros(len(y), dtype=bool)
    for k in (-2, -1, 0, 1, 2):  # covers the rounding error of the float sqrt
        hit |= (s + k) * (s + k) == v
    hit &= v >= 0
    return y[hit]


def _square_residue_table(np, delta, shift, modulus, factors):
    """Boolean table over ``y mod modulus`` of radicand square-residue-ness."""
    r = np.arange(modulus, dtype=np.int64)
    vr = ((delta % modulus) * r % modulus * r + shift) % modulus
    keep = np.ones(modulus, dtype=bool)
    for mod in factors:
        squares = np.zeros(mod, dtype=bool)
        squares[np.arange(mod, dtype=np.int64) ** 2 % mod] = True
        keep &= squares[vr % mod]
    return keep


def _exact_square_hits(delta, shift, ys):
    """The ``y0`` of ``ys`` with ``delta*y0^2 + shift`` square, in big-int arithmetic."""
    for y0 in ys:
        rad = delta * y0 * y0 + shift
        if rad >= 0 and is_perfect_square(rad)[0]:
            yield y0


def _square_radicand_hits(delta: int, shift: int, ceiling: int):
    """All ``y0`` in ``[0, ceiling]``, ascending, with ``delta*y0^2 + shift`` square.

    Large windows are swept in int64 vector chunks.  Very large ones are
    first sieved down to the residue classes of ``y0`` where the radicand
    is a square residue modulo two smooth moduli (the radicand mod M
    depends only on ``y0`` mod M), discarding over 99.9% of candidates;
    past exact-int64 range every surviving candidate is confirmed in
    big-int arithmetic.
    Ceilings beyond 10^12 (fundamental unit around 10^25) are out of
    practical range for this scan method and are rejected.
    """
    if ceiling < 4096:
        yield from _exact_square_hits(delta, shift, range(ceiling + 1))
        return
    if ceiling > _CEILING_LIMIT:
        raise ValueError(
            "representative search ceiling exceeds 10^12; the fundamental "
            "unit is too large for the scan method"
        )
    import numpy as np

    int64_exact = delta * (ceiling + 1) ** 2 + abs(shift) < 2**62
    if int64_exact and ceiling <= 4 * _SIEVE_M:
        chunk = 1 << 22
        for lo in range(0, ceiling + 1, chunk):
            y = np.arange(lo, min(lo + chunk, ceiling + 1), dtype=np.int64)
            yield from map(int, _numpy_square_hits(np, delta, shift, y))
        return
    residues = np.flatnonzero(
        _square_residue_table(np, delta, shift, _SIEVE_M, _SIEVE_MODULI)
    )
    if not len(residues):
        return
    second = _square_residue_table(
        np, delta, shift, _SECOND_SIEVE_M, _SECOND_SIEVE_PRIMES
    )
    bases = np.arange(0, ceiling + 1, _SIEVE_M, dtype=np.int64)
    batch = max(1, (1 << 22) // len(residues))
    for i in range(0, len(bases), batch):
        y = (bases[i : i + batch, None] + residues[None, :]).ravel()
        y = y[y <= ceiling]
        y = y[second[y % _SECOND_SIEVE_M]]
        if int64_exact:
            yield from map(int, _numpy_square_hits(np, delta, shift, y))
        else:
            yield from _exact_square_hits(delta, shift, map(int, y))


def representatives(form: QuadraticForm, m: int) -> RepresentativeSet:
    """One solution row per orbit with ``0 <= y`` below the search ceiling.

    Rows that are matrix-power images of an earlier row (redundant orbits
    admitted by the search slack) are merged, keeping the lexicographically
    smallest; every returned row re-verifies ``F(x, y) = m``.
    """
    if m == 0:
        raise ValueError("degenerate right-hand side")
    delta, a, b = form.delta, form.a, form.b
    found = set()
    for y0 in _square_radicand_hits(delta, 4 * a * m, _search_ceiling(form, m)):
        ok, root = is_perfect_square(delta * y0 * y0 + 4 * a * m)
        if not ok:
            raise AssertionError("scan produced a non-square radicand")
        for s in {root, -root}:
            num = -b * y0 + s
            if num % (2 * a) == 0:
                x0 = num // (2 * a)
                if form.evaluate(x0, y0) != m:
                    raise AssertionError("representative failed re-verification")
                found.add((x0, y0))
    matrix = orbit_matrix(form)
    inverse = matrix.inverse()
    kept: list[tuple[int, int]] = []
    absorbed: set[tuple[int, int]] = set()
    for rep in sorted(found):
        if rep in absorbed:
            continue
        kept.append(rep)
        absorbed |= _bounded_orbit(rep, matrix, inverse)
    return kept


def _sort_key(sol: Solution):
    return (abs(sol.x), sol.x, sol.y)


def _walk(row, matrix, rep_index, sign, direction):
    exponent = 0 if direction > 0 else -1
    while True:
        yield Solution(row[0], row[1], rep_index, exponent, sign)
        row = matrix.apply(row)
        exponent += direction


def _split_monotone(walker):
    """Pull rows until ``|x|`` has risen twice in a row (past the dip).

    Returns the pulled prefix and the remaining stream, which from that
    point on is strictly increasing in ``|x|`` and therefore sorted.
    """
    prefix = []
    prev = None
    rises = 0
    while rises < 2:
        sol = next(walker)
        ax = abs(sol.x)
        if prev is not None:
            rises = rises + 1 if ax > prev else 0
        prefix.append(sol)
        prev = ax
    return prefix, walker


def solutions(
    form: QuadraticForm,
    m: int,
    *,
    count: int | None = None,
    xbound: int | None = None,
    positive: bool = False,
) -> list[Solution]:
    """Solutions of ``F(x, y) = m`` ordered by ``(|x|, x, y)``, deduplicated.

    Exactly one of ``count`` (number of emitted solutions) or ``xbound``
    (emit everything with ``|x| <= xbound``) bounds the stream; both may be
    given.  ``positive`` restricts emission to ``x > 0, y > 0``.
    """
    if m == 0:
        raise ValueError("degenerate right-hand side")
    if count is None and xbound is None:
        raise ValueError("limit required")
    if (count is not None and count < 1) or (xbound is not None and xbound < 1):
        raise ValueError("limit positive")
    reps = representatives(form, m)
    if not reps:
        return []
    matrix = orbit_matrix(form)
    inverse = matrix.inverse()
    prefix: list[Solution] = []
    tails = []
    for index, rep in enumerate(reps):
        for sign in (1, -1):
            start = (sign * rep[0], sign * rep[1])
            forward = _walk(start, matrix, index, sign, 1)
            backward = _walk(inverse.apply(start), inverse, index, sign, -1)
            for walker in (forward, backward):
                head, tail = _split_monotone(walker)
                prefix.extend(head)
                tails.append(tail)
    merged = heapq.merge(sorted(prefix, key=_sort_key), *tails, key=_sort_key)
    out: list[Solution] = []
    seen: set[tuple[int, int]] = set()
    for sol in merged:
        if xbound is not None and abs(sol.x) > xbound:
            break
        if sol.pair() in seen:
            continue
        seen.add(sol.pair())
        if form.evaluate(sol.x, sol.y) != m:
            raise AssertionError("orbit sweep produced a non-solution")
        if positive and not (sol.x > 0 and sol.y > 0):
            continue
        out.append(sol)
        if count is not None and len(out) >= count:
            break
    return out


def brute_force_solutions(form: QuadraticForm, m: int, bound: int) -> set[tuple[int, int]]:
    """All integer solutions with ``|x| <= bound`` by exhaustive scan."""
    if bound < 1:
        raise ValueError("bound positive")
    a, b, c = form.a, form.b, form.c
    delta = form.delta
    out = set()
    for x in range(-bound, bound + 1):
        rad = delta * x * x + 4 * c * m
        if rad < 0:
            continue
        ok, root = is_perfect_square(rad)
        if not ok:
            continue
        for s in {root, -root}:
            num = -b * x + s
            if num % (2 * c) == 0:
                out.add((x, num // (2 * c)))
    return out
