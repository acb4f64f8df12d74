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

import functools
import heapq
import math
from itertools import compress, cycle

from .quadarith import _SQUARES_11, _SQUARES_63, _SQUARES_64, _SQUARES_65, is_perfect_square
from .quadarith import isqrt, lucas_chain, record, tau_rho_coords


class QuadraticForm(record("QuadraticForm", "a b c")):
    """Integer binary quadratic form with positive non-square discriminant."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        self = tuple.__new__(cls, (a, b, c))
        if a == 0 or (d := self.delta) <= 0 or isqrt(d) ** 2 == d:
            raise ValueError("degenerate discriminant")
        return self

    @property
    def delta(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


class OrbitMatrix(record("OrbitMatrix", "m11 m12 m21 m22")):
    """Unimodular matrix acting on solution rows ``[x y]`` from the right."""

    __slots__ = ()

    def __new__(cls, m11: int, m12: int, m21: int, m22: int):
        self = tuple.__new__(cls, (m11, m12, m21, m22))
        if self.det() != 1:
            raise ValueError("orbit matrix must have determinant 1")
        return self

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
        """``M^n = U(n) M - U(n-1) I``, ``U`` of ``(trace, -1)`` by one Lucas chain.

        On the inverse for ``n < 0``; ``M^2 = -I`` at trace 0.  Only the result's
        determinant is checked.
        """
        base, t, k = self if n >= 0 else self.inverse(), self.m11 + self.m22, abs(n)
        u, u1 = lucas_chain(t, -1, k) if t else ((0, 1, 0, -1)[k % 4], (1, 0, -1, 0)[k % 4])
        v = t * u - u1  # U(n-1)
        return OrbitMatrix(u * base.m11 - v, u * base.m12, u * base.m21, u * base.m22 - v)

    def apply(self, row: tuple[int, int]) -> tuple[int, int]:
        x, y = row
        return (x * self.m11 + y * self.m21, x * self.m12 + y * self.m22)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))


class Solution(record("Solution", "x y rep exponent sign")):
    """One emitted solution with its orbit provenance."""

    __slots__ = ()

    def pair(self) -> tuple[int, int]:
        return (self.x, self.y)


RepresentativeSet = list[tuple[int, int]]


def orbit_matrix(form: QuadraticForm) -> OrbitMatrix:
    """The matrix of the norm-one fundamental unit acting on solution rows.

    With ``tau = u + v*rho`` (``tau_rho_coords``) and ``h = b // 2`` it is
    ``(u - h*v, a*v; -c*v, u + (b - h)*v)``.  As ``b`` has the parity of
    ``delta``, this is the automorph ``((X - b*Y)/2, a*Y; -c*Y, (X + b*Y)/2)``
    of the form for ``tau = (X + Y*sqrt(delta))/2``; its trace is ``X``.
    """
    u, v = tau_rho_coords(form.delta)
    a, b, c = form.a, form.b, form.c
    h = b // 2
    return OrbitMatrix(u - h * v, a * v, -c * v, u + (b - h) * v)


def rep_bound(form: QuadraticForm, m: int):
    """Upper bound on the representative bound ``U`` on ``y``, within 2^-64.

    Every orbit contains a row with ``0 <= y <= U`` where
    ``U^2 = |a*m| * (X - 2) / delta`` for ``a*m > 0`` and
    ``U^2 = |a*m| * (X + 2) / delta`` for ``a*m < 0``, ``X`` being the trace
    ``t + 1/t`` of the norm-one fundamental unit ``t``.  ``U^2`` is exact;
    its square root is rounded up to a multiple of 2^-64, so the bound can
    only err upward: extra ``y`` candidates cost a redundant scan step,
    never a lost orbit.  Returns a ``fractions.Fraction``.
    """
    from fractions import Fraction  # the solver itself reads only the numerator
    matrix = orbit_matrix(form)
    return Fraction(_bound_numerator(form, m, matrix.m11 + matrix.m22), 1 << 64)


def _bound_numerator(form: QuadraticForm, m: int, trace: int) -> int:
    """``rep_bound(form, m)`` times 2^64, an integer, from the unit's ``trace``."""
    am = form.a * m
    if am == 0:
        raise ValueError("degenerate right-hand side")
    num = abs(am) * (trace - 2 if am > 0 else trace + 2)
    return isqrt((num << 128) // form.delta) + 1


def _search_ceiling(form: QuadraticForm, m: int, trace: int) -> int:
    # floor of the over-approximation, plus one step of slack
    return (_bound_numerator(form, m, trace) >> 64) + 1


def _dip(row, matrix, inverse):
    """The least row of ``row``'s orbit under the key ``(|x|, x, y)``, and its exponent.

    Returns ``(least, k)`` with ``least = matrix^k * row``, stepping the row
    in plain integers while the key falls.  With ``w = a*x +
    y*(b + sqrt(delta))/2`` and the unit ``t > 1``, ``x_k = A*t^k + B*t^-k``
    for the nonzero reals ``A = w*(sqrt(delta) - b)/(2*a*sqrt(delta))`` and
    ``B = w'*(sqrt(delta) + b)/(2*a*sqrt(delta))``: ``|x_k|`` strictly falls,
    then strictly rises, with at most one tie at the bottom (broken by ``x``
    or ``y``), so the key strictly falls to one least row from both sides.
    """
    (x, y), k = row, 0
    for (m11, m12, m21, m22), step in ((matrix, 1), (inverse, -1)):
        u, v = x * m11 + y * m21, x * m12 + y * m22
        while (abs(u), u, v) < (abs(x), x, y):
            x, y, k = u, v, k + step
            u, v = x * m11 + y * m21, x * m12 + y * m22
    return (x, y), k


_CEILING_LIMIT = 10**12
# Pollard-Brent gives up on a number it has not split in this many steps
_RHO_STEPS = 1 << 20
# Miller-Rabin on these bases is exact below the least strong pseudoprime to all of them
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # that one; no composite is known to pass Baillie-PSW
# 1023!, whose prime factors are the primes below 2^10; built on first use
_small_factorial = functools.cache(functools.partial(math.factorial, (1 << 10) - 1))


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime: Miller-Rabin on ``_WITNESSES``, Baillie-PSW from ``_PSI_13`` on."""
    if n in _WITNESSES:
        return True
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` of an odd ``n > 0``."""
    a, j = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                j = -j
        if a % 4 == n % 4 == 3:
            j = -j
        a, n = n % a, a
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether the odd ``n > 1`` passes the strong Lucas test with Selfridge's parameters:
    ``D`` the first of 5, -7, 9, -11, ... with ``(D/n) = -1``, ``P = 1``, ``Q = (1 - D) / 4``."""
    if isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D and n share a factor
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q, half = (1 - D) // 4, (n + 1) // 2  # half is 1/2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    d = (n + 1) >> s
    u, v, q = 1, 1, Q % n  # U(k), V(k), Q^k from k = 1, by the bits of d
    for bit in bin(d)[3:]:
        u, v, q = u * v % n, (v * v - 2 * q) % n, q * q % n
        if bit == "1":
            u, v, q = (u + v) * half % n, (D * u + v) * half % n, q * Q % n
    for _ in range(s):  # prime: U(d) or some V(d * 2^r), r < s, is 0 mod n
        if u == 0 or v == 0:
            return True
        v, q = (v * v - 2 * q) % n, q * q % n
    return False


def _rho_factor(n: int) -> int | None:
    """A proper factor of the odd composite ``n`` by Pollard-Brent, or None
    when ``_RHO_STEPS`` steps have not split it."""
    steps = 0
    for c in range(1, 8):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g
    return None


def _factor(n: int) -> dict[int, int] | None:
    """``{prime: exponent}`` of ``n > 0``, or None if Pollard-Brent gives up.

    Trial division tries only the primes below 2^10 that divide ``n``, read
    from ``gcd(n, 1023!)``; a factor left is kept if ``_is_prime`` passes it.
    """
    if n < 1:
        raise ValueError("only n > 0 has a factorization")
    out: dict[int, int] = {}
    g = math.gcd(n, _small_factorial())
    for p in range(2, 1 << 10):
        if g == 1:
            break
        if g % p == 0:  # p is prime: the primes below it are gone from g
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            g = math.gcd(g, n)
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        d = _rho_factor(n)
        if d is None:
            return None
        stack += [d, n // d]
    return out


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of ``a`` modulo the odd prime ``p`` (Tonelli-Shanks), or None."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod_prime_power(d: int, p: int, e: int) -> list[int]:
    """Every ``z`` in ``[0, p^e)`` with ``z^2 = d (mod p^e)``, for ``e >= 1``.

    At ``p = 2`` the roots are lifted one bit at a time by trying both
    digits.  For an odd prime, let ``p^k`` be the largest power of ``p``
    dividing both ``d`` and ``p^e``.  With ``k = e`` the roots are the
    multiples of ``p^ceil(e/2)``; an odd ``k < e`` leaves none; an even one
    gives ``p^(k/2) * u`` for the two roots ``u`` of ``d/p^k`` modulo
    ``p^(e-k)`` (Tonelli-Shanks modulo ``p``, lifted by Newton's step), each
    with its ``p^(k/2)`` lifts modulo ``p^e``.
    """
    if p == 2:
        roots, q = [0], 1
        for _ in range(e):
            roots = [z for r in roots for z in (r, r + q) if (z * z - d) % (2 * q) == 0]
            q *= 2
        return roots
    k = 0
    while k < e and d % p**(k + 1) == 0:
        k += 1
    if k == e:
        return list(range(0, p**e, p**((e + 1) // 2)))
    if k % 2:
        return []
    u = d // p**k
    z = _sqrt_mod_prime(u % p, p)
    if z is None:
        return []
    q = p
    for _ in range(e - k - 1):
        q *= p
        z = (z - (z * z - u) * pow(2 * z, -1, q)) % q
    half = p**(k // 2)
    return [half * (s + t * q) for s in (z, q - z) for t in range(half)]


def _convergent_hits(delta: int, n: int, z: int, top: int):
    """``B`` of each convergent ``G/B`` of ``(z + sqrt(delta))/|n|`` with
    ``G^2 - delta*B^2 = n`` and ``B <= top``.

    ``G_i = |n|*A_i - z*B_i`` for the convergents ``A_i/B_i``; the complete
    quotient ``(P_i + sqrt(delta))/Q_i`` has ``G_(i-1)^2 - delta*B_(i-1)^2 =
    +-Q_i*|n|``, so only an index with ``Q_i = +-1`` can give a hit.
    """
    s = isqrt(delta)
    P, Q = z, abs(n)
    G, G2, B, B2 = Q, -P, 0, 1  # (G, B) at i-1 and i-2, starting from i = 0
    while B <= top:
        if Q in (1, -1) and G * G - delta * B * B == n:
            yield B
        a = (P + s + (Q < 0)) // Q  # floor of the complete quotient, sqrt irrational
        G, G2, B, B2 = a * G + G2, G, a * B + B2, B
        P = a * Q - P
        Q = (delta - P * P) // Q


def _exact_square_hits(delta, shift, ys):
    """The ``y0`` of ``ys`` with ``delta*y0^2 + shift`` square, in big-int arithmetic.

    A radicand passing the residue tables mod 63, 65 and 11 is decided by
    ``math.isqrt``; the class mod 64 is left to the caller.
    """
    for y0 in ys:
        rad = delta * y0 * y0 + shift
        if rad >= 0 and (_SQUARES_63[(r := rad % 45045) % 63] and _SQUARES_65[r % 65]
                         and _SQUARES_11[r % 11] and math.isqrt(rad) ** 2 == rad):
            yield y0


def _square_radicand_hits(delta: int, shift: int, ceiling: int):
    """All ``y0`` in ``[0, ceiling]``, ascending, with ``delta*y0^2 + shift`` square.

    ``delta`` is a non-square of at least 5.  A small window is scanned
    directly, skipping each ``y0`` whose class mod 64 makes the radicand a
    non-square mod 64 (``_exact_square_hits`` decides the rest).  A larger
    window is searched by the Lagrange-Matthews-Mollin reduction: a hit is a
    solution of ``w^2 - delta*y0^2 = shift`` with ``w >= 0``; with ``g = gcd(w, y0)``,
    ``g^2`` divides the shift, and ``(w, y0)/g`` solves the equation for
    ``n = shift/g^2`` with ``w = -z*y0/g`` modulo ``|n|`` for a square root
    ``z`` of ``delta``; the roots modulo each prime power of the shift are
    lifted once per call and joined by the Chinese remainder theorem for
    every ``g``.  As ``delta >= 5``, Legendre's criterion makes
    ``(w, y0)/g`` a convergent of ``(z + sqrt(delta))/|n|``, found by
    ``_convergent_hits`` in ``O(log ceiling)`` steps, however wide the
    window or large the unit.  A prime square dividing both ``delta`` and
    the shift also divides ``w^2``, so it is first divided out of both
    while ``delta`` stays at least 5, which keeps the square roots few.
    Ceilings beyond 10^12 are rejected, as is a shift that Pollard-Brent
    cannot factor.
    """
    if ceiling < 4096:  # the radicand mod 64 depends only on y0 mod 64
        classes = [_SQUARES_64[(delta * r * r + shift) & 63] for r in range(min(ceiling + 1, 64))]
        yield from _exact_square_hits(delta, shift, compress(range(ceiling + 1), cycle(classes)))
        return
    if ceiling > _CEILING_LIMIT:
        raise ValueError(
            "representative search ceiling exceeds 10^12; the fundamental "
            "unit is too large for the scan method"
        )
    factors = _factor(abs(shift))
    if factors is None:
        raise ValueError(
            "4*a*m could not be factored; the representative search needs its prime factors"
        )
    scales = [(1, [])]  # (g, [(p, exponent of p in shift/g^2)])
    for p, e in factors.items():
        while e >= 2 and delta % (p * p) == 0 and delta > 4 * p * p:
            delta, shift, e = delta // (p * p), shift // (p * p), e - 2
        scales = [(g * p**f, parts + [(p, e - 2 * f)])
                  for g, parts in scales for f in range(e // 2 + 1)]
    hits, lifted = set(), {}  # (p, e) -> the square roots of delta modulo p^e
    for g, parts in scales:
        roots, modulus = [0], 1
        for p, e in parts:
            if e:
                q = p**e
                inv = pow(modulus, -1, q)
                if (p, e) not in lifted:
                    lifted[p, e] = _sqrt_mod_prime_power(delta, p, e)
                roots = [r + modulus * ((s - r) * inv % q) for r in roots for s in lifted[p, e]]
                modulus *= q
        for z in roots:
            hits.update(g * y for y in _convergent_hits(delta, shift // (g * g), z, ceiling // g))
    yield from sorted(hits)


def representatives(form: QuadraticForm, m: int) -> RepresentativeSet:
    """One solution row per orbit with ``0 <= y`` below the search ceiling.

    Found rows are grouped by their orbit's least row (``_dip``), keeping the
    lexicographically smallest of each; each re-verifies ``F(x, y) = m``.
    A sign-flipped orbit is another orbit: {[3, 3], [-3, 3]} stay two
    representatives though their signed sweeps coincide (``solutions``
    sweeps such an orbit once).
    """
    matrix = orbit_matrix(form)
    delta, a, b = form.delta, form.a, form.b
    found = set()
    ceiling = _search_ceiling(form, m, matrix.m11 + matrix.m22)
    for y0 in _square_radicand_hits(delta, 4 * a * m, ceiling):
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
    inverse = matrix.inverse()
    kept: dict[tuple[int, int], tuple[int, int]] = {}
    for rep in sorted(found):
        kept.setdefault(_dip(rep, matrix, inverse)[0], rep)
    return list(kept.values())


def solutions(
    form: QuadraticForm,
    m: int,
    *,
    count: int | None = None,
    xbound: int | None = None,
    positive: bool = False,
) -> list[Solution]:
    """Solutions of ``F(x, y) = m`` ordered by ``(|x|, x, y)``, each once.

    Exactly one of ``count`` (number of emitted solutions) or ``xbound``
    (emit everything with ``|x| <= xbound``) bounds the stream; both may be
    given.  ``positive`` restricts emission to ``x > 0, y > 0``, a finite set
    when ``a``, ``b``, ``c`` share a sign: ``count`` may then emit fewer.
    Each orbit is swept once, both ways from its least row (``_dip``); one
    reached from two starts keeps the first (rep, sign), +1 before -1.  The
    sweeps share one heap of plain rows; each row taken from it is re-checked
    against ``F(x, y) = m``, and only an emitted one becomes a ``Solution``.
    """
    if m == 0:
        raise ValueError("degenerate right-hand side")
    if count is None and xbound is None:
        raise ValueError("limit required")
    if (count is not None and count < 1) or (xbound is not None and xbound < 1):
        raise ValueError("limit positive")
    if positive and form.a * form.b > 0 and form.a * form.c > 0:  # |F| >= |a|*x^2 there
        xbound = min(xbound or math.inf, isqrt(abs(m) // abs(form.a)))
    reps = representatives(form, m)
    if not reps:
        return []
    matrix = orbit_matrix(form)
    inverse = matrix.inverse()
    owners = {}  # least row -> (rep index, sign, exponent) of the first to reach it
    for index, rep in enumerate(reps):
        for sign in (1, -1):
            row, k = _dip((sign * rep[0], sign * rep[1]), matrix, inverse)
            owners.setdefault(row, (index, sign, k))
    heap, walkers = [], []  # heap rows (|x|, x, y, walker, exponent)
    for row, (index, sign, k) in owners.items():
        for (x, y), mat, step, e in ((row, matrix, 1, k), (inverse.apply(row), inverse, -1, k - 1)):
            heap.append((abs(x), x, y, len(walkers), e))
            walkers.append((*mat, step, index, sign))
    heapq.heapify(heap)
    out: list[Solution] = []
    a, b, c = form
    while True:  # keys (|x|, x, y) are unique, so walkers are never compared
        _, x, y, w, e = heap[0]
        if xbound is not None and abs(x) > xbound:
            break
        if a * x * x + b * x * y + c * y * y != m:
            raise AssertionError("orbit sweep produced a non-solution")
        m11, m12, m21, m22, step, index, sign = walkers[w]
        if not positive or (x > 0 and y > 0):
            out.append(Solution(x, y, index, e, sign))
            if count is not None and len(out) >= count:
                break
        x, y = x * m11 + y * m21, x * m12 + y * m22
        heapq.heapreplace(heap, (abs(x), x, y, w, e + step))
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
