"""The thirteen balancing-type sequence families and their balancers.

Core families (index ``n >= 0``):

* ``B``  balancing numbers: 0, 1, 6, 35, 204, ...  (``B(n+1) = 6B(n) - B(n-1)``)
* ``b``  cobalancing numbers: 0, 0, 2, 14, 84, ...  (same recurrence plus 2)
* ``C``  Lucas-balancing numbers ``sqrt(8B^2 + 1)``: 1, 3, 17, 99, ...
* ``c``  Lucas-cobalancing numbers ``sqrt(8b^2 + 8b + 1)``: -1, 1, 7, 41, ...
* ``P``  Pell numbers: 0, 1, 2, 5, 12, 29, ...

``c(0) = -1`` is the closed-form extension of the sequence below its first
defined value; it is a convention of this library, chosen so the first-type
conversion identities hold from index 1.

Almost variants (first type ``*``, second type ``**``) are generated from the
core families through their general-term formulas (the ``_DERIVED`` table);
the interleaved kinds (``B**``, ``C**``, ``b*``, ``c*``) use one flat index
whose parity selects the branch:

* ``Bs(n)  = 3B(n)``, ``Cs(n) = 3C(n)``
* ``Bss(2n-1) = B(n-1) + C(n-1)``, ``Bss(2n) = C(n) - B(n)``
* ``Css(2n-1) = 8B(n-1) + C(n-1)``, ``Css(2n) = 8B(n) - C(n)``
* ``bs(2n-1) = 4b(n) - b(n-1) + 1``, ``bs(2n) = 2b(n+1) - b(n)``
* ``cs(2n-1) = c(n+1) - 2c(n)``, ``cs(2n) = c(n+2) - 4c(n+1)``
* ``bss(n) = 3b(n) + 1``, ``css(0) = 3`` and ``css(n) = 3c(n)`` for ``n >= 1``

Two independent routes compute the core families, and nothing is cached
between calls:

* ``term`` is the recurrence route.  It reaches index ``n`` in O(log n)
  big-integer steps by index doubling of the recurrence coefficients, so a
  single term costs no more memory than its own value, and it is safe to
  call from several threads.  ``terms`` steps the recurrences from any start
  index in constant memory.
* ``term_binet`` and ``closed_form_terms`` are the closed-form route: exact
  powers of ``1 + sqrt(2)``.

Membership in a family is decided by a perfect-square criterion on a
quadratic radicand (for example ``x`` is a balancing number iff
``8x^2 + 1`` is a perfect square); the square root is the Lucas-type
witness.  ``balancer`` recovers the gap length ``r`` from the defining
equal-sums equation of a member.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import partial
from itertools import count
from types import SimpleNamespace

from .quadarith import QuadInt, is_perfect_square, quad_pow


class SequenceKind(Enum):
    B = "B"
    b = "b"
    C = "C"
    c = "c"
    P = "P"
    Bstar = "Bs"
    Bstarstar = "Bss"
    Cstar = "Cs"
    Cstarstar = "Css"
    bstar = "bs"
    bstarstar = "bss"
    cstar = "cs"
    cstarstar = "css"


class BalancerKind(Enum):
    R = "R"
    r = "r"
    Rstar = "Rs"
    Rstarstar = "Rss"
    rstar = "rs"
    rstarstar = "rss"


KIND_BY_NAME = {kind.value: kind for kind in SequenceKind}

# initial values and coefficients of v(n+1) = s1*v(n) + s2*v(n-1) + add
_RECURRENCES = {
    SequenceKind.B: ((0, 1), 6, -1, 0),
    SequenceKind.b: ((0, 0), 6, -1, 2),
    SequenceKind.C: ((1, 3), 6, -1, 0),
    SequenceKind.c: ((-1, 1), 6, -1, 0),
    SequenceKind.P: ((0, 1), 2, 1, 0),
}

# the core kinds, each with a recurrence and a closed form
CORE_KINDS = tuple(_RECURRENCES)


def _pair(kind: SequenceKind, n: int) -> tuple[int, int]:
    """``(v(n), v(n+1))`` of a core family in O(log n) steps (``n >= 0``).

    A Lucas chain: with ``P = s1``, ``Q = -s2`` and ``D = P^2 - 4Q``, the
    Lucas sequences ``U`` (``U(0) = 0, U(1) = 1``) and ``V`` (``V(0) = 2,
    V(1) = P``) of the recurrence double as ``U(2i) = U(i)V(i)``,
    ``V(2i) = V(i)^2 - 2Q^i`` and step as ``U(i+1) = (P U(i) + V(i)) / 2``,
    ``V(i+1) = (D U(i) + P V(i)) / 2``: two multiplications per bit of ``n``.
    Any solution ``z`` of the recurrence is ``z(i) = (z1 - s1*z0) U(i) + z0
    U(i+1)``.  An affine row (``add != 0``, the cobalancing numbers) is first
    shifted to the homogeneous solution ``z = k*v - add`` with
    ``k = 1 - s1 - s2`` (``z = -(4b + 2)`` for ``b``).
    """
    (v0, v1), s1, s2, add = _RECURRENCES[kind]
    q, d = -s2, s1 * s1 + 4 * s2
    u, v, qi = 0, 2, 1  # U(i), V(i), Q^i at i = 0
    for bit in bin(n)[2:]:
        u, v, qi = u * v, v * v - 2 * qi, qi * qi
        if bit == "1":
            u, v, qi = (s1 * u + v) // 2, (d * u + s1 * v) // 2, qi * q
    u1 = (s1 * u + v) // 2
    k = 1 - s1 - s2 if add else 1
    z0, z1 = k * v0 - add, k * v1 - add
    return ((z1 - s1 * z0) * u + z0 * u1 + add) // k, (z1 * u1 + s2 * z0 * u + add) // k


def _core_term(kind: SequenceKind, n: int) -> int:
    return _pair(kind, n)[0]


def _stepped(kind: SequenceKind, n: int):
    """``v(n), v(n+1), ...`` of a core family: seeded by index doubling, then stepped."""
    _, s1, s2, add = _RECURRENCES[kind]
    a, b = _pair(kind, n)
    while True:
        yield a
        a, b = b, s1 * b + s2 * a + add


def _parity(odd, even):
    """An interleaved general term: ``odd(v, m)`` at index ``2m - 1``, ``even(v, m)`` at ``2m``."""
    def general(v, n):
        if n < 0:
            raise ValueError("undefined index")
        return odd(v, (n + 1) // 2) if n % 2 else even(v, n // 2)
    return general


# kind -> general term over the core accessors v.B, v.b, v.C, v.c, v.P; the
# recurrence route (term, terms) and the verifier's columns both read it
_DERIVED = {
    SequenceKind.Bstar: lambda v, n: 3 * v.B(n),
    SequenceKind.Cstar: lambda v, n: 3 * v.C(n),
    SequenceKind.bstarstar: lambda v, n: 3 * v.b(n) + 1,
    SequenceKind.cstarstar: lambda v, n: 3 * v.c(n) if n else 3,
    SequenceKind.Bstarstar: _parity(
        lambda v, m: v.B(m - 1) + v.C(m - 1), lambda v, m: v.C(m) - v.B(m)),
    SequenceKind.Cstarstar: _parity(
        lambda v, m: 8 * v.B(m - 1) + v.C(m - 1), lambda v, m: 8 * v.B(m) - v.C(m)),
    SequenceKind.bstar: _parity(
        lambda v, m: 4 * v.b(m) - v.b(m - 1) + 1, lambda v, m: 2 * v.b(m + 1) - v.b(m)),
    SequenceKind.cstar: _parity(
        lambda v, m: v.c(m + 1) - 2 * v.c(m), lambda v, m: v.c(m + 2) - 4 * v.c(m + 1)),
}

# the core accessors of term: each value by index doubling, nothing kept
_DOUBLING = SimpleNamespace(**{kind.value: partial(_core_term, kind) for kind in CORE_KINDS})


def _general_term(kind: SequenceKind):
    general = _DERIVED.get(kind)
    if general is None:
        raise ValueError(f"unknown kind {kind!r}")
    return general


def term(kind: SequenceKind, n: int) -> int:
    """The ``n``-th member of a family, exactly (``n >= 0``), in O(log n) steps."""
    if n < 0:
        raise ValueError("undefined index")
    if kind in _RECURRENCES:
        return _core_term(kind, n)
    return _general_term(kind)(_DOUBLING, n)


class _Window:
    """One core family near a rising index: stepped forward, the last few kept.

    An index below the kept values (only the first calls of a general term
    can ask for one) is computed on its own by index doubling.
    """

    def __init__(self, kind: SequenceKind):
        self.kind = kind
        self.steps = None
        self.recent: deque[int] = deque(maxlen=4)
        self.top = 0  # one past the index of the newest kept value

    def __call__(self, n: int) -> int:
        if self.steps is None:
            self.steps, self.top = _stepped(self.kind, n), n
        while self.top <= n:
            self.recent.append(next(self.steps))
            self.top += 1
        back = self.top - n
        if back > len(self.recent):
            return _core_term(self.kind, n)
        return self.recent[-back]


def terms(kind: SequenceKind, start: int = 0):
    """``term(kind, n)`` for ``n = start, start + 1, ...``, in constant memory.

    Seeded in O(log start) steps, then one recurrence step per index.
    """
    if start < 0:
        raise ValueError("undefined index")
    if kind in _RECURRENCES:
        return _stepped(kind, start)
    window = SimpleNamespace(**{k.value: _Window(k) for k in CORE_KINDS})
    return map(partial(_general_term(kind), window), count(start))


_ALPHA = QuadInt(1, 1, 2)

# core kind -> (stride, offset, read): v(n) = read(p, q) where
# p + q*sqrt(2) = (1 + sqrt(2))**(stride*n + offset)
_CLOSED_FORMS = {
    SequenceKind.B: (2, 0, lambda p, q: q // 2),
    SequenceKind.b: (2, -1, lambda p, q: (q - 1) // 2),
    SequenceKind.C: (2, 0, lambda p, q: p),
    SequenceKind.c: (2, -1, lambda p, q: p),
    SequenceKind.P: (1, 0, lambda p, q: q),
}


def term_binet(kind: SequenceKind, n: int) -> int:
    """Closed-form value from exact powers of ``1 + sqrt(2)`` (``n >= 1``)."""
    if n < 1:
        raise ValueError("undefined index")
    if kind not in _CLOSED_FORMS:
        raise ValueError("no closed form")
    stride, offset, read = _CLOSED_FORMS[kind]
    power = quad_pow(_ALPHA, stride * n + offset)
    return read(power.p, power.q)


def closed_form_terms(kind: SequenceKind):
    """``v(0), v(1), ...`` of a core family from successive powers of ``1 + sqrt(2)``.

    Index 0 of ``b`` and ``c`` reads ``(1 + sqrt(2))**-1 = -1 + sqrt(2)``.
    """
    if kind not in _CLOSED_FORMS:
        raise ValueError("no closed form")
    stride, offset, read = _CLOSED_FORMS[kind]
    p, q = (1, 0) if offset == 0 else (-1, 1)
    step = quad_pow(_ALPHA, stride)
    while True:
        yield read(p, q)
        p, q = step.p * p + 2 * step.q * q, step.q * p + step.p * q


# member kind -> ((s, t) of the radicand 8x^2 + 8sx + t, witness, balancer)
_MEMBERSHIP = {
    SequenceKind.B: ((0, 1), SequenceKind.C, BalancerKind.R),
    SequenceKind.b: ((1, 1), SequenceKind.c, BalancerKind.r),
    SequenceKind.Bstar: ((0, 9), SequenceKind.Cstar, BalancerKind.Rstar),
    SequenceKind.Bstarstar: ((0, -7), SequenceKind.Cstarstar, BalancerKind.Rstarstar),
    SequenceKind.bstar: ((1, 9), SequenceKind.cstar, BalancerKind.rstar),
    SequenceKind.bstarstar: ((1, -7), SequenceKind.cstarstar, BalancerKind.rstarstar),
}

WITNESS_KIND = {kind: witness for kind, (_, witness, _) in _MEMBERSHIP.items()}
MEMBERSHIP_KINDS = tuple(_MEMBERSHIP)
_MEMBER_OF_BALANCER = {bal: kind for kind, (_, _, bal) in _MEMBERSHIP.items()}


def is_member(kind: SequenceKind, x: int) -> tuple[bool, int | None]:
    """Square-criterion membership test with the witness root."""
    if x < 0:
        raise ValueError("negative value")
    row = _MEMBERSHIP.get(kind)
    if row is None:
        raise ValueError("no membership criterion")
    s, t = row[0]
    rad = 8 * x * x + 8 * s * x + t
    if rad < 0:
        return False, None
    return is_perfect_square(rad)


def balancer(kind: BalancerKind, n: int) -> int:
    """The gap length ``r`` for a member ``n``: ``(-2n - 1 + root) / 2``."""
    ok, root = is_member(_MEMBER_OF_BALANCER[kind], n)
    if not ok:
        raise ValueError("not a member")
    num = -2 * n - 1 + root
    if num % 2:
        raise ValueError("parity violation")
    return num // 2


_BALANCING_FAMILIES = ("balancing", "almost_balancing")
_COBALANCING_FAMILIES = ("cobalancing", "almost_cobalancing")


def definitional_check(family: str, n: int, r: int) -> int:
    """Signed defect of the defining equal-sums equation.

    Returns ``sum(n+1 .. n+r) - sum(1 .. n-1)`` for the balancing families
    and ``sum(n+1 .. n+r) - sum(1 .. n)`` for the cobalancing ones, via
    closed triangular sums.  0 means exact balance; +1 and -1 are the
    first- and second-type almost defects.
    """
    upper = r * n + r * (r + 1) // 2
    if family in _BALANCING_FAMILIES:
        return upper - n * (n - 1) // 2
    if family in _COBALANCING_FAMILIES:
        return upper - n * (n + 1) // 2
    raise ValueError("unknown family")
