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
core families through their general-term formulas; the interleaved kinds
(``B**``, ``C**``, ``b*``, ``c*``) use one flat index whose parity selects
the branch:

* ``Bs(n)  = 3B(n)``, ``Cs(n) = 3C(n)``
* ``Bss(2n-1) = B(n-1) + C(n-1)``, ``Bss(2n) = C(n) - B(n)``
* ``Css(2n-1) = 8B(n-1) + C(n-1)``, ``Css(2n) = 8B(n) - C(n)``
* ``bs(2n-1) = 4b(n) - b(n-1) + 1``, ``bs(2n) = 2b(n+1) - b(n)``
* ``cs(2n-1) = c(n+1) - 2c(n)``, ``cs(2n) = c(n+2) - 4c(n+1)``
* ``bss(n) = 3b(n) + 1``, ``css(0) = 3`` and ``css(n) = 3c(n)`` for ``n >= 1``

Membership in a family is decided by a perfect-square criterion on a
quadratic radicand (for example ``x`` is a balancing number iff
``8x^2 + 1`` is a perfect square); the square root is the Lucas-type
witness.  ``balancer`` recovers the gap length ``r`` from the defining
equal-sums equation of a member.
"""

from __future__ import annotations

import threading
from enum import Enum

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

_cache: dict[SequenceKind, list[int]] = {
    kind: list(rec[0]) for kind, rec in _RECURRENCES.items()
}
_cache_lock = threading.Lock()


def _base(kind: SequenceKind, n: int) -> int:
    values = _cache[kind]
    if n >= len(values):
        _, s1, s2, add = _RECURRENCES[kind]
        with _cache_lock:
            while len(values) <= n:
                values.append(s1 * values[-1] + s2 * values[-2] + add)
    return values[n]


def term(kind: SequenceKind, n: int) -> int:
    """The ``n``-th member of a family, exactly (``n >= 0``)."""
    if n < 0:
        raise ValueError("undefined index")
    K = SequenceKind
    if kind in _RECURRENCES:
        return _base(kind, n)
    if kind is K.Bstar:
        return 3 * _base(K.B, n)
    if kind is K.Cstar:
        return 3 * _base(K.C, n)
    if kind is K.bstarstar:
        return 3 * _base(K.b, n) + 1
    if kind is K.cstarstar:
        return 3 if n == 0 else 3 * _base(K.c, n)
    # interleaved kinds: odd index 2m-1, even index 2m
    if n % 2:
        m = (n + 1) // 2
        if kind is K.Bstarstar:
            return _base(K.B, m - 1) + _base(K.C, m - 1)
        if kind is K.Cstarstar:
            return 8 * _base(K.B, m - 1) + _base(K.C, m - 1)
        if kind is K.bstar:
            return 4 * _base(K.b, m) - _base(K.b, m - 1) + 1
        if kind is K.cstar:
            return _base(K.c, m + 1) - 2 * _base(K.c, m)
    else:
        m = n // 2
        if kind is K.Bstarstar:
            return _base(K.C, m) - _base(K.B, m)
        if kind is K.Cstarstar:
            return 8 * _base(K.B, m) - _base(K.C, m)
        if kind is K.bstar:
            return 2 * _base(K.b, m + 1) - _base(K.b, m)
        if kind is K.cstar:
            return _base(K.c, m + 2) - 4 * _base(K.c, m + 1)
    raise ValueError(f"unknown kind {kind!r}")


_ALPHA = QuadInt(1, 1, 2)
_alpha_cache: dict[int, QuadInt] = {}


def _alpha_power(k: int) -> QuadInt:
    x = _alpha_cache.get(k)
    if x is None:
        x = quad_pow(_ALPHA, k)
        _alpha_cache[k] = x
    return x


def term_binet(kind: SequenceKind, n: int) -> int:
    """Closed-form value from exact powers of ``1 + sqrt(2)`` (``n >= 1``)."""
    if n < 1:
        raise ValueError("undefined index")
    K = SequenceKind
    if kind is K.B:
        return _alpha_power(2 * n).q // 2
    if kind is K.b:
        return (_alpha_power(2 * n - 1).q - 1) // 2
    if kind is K.C:
        return _alpha_power(2 * n).p
    if kind is K.c:
        return _alpha_power(2 * n - 1).p
    if kind is K.P:
        return _alpha_power(n).q
    raise ValueError("no closed form")


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
