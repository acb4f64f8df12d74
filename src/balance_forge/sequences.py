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

* ``term`` and ``terms`` are the recurrence route: a Lucas chain (O(log n)
  big-integer steps) of each recurrence read, and each core family a fixed
  row of it.  ``terms`` then steps in constant memory; ``term`` runs one
  chain to half the index and reads its value, by its general term, from
  one half-size product.  A single term costs no more memory than its own
  value, and it is safe to call from several threads.
* ``term_binet`` and ``closed_form_terms`` are the closed-form route: exact
  powers of ``1 + sqrt(2)``.

Membership in a family is decided by a perfect-square criterion
(``x`` is a balancing number iff ``8x^2 + 1`` is a square); its root is the
Lucas-type witness.  Above ``DEEP_ROOT_BITS`` bits of root, a non-square
modulo a prime from 17 to 97 is rejected exactly, and a member is proved by
a row ``root + (2x + s)*sqrt(2)`` of the radicand's norm, stepped from a
norm-1 power of ``1 + sqrt(2)`` times a base of the family, which the code
checks itself; otherwise ``math.isqrt`` decides.
``balancer`` recovers the gap length ``r`` from the defining equal-sums
equation of a member.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import partial
from itertools import count
from math import prod
from types import SimpleNamespace

from .quadarith import SQUARE_RESIDUE_MODULUS, QuadInt, is_perfect_square, quad_pow, square_residue
from .quadarith import lucas_chain


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


def _affine(kind: SequenceKind):
    """``s1, s2, add, k, z0, z1``: ``v = (z + add) / k`` of ``z(i) = (z1 - s1 z0) U(i) + z0 U(i+1)``."""
    (v0, v1), s1, s2, add = _RECURRENCES[kind]
    k = 1 - s1 - s2 if add else 1
    return s1, s2, add, k, k * v0 - add, k * v1 - add


def _stepped(kind: SequenceKind, n: int, chains: dict, one):
    """``v(n), v(n+1), ...`` of a core family, of the type of ``one``: read from
    one chain, then stepped.

    ``chains`` keeps the chains run, by recurrence and index, for a stream's
    families.  With ``s2 = -1`` or ``1`` a step is one product by ``s1`` and
    one subtraction or addition, plus ``add`` if not 0; other rows step as
    they stand.  The verifier compares each entry with ``closed_form_terms``
    as its columns fill.
    """
    s1, s2, add, k, z0, z1 = _affine(kind)
    u, u1 = chains.get((s1, s2, n)) or chains.setdefault((s1, s2, n), lucas_chain(s1, s2, n, one))
    a, b = ((z1 - s1 * z0) * u + z0 * u1 + add) // k, (z1 * u1 + s2 * z0 * u + add) // k
    if s2 == -1 and not add:  # B, C and c
        while True:
            yield a
            a, b = b, s1 * b - a
    if s2 == -1:  # b
        while True:
            yield a
            a, b = b, s1 * b - a + add
    if s2 == 1 and not add:  # P
        while True:
            yield a
            a, b = b, s1 * b + a
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
# recurrence route (term, terms) and the verifier's columns both read it.
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


class _Form(tuple):
    """``(A x^2 + B xy + C y^2 + c) / d`` as ``(A, B, C, c, d)``, for a general term to run on."""

    def __add__(self, other):
        *f, d = self
        *g, e = other if type(other) is _Form else (0, 0, 0, other, 1)
        return _Form((*(a * e + b * d for a, b in zip(f, g)), d * e))

    __radd__ = __add__
    __mul__ = __rmul__ = lambda self, k: _Form((*(a * k for a in self[:4]), self[4]))
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -other
    __rsub__ = lambda self, other: -self + other


def term(kind: SequenceKind, n: int) -> int:
    """The ``n``-th member of a family (``n >= 0``), in O(log n) steps: a ``_Form`` over one
    chain ``x, y = U(h), U(h+1)``, ``h`` half the first core index read, valued by one product."""
    return _term(kind, n, 1)


def _term(kind: SequenceKind, n: int, one):
    """``term(kind, n)`` of the type of ``one`` (an ``int`` 3 for ``css(0)``)."""
    if n < 0:
        raise ValueError("undefined index")
    if kind not in _RECURRENCES and kind not in _DERIVED:
        raise ValueError(f"unknown kind {kind!r}")
    chain = []  # s1, s2, h, x, y: every general term reads one recurrence

    def read(core, i):
        s1, s2, add, k, z0, z1 = _affine(core)
        if not chain:
            chain.extend((s1, s2, i // 2, *lucas_chain(s1, s2, i // 2, one)))
        u, u1 = (-s1, 2, 0), (s2, 0, 1)  # U(2h) = 2xy - s1 x^2, U(2h+1) = y^2 + s2 x^2
        for _ in range(i - 2 * chain[2]):
            u, u1 = u1, tuple(s1 * b + s2 * a for a, b in zip(u, u1))
        for _ in range(2 * chain[2] - i):  # back, as 1/s2 = s2
            u, u1 = tuple(s2 * (b - s1 * a) for a, b in zip(u, u1)), u
        return _Form((*((z1 - s1 * z0) * a + z0 * b for a, b in zip(u, u1)), add, k))

    value = read(kind, n) if kind in _RECURRENCES else _DERIVED[kind](
        SimpleNamespace(**{k.value: partial(read, k) for k in CORE_KINDS}), n)
    if type(value) is int:  # css(0), which reads no core value
        return value
    (A, B, C, c, d), (s1, s2, h, x, y) = value, chain  # Cassini: y^2 = s1 xy + s2 x^2 + (-s2)^h
    q, r = divmod(x * ((A + C * s2) * x + (B + C * s1) * y) + C * (-s2) ** h + c, d)
    if r:
        raise AssertionError(f"{kind.value}({n}) is not an integer")
    return q


class _Window:
    """One core family near a rising index: stepped forward, the last two kept.

    Seeded one index below its first read (at 0 for a first read at 0): a
    general term reads each family at one index or at two adjacent ones, in
    either order, and the next index reads none lower, so every read is one
    of the two newest values.
    """

    def __init__(self, kind: SequenceKind, chains: dict, one):
        self.kind, self.chains, self.one, self.steps = kind, chains, one, None

    def __call__(self, n: int) -> int:
        if self.steps is None:  # top: one past the index of the newest kept value
            self.top, self.recent = max(n - 1, 0), deque(maxlen=2)
            self.steps = _stepped(self.kind, self.top, self.chains, self.one)
        while self.top <= n:
            self.recent.append(next(self.steps))
            self.top += 1
        return self.recent[n - self.top]


def terms(kind: SequenceKind, start: int = 0):
    """``term(kind, n)`` for ``n = start, start + 1, ...``, in constant memory.

    Seeded in O(log start) steps, then one recurrence step per index.
    """
    return _terms(kind, start, 1)


def _terms(kind: SequenceKind, start: int, one):
    """``terms(kind, start)`` of the type of ``one`` (an ``int`` 3 for ``css(0)``)."""
    if start < 0:
        raise ValueError("undefined index")
    if kind in _RECURRENCES:
        return _stepped(kind, start, {}, one)
    general = _DERIVED.get(kind)
    if general is None:
        raise ValueError(f"unknown kind {kind!r}")
    chains = {}
    windows = SimpleNamespace(**{k.value: _Window(k, chains, one) for k in CORE_KINDS})
    return map(partial(general, windows), count(start))


_ALPHA = QuadInt(1, 1, 2)

# core kind -> (stride, offset, read): v(n) = read(p, q) where
# p + q*sqrt(2) = (1 + sqrt(2))**(stride*n + offset)
_CLOSED_FORMS = {
    SequenceKind.B: (2, 0, lambda p, q: q >> 1),  # floor division by 2, as a shift
    SequenceKind.b: (2, -1, lambda p, q: (q - 1) >> 1),
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

    Index 0 of ``b`` and ``c`` reads ``(1 + sqrt(2))**-1 = -1 + sqrt(2)``.  A
    checked verifier column compares it with the recurrence route and stores none of it.
    """
    if kind not in _CLOSED_FORMS:
        raise ValueError("no closed form")
    stride, offset, read = _CLOSED_FORMS[kind]
    p, q = (1, 0) if offset == 0 else (-1, 1)
    while True:
        yield read(p, q)
        if stride == 1:  # times 1 + sqrt(2), by two additions
            t = p + q
            p, q = t + q, t
        else:  # twice: (p + 2q, p + q), then (3p + 4q, 2p + 3q)
            r = p + q
            q = r + r + q
            p = q + r


# member kind -> ((s, t) of the radicand 8x^2 + 8sx + t, witness, balancer, bases):
# a member's root w and X = 2x + s make w + X*sqrt(2) = base * (1 + sqrt(2))**e,
# of norm w^2 - 2X^2 = t - 2s^2
_MEMBERSHIP = {
    SequenceKind.B: ((0, 1), SequenceKind.C, BalancerKind.R, ((1, 0),)),
    SequenceKind.b: ((1, 1), SequenceKind.c, BalancerKind.r, ((1, 0),)),
    SequenceKind.Bstar: ((0, 9), SequenceKind.Cstar, BalancerKind.Rstar, ((3, 0),)),
    SequenceKind.Bstarstar: ((0, -7), SequenceKind.Cstarstar, BalancerKind.Rstarstar, ((1, 2), (-1, 2))),
    SequenceKind.bstar: ((1, 9), SequenceKind.cstar, BalancerKind.rstar, ((1, 2), (-1, 2))),
    SequenceKind.bstarstar: ((1, -7), SequenceKind.cstarstar, BalancerKind.rstarstar, ((3, 0),)),
}

# above this many root bits, is_member proves the root by a norm certificate,
# cheaper there than math.isqrt's quadratic division
DEEP_ROOT_BITS = 8192
# prime -> its squares as bits; together they pass about 1 non-square in 330,000
_PRIME_SQUARES = {p: sum({1 << i * i % p for i in range(p)}) for p in (
    17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)}
_PRIME_MODULUS = prod(_PRIME_SQUARES)

WITNESS_KIND = {kind: witness for kind, (_, witness, *_) in _MEMBERSHIP.items()}
MEMBERSHIP_KINDS = tuple(_MEMBERSHIP)
_MEMBER_OF_BALANCER = {bal: kind for kind, (_, _, bal, _) in _MEMBERSHIP.items()}


def is_member(kind: SequenceKind, x: int) -> tuple[bool, int | None]:
    """Square-criterion membership test with the witness root."""
    if x < 0:
        raise ValueError("negative value")
    row = _MEMBERSHIP.get(kind)
    if row is None:
        raise ValueError("no membership criterion")
    (s, t), _, _, bases = row
    r = x % SQUARE_RESIDUE_MODULUS  # most non-members fail on residues alone
    if not square_residue(8 * r * (r + s) + t):
        return False, None
    X = 2 * x + s  # 8x^2 + 8sx + t = 2X^2 + t - 2s^2, of a root with at least X's bits
    if X.bit_length() >= DEEP_ROOT_BITS:
        r = x % _PRIME_MODULUS  # a non-residue modulo any one prime proves no square
        if not all(squares >> (8 * r * (r + s) + t) % p & 1 for p, squares in _PRIME_SQUARES.items()):
            return False, None
        # a row gains log2(1 + sqrt(2)) < 3179/2500 bits per power and its base
        # under 1.5 bits: 8j is at most the member's power e, and a few below it
        u, u1 = lucas_chain(6, -1, (X.bit_length() * 2500 // 3179 - 1) // 8)
        p, q = u1 - 3 * u, 2 * u  # C(j) + 2B(j)*sqrt(2) = (1 + sqrt(2))**2j, if the chain is right
        pp, qq = p * p, q * q
        if pp - 2 * qq == 1:  # then its square p + q*sqrt(2) has norm 1, whatever the chain was
            p, q = pp + 2 * qq, (v := p + q) * v - pp - qq
            qq = q * q  # squared again, with p^2 = 2q^2 + 1: two half-size squarings
            P, Q = 4 * qq + 1, (v := p + q) * v - 3 * qq - 1
            for g, h in bases:
                a, c, norm = g * P + 2 * h * Q, g * Q + h * P, g * g - 2 * h * h
                while 0 < c < X:  # times 1 + sqrt(2), by two additions
                    a, c, norm = a + 2 * c, a + c, -norm
                # a^2 - 2X^2 = t - 2s^2 proves a the root; the deep path starts in root bits
                if c == X and norm == t - 2 * s * s and a >= 0 and a.bit_length() > DEEP_ROOT_BITS:
                    return True, a
    if (rad := (x * x << 3) + (s * x << 3) + t) < 0:
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
