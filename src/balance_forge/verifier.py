"""Mechanical finite-range verification of the sequence identity catalog.

Every identity is evaluated in exact integer arithmetic on the recurrence
route, for each index in range; a division that is not exact is a
counterexample, not a crash.  A catalog identity runs once per block of
``_BLOCK`` indices on vectors (``_Idx``, ``_Vec``), and index by index from a
block it does not decide to hold, so its report is unchanged.  Every radical
and balancer root, in ``baa12`` and ``interlock`` alike, comes from one
``_xsqrt``: the witness read (``C``, ``c``, ``WITNESS_KIND``) if one squaring
confirms it, else the exact test.
Identities read the families only through ``SequenceValues`` accessors
(``S.B``, ``S.Bss``, ...), one per family, over five core columns that one
``_Column.read`` reads at an index or a block: lists that an index read
extends and a block reads as a slice, each compared with the closed-form route
(powers of ``1 + sqrt(2)``) as it fills; a read from the first entry that
differs on fails the check with a ``"route": "binet"`` counterexample.
Columns live for one ``verify``, ``verify_group`` or ``verify_all`` call.

Identity groups and entry counts (the auditable catalog):

* ``teo1`` -- 2 solution-set equalities for ``8x^2-y^2=-9`` / ``8x^2-w^2=7``
* ``teo2`` -- 4: first-type general terms (``Bs``, ``Cs``) and the
  interleaved second-type general terms (``Bss``, ``Css``, both parities)
* ``teo3`` -- 2 solution-set equalities for ``2x^2-y^2=-7`` / ``2x^2-w^2=9``
* ``teo4`` -- 6: first-type cobalancing branches and second-type terms
* ``teo5`` -- 8: core families recovered from each almost type
* ``teo6`` -- 12: conversions between the two almost types
* ``teo7`` -- 12: almost families in Pell numbers (three start at n=2)
* ``teo8`` -- 4: Pell numbers from the almost families
* ``pellk`` -- 4: core families in Pell numbers
* ``baa12`` -- 2: balancing/cobalancing radical conversions (the second
  uses ``B(n) = (2b(n) + 1 + c(n)) / 2``; the ``b(n) + 1`` numerator
  variant fails at n=2 and is rejected by the oracle tests)
* ``sec4`` -- 6: second-type terms as 2-step combinations, and the two
  cobalancing solution classes ``U``, ``V``
* ``interlock`` -- 4 candidate identities pairing almost members with
  almost balancers; each is tried under both type pairings and index
  offsets and the report records the pairing that holds empirically.
"""

from __future__ import annotations

from contextlib import suppress
from functools import partial, partialmethod
from itertools import islice, repeat
from operator import add, mul, rshift, sub
from types import SimpleNamespace

from .pellsolver import QuadraticForm, solutions
from .quadarith import is_perfect_square, record
# balancer, term and term_binet stay module globals: perfbench's tracer wraps them here
from .sequences import (  # noqa: F401
    CORE_KINDS, _DERIVED, _MEMBERSHIP, SequenceKind, balancer, closed_form_terms, term,
    term_binet, terms,
)

# route -> (core kind -> iterator of the family from index 0)
_ROUTES = {"recurrence": terms, "binet": closed_form_terms}


class _RoutesDiffer(Exception):
    """A read from a column's first differing entry: it fails the whole report, not one index."""


class _Column(list):
    """``v(0), v(1), ...`` in one list, taken from an iterator of them as far as read.

    ``read(n)`` of an index past the end fills the column up to ``n`` with one
    ``extend``; a negative index raises.  ``read`` of an ``_Idx`` block returns
    one slice of the entries held and fills nothing.  With ``oracle`` set, a
    fill takes as many entries of it and compares the two lists; the column
    stores none from the first that differs on, and a read from there raises.
    """

    def __init__(self, kind, values):
        super().__init__()
        self.kind, self.values, self.oracle, self.differs = kind, values, None, False

    def read(self, n):
        if n < 0:
            raise ValueError("undefined index")
        try:
            return self[n]
        except IndexError:
            return self.fill(n)
        except _Undecided:  # a block: ``_Idx.__index__`` raises, so an int read pays nothing
            r = n.indices()
            _need(r.stop <= len(self))
            return _Vec(self[r.start:r.stop:r.step])

    def fill(self, n):
        if self.differs:
            i = len(self)
            raise _RoutesDiffer({"n": i, "reason": f"{self.kind.value}({i}) differs between routes",
                                 "route": "binet"})
        ours = list(islice(self.values, n + 1 - len(self)))
        if self.oracle is not None and ours != (theirs := list(islice(self.oracle, len(ours)))):
            self.differs = True
            del ours[next(i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b):]
        self.extend(ours)
        return self.read(n)


class SequenceValues:
    """Sequence accessor the catalog evaluates through.

    One accessor per family, named by its CLI name (``S.B(n)``, ``S.Bss(n)``),
    bound at construction.  ``route`` selects how the core families are
    computed: ``"recurrence"`` steps their recurrences, ``"binet"`` reads
    successive powers of ``1 + sqrt(2)``.  Each instance keeps its own core
    columns, freed with the instance, and reads an index or an ``_Idx`` block
    of them through ``_Column.read``; the other families are evaluated from
    them by their general terms.  Only the instance a ``verify*`` call builds
    checks its columns against the closed-form route as they fill
    (``_Column.oracle``).  ``overrides`` maps ``(kind, index)`` to an additive
    fault, used by sensitivity tests; it changes only the faulted family.
    """

    def __init__(self, route: str = "recurrence", overrides=None):
        source = _ROUTES.get(route)
        if source is None:
            raise ValueError("unknown route")
        self.route = route
        self.overrides = dict(overrides or {})
        # the accessors hold the columns, never the instance, so dropping
        # the instance frees the columns at once
        self._columns = {k: _Column(k, source(k)) for k in CORE_KINDS}
        core = SimpleNamespace(**{k.value: c.read for k, c in self._columns.items()})
        for kind in SequenceKind:
            faults = {n: d for (k, n), d in self.overrides.items() if k is kind}
            exact = getattr(core, kind.value, None) or partial(_DERIVED[kind], core)
            setattr(self, kind.value, _faulted(exact, faults) if faults else exact)

    def value(self, kind: SequenceKind, n: int) -> int:
        return getattr(self, kind.value)(n)


def _faulted(exact, faults):
    return lambda n: exact(n) + (
        _Vec([faults.get(i, 0) for i in n.indices()]) if type(n) is _Idx else faults.get(n, 0))


class _Undecided(Exception):
    """A block a check does not decide at once; it is then evaluated index by index."""


def _undecided(*args):
    raise _Undecided


def _need(ok: bool) -> None:
    if not ok:
        raise _Undecided


class _Idx:
    """The indices ``a*n + b``, ``n = lo .. hi`` (``a >= 1``): a check's argument for a block.

    ``+``, ``-`` and ``*`` by an int stay affine; ``% k`` and ``// k`` are decided where ``k``
    divides ``a``, ``< k`` and ``bool()`` from the least index; the rest raises ``_Undecided``.
    """

    __slots__ = ("a", "b", "lo", "hi")

    def __init__(self, a: int, b: int, lo: int, hi: int):
        self.a, self.b, self.lo, self.hi = a, b, lo, hi

    def indices(self) -> range:
        return range(self.a * self.lo + self.b, self.a * self.hi + self.b + 1, self.a)

    def __add__(self, k):
        return _Idx(self.a, self.b + k, self.lo, self.hi)

    def __sub__(self, k):
        return _Idx(self.a, self.b - k, self.lo, self.hi)

    def __mul__(self, k):
        _need(k > 0)
        return _Idx(self.a * k, self.b * k, self.lo, self.hi)

    def __mod__(self, k):
        _need(k > 0 and self.a % k == 0)
        return self.b % k

    def __floordiv__(self, k):
        _need(k > 0 and self.a % k == 0)
        return _Idx(self.a // k, self.b // k, self.lo, self.hi)

    def __lt__(self, k):  # False at every index, else undecided
        _need(self.a * self.lo + self.b >= k)
        return False

    def __bool__(self):
        return not self < 1

    __radd__, __rmul__ = __add__, __mul__
    __eq__ = __hash__ = __index__ = __neg__ = __le__ = __gt__ = __ge__ = _undecided


class _Vec:
    """An expression's values at each index of an ``_Idx``, in the list ``v``: ``+``, ``-``,
    ``*`` and ``**`` by an int or a vector act element by element, and ``==`` is all-equal."""

    __slots__ = ("v",)

    def __init__(self, v: list):
        self.v = v

    def _map(self, op, other, flip=False):
        w = other.v if type(other) is _Vec else repeat(other)
        return _Vec(list(map(op, w, self.v) if flip else map(op, self.v, w)))

    def __eq__(self, other):
        return type(other) is _Vec and self.v == other.v

    __add__ = __radd__ = partialmethod(_map, add)
    __sub__, __rsub__ = partialmethod(_map, sub), partialmethod(_map, sub, flip=True)
    __mul__ = __rmul__ = partialmethod(_map, mul)
    __pow__, __neg__ = partialmethod(_map, pow), partialmethod(_map, mul, -1)
    __bool__ = __hash__ = __index__ = __lt__ = __le__ = __gt__ = __ge__ = _undecided


class _Inexact(Exception):
    pass


def _xdiv(a: int, b: int) -> int:
    if type(a) is _Vec:  # exact at every index, else undecided
        if b == 2:  # >> 1 floors as divmod does, without building the pairs
            _need(not any(x & 1 for x in a.v))
            return a._map(rshift, 1)
        q, r = zip(*a._map(divmod, b).v)
        _need(not any(r))
        return _Vec(list(q))
    q, r = divmod(a, b)
    if r:
        raise _Inexact(f"{a} is not divisible by {b}")
    return q


def _xsqrt(x: int, hint: int) -> int:
    if type(x) is _Vec:  # every hint confirmed by its squaring, else undecided
        _need(type(hint) is _Vec and all(h >= 0 for h in hint.v) and hint * hint == x)
        return hint
    if hint >= 0 and hint * hint == x:
        return hint
    if x < 0:
        raise _Inexact(f"{x} is negative under a radical")
    ok, root = is_perfect_square(x)
    if not ok:
        raise _Inexact(f"{x} is not a perfect square")
    return root


class IdentityCheck(record("IdentityCheck", "id start fn")):
    __slots__ = ()  # fn: (SequenceValues, n) -> (lhs, rhs)

    @property
    def group(self) -> str:
        return self.id.split(".", 1)[0]


_I = IdentityCheck


CATALOG: list[IdentityCheck] = [
    # teo2: general terms of the almost balancing families of both types
    _I("teo2.Bstar", 1, lambda S, n: (S.Bs(n), 3 * S.B(n))),
    _I("teo2.Cstar", 1, lambda S, n: (S.Cs(n), 3 * S.C(n))),
    _I("teo2.Bstarstar", 1, lambda S, n: (
        (S.Bss(2 * n - 1), S.Bss(2 * n)),
        (S.B(n - 1) + S.C(n - 1), S.C(n) - S.B(n)),
    )),
    _I("teo2.Cstarstar", 1, lambda S, n: (
        (S.Css(2 * n - 1), S.Css(2 * n)),
        (8 * S.B(n - 1) + S.C(n - 1), 8 * S.B(n) - S.C(n)),
    )),
    # teo4: general terms of the almost cobalancing families of both types
    _I("teo4.bstar_even", 1, lambda S, n: (S.bs(2 * n), 2 * S.b(n + 1) - S.b(n))),
    _I("teo4.bstar_odd", 1, lambda S, n: (S.bs(2 * n - 1), 4 * S.b(n) - S.b(n - 1) + 1)),
    _I("teo4.cstar_even", 1, lambda S, n: (S.cs(2 * n), S.c(n + 2) - 4 * S.c(n + 1))),
    _I("teo4.cstar_odd", 1, lambda S, n: (S.cs(2 * n - 1), S.c(n + 1) - 2 * S.c(n))),
    _I("teo4.bstarstar", 1, lambda S, n: (S.bss(n), 3 * S.b(n) + 1)),
    _I("teo4.cstarstar", 1, lambda S, n: (S.css(n), 3 * S.c(n))),
    # teo5: core families recovered from either almost type
    _I("teo5.B_first", 1, lambda S, n: (S.B(n), _xdiv(S.Bs(n), 3))),
    _I("teo5.b_first", 1, lambda S, n: (
        S.b(n), _xdiv(S.bs(2 * n - 1) - S.bs(2 * n - 2) - 1, 2))),
    _I("teo5.C_first", 1, lambda S, n: (S.C(n), _xdiv(S.Cs(n), 3))),
    _I("teo5.c_first", 1, lambda S, n: (
        S.c(n), _xdiv(S.cs(2 * n - 1) - S.cs(2 * n - 2), 2))),
    _I("teo5.B_second", 1, lambda S, n: (
        S.B(n), _xdiv(S.Bss(2 * n + 1) - S.Bss(2 * n), 2))),
    _I("teo5.b_second", 1, lambda S, n: (S.b(n), _xdiv(S.bss(n) - 1, 3))),
    _I("teo5.C_second", 1, lambda S, n: (
        S.C(n), _xdiv(S.Css(2 * n + 1) - S.Css(2 * n), 2))),
    _I("teo5.c_second", 1, lambda S, n: (S.c(n), _xdiv(S.css(n), 3))),
    # teo6: each almost type in terms of the other
    _I("teo6.Bstar", 1, lambda S, n: (
        S.Bs(n), _xdiv(3 * S.Bss(2 * n + 1) - 3 * S.Bss(2 * n), 2))),
    _I("teo6.Cstar", 1, lambda S, n: (
        S.Cs(n), _xdiv(3 * S.Css(2 * n + 1) - 3 * S.Css(2 * n), 2))),
    _I("teo6.bstar_odd", 1, lambda S, n: (
        S.bs(2 * n - 1), _xdiv(4 * S.bss(n) - S.bss(n - 1), 3))),
    _I("teo6.bstar_even", 1, lambda S, n: (
        S.bs(2 * n), _xdiv(2 * S.bss(n + 1) - S.bss(n) - 1, 3))),
    _I("teo6.cstar_odd", 1, lambda S, n: (
        S.cs(2 * n - 1), _xdiv(S.css(n + 1) - 2 * S.css(n), 3))),
    _I("teo6.cstar_even", 1, lambda S, n: (
        S.cs(2 * n), _xdiv(S.css(n + 2) - 4 * S.css(n + 1), 3))),
    _I("teo6.Bstarstar_odd", 1, lambda S, n: (
        S.Bss(2 * n - 1), _xdiv(S.Bs(n - 1) + S.Cs(n - 1), 3))),
    _I("teo6.Bstarstar_even", 1, lambda S, n: (
        S.Bss(2 * n), _xdiv(S.Cs(n) - S.Bs(n), 3))),
    _I("teo6.bstarstar", 1, lambda S, n: (
        S.bss(n), _xdiv(3 * S.bs(2 * n - 1) - 3 * S.bs(2 * n - 2) - 1, 2))),
    _I("teo6.cstarstar", 1, lambda S, n: (
        S.css(n), _xdiv(3 * S.cs(2 * n - 1) - 3 * S.cs(2 * n - 2), 2))),
    _I("teo6.Cstarstar_odd", 1, lambda S, n: (
        S.Css(2 * n - 1), _xdiv(8 * S.Bs(n - 1) + S.Cs(n - 1), 3))),
    _I("teo6.Cstarstar_even", 1, lambda S, n: (
        S.Css(2 * n), _xdiv(8 * S.Bs(n) - S.Cs(n), 3))),
    # teo7: almost families in Pell numbers
    _I("teo7.Bstar", 1, lambda S, n: (S.Bs(n), _xdiv(3 * S.P(2 * n), 2))),
    _I("teo7.bstar_even", 1, lambda S, n: (
        S.bs(2 * n), _xdiv(4 * S.P(2 * n) + S.P(2 * n - 1) - 1, 2))),
    _I("teo7.Cstar", 1, lambda S, n: (S.Cs(n), 3 * S.P(2 * n) + 3 * S.P(2 * n - 1))),
    _I("teo7.cstar_odd", 1, lambda S, n: (
        S.cs(2 * n - 1), 5 * S.P(2 * n - 1) + S.P(2 * n - 2))),
    _I("teo7.cstar_even", 1, lambda S, n: (
        S.cs(2 * n), 3 * S.P(2 * n + 1) - S.P(2 * n))),
    _I("teo7.bstar_odd", 2, lambda S, n: (
        S.bs(2 * n - 1), _xdiv(8 * S.P(2 * n - 2) + 3 * S.P(2 * n - 3) - 1, 2))),
    _I("teo7.Bstarstar_even", 1, lambda S, n: (
        S.Bss(2 * n), _xdiv(S.P(2 * n) + 2 * S.P(2 * n - 1), 2))),
    _I("teo7.bstarstar", 1, lambda S, n: (S.bss(n), _xdiv(3 * S.P(2 * n - 1) - 1, 2))),
    _I("teo7.Cstarstar_even", 1, lambda S, n: (
        S.Css(2 * n), 3 * S.P(2 * n) - S.P(2 * n - 1))),
    _I("teo7.cstarstar", 1, lambda S, n: (
        S.css(n), 3 * S.P(2 * n - 1) + 3 * S.P(2 * n - 2))),
    _I("teo7.Bstarstar_odd", 2, lambda S, n: (
        S.Bss(2 * n - 1), _xdiv(3 * S.P(2 * n - 2) + 2 * S.P(2 * n - 3), 2))),
    _I("teo7.Cstarstar_odd", 2, lambda S, n: (
        S.Css(2 * n - 1), 5 * S.P(2 * n - 2) + S.P(2 * n - 3))),
    # teo8: Pell numbers from the almost families
    _I("teo8.P_even_first", 1, lambda S, n: (S.P(2 * n), _xdiv(2 * S.Bs(n), 3))),
    _I("teo8.P_odd_first", 1, lambda S, n: (
        S.P(2 * n - 1), S.bs(2 * n - 1) - S.bs(2 * n - 2))),
    _I("teo8.P_even_second", 1, lambda S, n: (
        S.P(2 * n), S.Bss(2 * n + 1) - S.Bss(2 * n))),
    _I("teo8.P_odd_second", 1, lambda S, n: (
        S.P(2 * n - 1), _xdiv(2 * S.bss(n) + 1, 3))),
    # pellk: core families in Pell numbers
    _I("pellk.B", 1, lambda S, n: (S.B(n), _xdiv(S.P(2 * n), 2))),
    _I("pellk.b", 1, lambda S, n: (S.b(n), _xdiv(S.P(2 * n - 1) - 1, 2))),
    _I("pellk.C", 1, lambda S, n: (S.C(n), S.P(2 * n) + S.P(2 * n - 1))),
    _I("pellk.c", 1, lambda S, n: (S.c(n), S.P(2 * n - 1) + S.P(2 * n - 2))),
    # baa12: radical conversions between balancing and cobalancing numbers
    _I("baa12.b", 1, lambda S, n: (
        S.b(n), _xdiv(-2 * S.B(n) - 1 + _xsqrt(8 * S.B(n) ** 2 + 1, S.C(n)), 2))),
    _I("baa12.B", 1, lambda S, n: (
        S.B(n),
        _xdiv(2 * S.b(n) + 1 + _xsqrt(8 * S.b(n) ** 2 + 8 * S.b(n) + 1, S.c(n)), 2),
    )),
    # sec4: second-type terms as 2-step combinations; cobalancing classes
    _I("sec4.Bstarstar_odd", 1, lambda S, n: (
        S.B(n) - 2 * S.B(n - 1), S.Bss(2 * n - 1))),
    _I("sec4.Cstarstar_odd", 1, lambda S, n: (
        S.C(n) - 2 * S.C(n - 1), S.Css(2 * n - 1))),
    _I("sec4.Bstarstar_even", 1, lambda S, n: (
        2 * S.B(n) - S.B(n - 1), S.Bss(2 * n))),
    _I("sec4.Cstarstar_even", 1, lambda S, n: (
        2 * S.C(n) - S.C(n - 1), S.Css(2 * n))),
    _I("sec4.Un", 1, lambda S, n: (
        _xdiv(3 * S.B(n) + S.B(n - 1) - 1, 2), S.bs(2 * n - 1))),
    _I("sec4.Vn", 1, lambda S, n: (
        _xdiv(3 * S.B(n) + S.B(n + 1) - 1, 2), S.bs(2 * n))),
]


def _gap(S: SequenceValues, member: str, witness: str, s: int, t: int, k: int) -> int:
    """The almost (co)balancer ``(-2x - 1 + root) / 2`` of the member ``x`` read at ``k``.

    ``root`` squares to ``8x^2 + 8sx + t``; a negative ``x`` is no member, undecided on a vector.
    """
    x = getattr(S, member)(k)
    if x < 0:
        raise _Inexact(f"{x} is negative, no member")
    return _xdiv(-2 * x - 1 + _xsqrt(8 * (x * x + s * x) + t, getattr(S, witness)(k)), 2)


class CandidateIdentity(record("CandidateIdentity", "id start lhs candidates")):
    """An identity whose balancer type/index pairing is fixed empirically.

    ``lhs`` and each ``rhs`` of the ``(label, rhs)`` candidates map ``(S, n)`` to an int."""

    __slots__ = ()


def _pairings(name: str, first: SequenceKind, second: SequenceKind):
    """The six labelled pairings: the ``first`` or ``second`` type member read at n+0, 1 or 2."""
    return tuple(
        (f"{name}({label}, n+{o})",
         lambda S, n, m=kind.value, w=witness.value, s=s, t=t, o=o: _gap(S, m, w, s, t, n + o))
        for label, kind in (("first", first), ("second", second))
        for (s, t), witness, *_ in (_MEMBERSHIP[kind],)
        for o in (0, 1, 2)
    )


_COBALANCERS = _pairings("almost_cobalancer", SequenceKind.bstar, SequenceKind.bstarstar)
_BALANCERS = _pairings("almost_balancer", SequenceKind.Bstar, SequenceKind.Bstarstar)

INTERLOCK: list[CandidateIdentity] = [
    CandidateIdentity("interlock.Bstar", 1, lambda S, n: S.Bs(n), _COBALANCERS),
    CandidateIdentity("interlock.Bstarstar", 1, lambda S, n: S.Bss(n), _COBALANCERS),
    CandidateIdentity("interlock.bstar", 1, lambda S, n: S.bs(n), _BALANCERS),
    CandidateIdentity("interlock.bstarstar", 1, lambda S, n: S.bss(n), _BALANCERS),
]

CATALOG_COUNTS = {
    "teo1": 2, "teo2": 4, "teo3": 2, "teo4": 6, "teo5": 8, "teo6": 12,
    "teo7": 12, "teo8": 4, "pellk": 4, "baa12": 2, "sec4": 6, "interlock": 4,
}

GROUPS = tuple(CATALOG_COUNTS)


class VerificationReport(record("VerificationReport", "id lo hi status counterexample note",
                                defaults=(None, None))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"id": self.id, "range": [self.lo, self.hi], "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note is not None:
            out["note"] = self.note
        return out


def _jsonl(obj: dict) -> str:
    import json  # loaded on first use, off the import path
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reports_to_jsonl(reports) -> str:
    return "\n".join(_jsonl(r.to_dict()) for r in reports)


_CHECK_BY_ID = {check.id: check for check in CATALOG}
_INTERLOCK_BY_ID = {cand.id: cand for cand in INTERLOCK}


def _checked(values):
    """``values`` as given, or a recurrence instance whose columns check the closed-form route."""
    if values is None:
        values = SequenceValues("recurrence")
        for kind, column in values._columns.items():
            column.oracle = closed_form_terms(kind)
    return values


_BLOCK = 512  # indices per block of a catalog check: bounds the vectors it holds


def _run_check(check: IdentityCheck, n_max: int, S: SequenceValues) -> VerificationReport:
    fail = partial(VerificationReport, check.id, check.start, n_max, "fail")
    try:
        if n_max >= check.start:
            with suppress(_Inexact):
                check.fn(S, n_max)  # fills each column at once: every catalog index grows with n
        for n in range(_blocks_hold(check, n_max, S), n_max + 1):
            try:
                lhs, rhs = check.fn(S, n)
            except _Inexact as exc:
                return fail({"n": n, "reason": str(exc), "route": S.route})
            if lhs != rhs:
                return fail({"n": n, "lhs": _json_value(lhs), "rhs": _json_value(rhs),
                             "route": S.route})
    except _RoutesDiffer as exc:
        return fail(exc.args[0])
    return VerificationReport(check.id, check.start, n_max, "pass")


def _blocks_hold(check: IdentityCheck, n_max: int, S: SequenceValues) -> int:
    """The first index of the first block not decided to hold, else ``n_max + 1``."""
    for lo in range(check.start, n_max + 1, _BLOCK):
        with suppress(_Undecided):
            lhs, rhs = check.fn(S, _Idx(1, 0, lo, min(lo + _BLOCK - 1, n_max)))
            if lhs == rhs:
                continue
        return lo
    return n_max + 1


def _json_value(v):
    return list(v) if isinstance(v, tuple) else v


def _run_candidate(cand: CandidateIdentity, n_max: int, S: SequenceValues) -> VerificationReport:
    survivors, (first, _) = list(cand.candidates), cand.candidates[0]
    try:
        for fn in (cand.lhs, *(fn for _, fn in reversed(survivors))):  # fill, top index first
            with suppress(_Inexact):
                fn(S, n_max)
        for n in range(cand.start, n_max + 1):
            lhs = cand.lhs(S, n)
            still = []
            for label, fn in survivors:
                try:
                    rhs = fn(S, n)
                except _Inexact:
                    rhs = None
                if rhs == lhs:
                    still.append((label, fn))
                elif label == first:  # the report's counterexample when none holds
                    ce = {"n": n, "lhs": lhs, "rhs": _json_value(rhs), "candidate": label}
            survivors = still
            if not survivors:
                break
    except _RoutesDiffer as exc:
        return VerificationReport(cand.id, cand.start, n_max, "fail", exc.args[0])
    if survivors:
        note = "holds as " + ", ".join(label for label, _ in survivors)
        return VerificationReport(cand.id, cand.start, n_max, "pass", note=note)
    return VerificationReport(cand.id, cand.start, n_max, "fail", ce)


# The four solution-set claims: equation label -> (group, form, m, family term maps)
PELL_EQUATIONS = {
    "8x^2-y^2=-9": (
        "teo1", (8, 0, -1), -9,
        ((lambda S, n: (3 * S.B(n), 3 * S.C(n))),),
    ),
    "8x^2-w^2=7": (
        "teo1", (8, 0, -1), 7,
        (
            lambda S, n: (S.B(n - 1) + S.C(n - 1), 8 * S.B(n - 1) + S.C(n - 1)),
            lambda S, n: (S.C(n) - S.B(n), 8 * S.B(n) - S.C(n)),
        ),
    ),
    "2x^2-y^2=-7": (
        "teo3", (2, 0, -1), -7,
        (
            lambda S, n: (6 * S.B(n - 1) + S.C(n - 1), 4 * S.B(n - 1) + 3 * S.C(n - 1)),
            lambda S, n: (6 * S.B(n) - S.C(n), 3 * S.C(n) - 4 * S.B(n)),
        ),
    ),
    "2x^2-w^2=9": (
        "teo3", (2, 0, -1), 9,
        ((lambda S, n: (6 * S.B(n - 1) + 3 * S.C(n - 1), 12 * S.B(n - 1) + 3 * S.C(n - 1))),),
    ),
}


def verify_solution_sets(equation: str, count: int) -> VerificationReport:
    """Compare the first ``count`` positive solutions against the claimed family.

    The solver stream is restricted to ``x > 0, y > 0`` (the claimed
    families enumerate exactly the positive solutions; their sign mirrors
    are implied).  Exact ordered equality is required.
    """
    return _run_solution_set(equation, count, _checked(None))


def _run_solution_set(equation: str, count: int, S: SequenceValues) -> VerificationReport:
    if equation not in PELL_EQUATIONS:
        raise ValueError("no such identity")
    if count < 1:
        raise ValueError("arguments positive")
    group, coeffs, m, families = PELL_EQUATIONS[equation]
    rid = f"{group}.{equation}"
    try:
        for fam in families:  # fill each column at once
            fam(S, count)
        expected = sorted({fam(S, n) for fam in families for n in range(1, count + 1)})[:count]
    except _RoutesDiffer as exc:
        return VerificationReport(rid, 1, count, "fail", exc.args[0])
    form = QuadraticForm(*coeffs)
    got = [sol.pair() for sol in solutions(form, m, count=count, positive=True)]
    if got == expected:
        return VerificationReport(rid, 1, count, "pass")
    pairs = enumerate(zip(got, expected))
    bad = next((i for i, (g, e) in pairs if g != e), min(len(got), len(expected)))
    return VerificationReport(rid, 1, count, "fail", {
        "n": bad + 1, "lhs": _json_value(got[bad]) if bad < len(got) else None,
        "rhs": _json_value(expected[bad]) if bad < len(expected) else None})


def verify(id: str, n_max: int, values=None) -> VerificationReport:
    """Run one cataloged identity over ``start .. n_max``."""
    check, cand = _CHECK_BY_ID.get(id), _INTERLOCK_BY_ID.get(id)
    if check is None and cand is None:
        raise ValueError("no such identity")
    if n_max < 1:
        raise ValueError("arguments positive")
    if check is not None:
        return _run_check(check, n_max, _checked(values))
    return _run_candidate(cand, n_max, _checked(values))


def verify_group(group: str, n_max: int, pell_count: int = 10, values=None):
    """All reports for one identity group, in catalog order."""
    if group not in GROUPS:
        raise ValueError("no such identity")
    if n_max < 1 or pell_count < 1:
        raise ValueError("arguments positive")
    return _group_reports(group, n_max, pell_count, _checked(values))


def _group_reports(group: str, n_max: int, pell_count: int, S: SequenceValues):
    if group in ("teo1", "teo3"):
        return [
            _run_solution_set(eq, pell_count, S)
            for eq, (grp, *_) in PELL_EQUATIONS.items() if grp == group
        ]
    if group == "interlock":
        return [_run_candidate(c, n_max, S) for c in INTERLOCK]
    return [_run_check(c, n_max, S) for c in CATALOG if c.group == group]


def verify_all(n_max: int, pell_count: int, values=None):
    """Every cataloged identity plus the four solution-set checks.

    One instance's columns are built once, checked as they fill, and
    shared by every group.
    """
    if n_max < 1 or pell_count < 1:
        raise ValueError("arguments positive")
    S = _checked(values)
    reports = []
    for group in GROUPS:
        reports.extend(_group_reports(group, n_max, pell_count, S))
    return reports
