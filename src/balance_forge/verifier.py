"""Mechanical finite-range verification of the sequence identity catalog.

Every identity is evaluated in exact integer arithmetic for each index in
range, on two computation routes for the core families (stepping their
recurrences, and successive powers of ``1 + sqrt(2)``); a division that is
not exact is a counterexample, not a crash.  Identities read the families
through ``SequenceValues`` accessors named by the CLI names (``S.B``,
``S.Bss``, ...).  One instance per route holds that route's core columns
for a whole ``verify_all`` or ``verify_group`` call; nothing is kept
between calls.

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

import json
from dataclasses import dataclass
from functools import partial
from itertools import islice
from types import SimpleNamespace

from .pellsolver import QuadraticForm, solutions
from .quadarith import is_perfect_square
# term and term_binet stay module globals: perfbench's tracer wraps them here
from .sequences import (  # noqa: F401
    CORE_KINDS, _DERIVED, BalancerKind, SequenceKind, balancer, closed_form_terms, term,
    term_binet, terms,
)

# route -> (core kind -> iterator of the family from index 0)
_ROUTES = {"recurrence": terms, "binet": closed_form_terms}


class _Column(dict):
    """``n -> v(n)`` read from an iterator of ``v(0), v(1), ...``.

    A miss grows the column to twice its size, or past ``n`` if that is
    further, so the hot path is a plain dict lookup; a negative index is a
    miss that raises.
    """

    def __init__(self, values):
        super().__init__()
        self.values = values

    def __missing__(self, n):
        if n < 0:
            raise ValueError("undefined index")
        size = len(self)
        self.update(enumerate(islice(self.values, max(n + 1, 2 * size) - size), size))
        return self[n]


class SequenceValues:
    """Sequence accessor the catalog evaluates through.

    One accessor per family, named by its CLI name (``S.B(n)``, ``S.Bss(n)``),
    bound at construction.  ``route`` selects how the core families are
    computed: ``"recurrence"`` steps their recurrences, ``"binet"`` reads
    successive powers of ``1 + sqrt(2)``.  Each instance keeps its own core
    columns, grown on demand and freed with the instance; the other families
    are evaluated from them by their general terms.  ``overrides`` maps
    ``(kind, index)`` to an additive fault, used by sensitivity tests; a
    fault changes only the faulted family, never the columns.
    """

    def __init__(self, route: str = "recurrence", overrides=None):
        source = _ROUTES.get(route)
        if source is None:
            raise ValueError("unknown route")
        self.route = route
        self.overrides = dict(overrides or {})
        # the accessors hold the columns, never the instance, so dropping
        # the instance frees the columns at once
        core = SimpleNamespace(**{
            k.value: _Column(source(k)).__getitem__ for k in CORE_KINDS})
        for kind in SequenceKind:
            exact = getattr(core, kind.value, None) or partial(_DERIVED[kind], core)
            faults = {n: d for (k, n), d in self.overrides.items() if k is kind}
            setattr(self, kind.value, _faulted(exact, faults) if faults else exact)

    def value(self, kind: SequenceKind, n: int) -> int:
        return getattr(self, kind.value)(n)


def _faulted(exact, faults):
    return lambda n: exact(n) + faults.get(n, 0)


class _Inexact(Exception):
    pass


def _xdiv(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise _Inexact(f"{a} is not divisible by {b}")
    return q


def _xsqrt(x: int) -> int:
    if x < 0:
        raise _Inexact(f"{x} is negative under a radical")
    ok, root = is_perfect_square(x)
    if not ok:
        raise _Inexact(f"{x} is not a perfect square")
    return root


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    start: int
    fn: object  # (SequenceValues, n) -> (lhs, rhs)

    @property
    def group(self) -> str:
        return self.id.split(".", 1)[0]


def _I(id, start, fn):
    return IdentityCheck(id, start, fn)


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
        S.b(n), _xdiv(-2 * S.B(n) - 1 + _xsqrt(8 * S.B(n) ** 2 + 1), 2))),
    _I("baa12.B", 1, lambda S, n: (
        S.B(n),
        _xdiv(2 * S.b(n) + 1 + _xsqrt(8 * S.b(n) ** 2 + 8 * S.b(n) + 1), 2),
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


def _almost_balancer(S: SequenceValues, first_type: bool, k: int) -> int:
    if first_type:
        return balancer(BalancerKind.Rstar, S.Bs(k))
    return balancer(BalancerKind.Rstarstar, S.Bss(k))


def _almost_cobalancer(S: SequenceValues, first_type: bool, k: int) -> int:
    if first_type:
        return balancer(BalancerKind.rstar, S.bs(k))
    return balancer(BalancerKind.rstarstar, S.bss(k))


@dataclass(frozen=True)
class CandidateIdentity:
    """An identity whose balancer type/index pairing is fixed empirically."""

    id: str
    start: int
    lhs: object  # (S, n) -> int
    candidates: tuple[tuple[str, object], ...]  # (label, (S, n) -> int)


def _pairings(fn):
    """The four type/index pairings of a balancer-style right-hand side."""
    return tuple(
        (f"{fn.__name__.lstrip('_')}({kind}, n+{off})",
         (lambda first, o: lambda S, n: fn(S, first, n + o))(kind == "first", off))
        for kind in ("first", "second")
        for off in (0, 1, 2)
    )


INTERLOCK: list[CandidateIdentity] = [
    CandidateIdentity("interlock.Bstar", 1, lambda S, n: S.Bs(n),
                      _pairings(_almost_cobalancer)),
    CandidateIdentity("interlock.Bstarstar", 1, lambda S, n: S.Bss(n),
                      _pairings(_almost_cobalancer)),
    CandidateIdentity("interlock.bstar", 1, lambda S, n: S.bs(n),
                      _pairings(_almost_balancer)),
    CandidateIdentity("interlock.bstarstar", 1, lambda S, n: S.bss(n),
                      _pairings(_almost_balancer)),
]

CATALOG_COUNTS = {
    "teo1": 2, "teo2": 4, "teo3": 2, "teo4": 6, "teo5": 8, "teo6": 12,
    "teo7": 12, "teo8": 4, "pellk": 4, "baa12": 2, "sec4": 6, "interlock": 4,
}

GROUPS = tuple(CATALOG_COUNTS)


@dataclass
class VerificationReport:
    id: str
    lo: int
    hi: int
    status: str
    counterexample: dict | None = None
    note: str | None = None

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


def reports_to_jsonl(reports) -> str:
    return "\n".join(
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
        for r in reports
    )


_CHECK_BY_ID = {check.id: check for check in CATALOG}
_INTERLOCK_BY_ID = {cand.id: cand for cand in INTERLOCK}


def _routes(values) -> list[SequenceValues]:
    """``[values]``, or one fresh instance per route."""
    if values is not None:
        return [values]
    return [SequenceValues("recurrence"), SequenceValues("binet")]


def _run_check(check: IdentityCheck, n_max: int, routes) -> VerificationReport:
    for S in routes:
        for n in range(check.start, n_max + 1):
            try:
                lhs, rhs = check.fn(S, n)
            except _Inexact as exc:
                return VerificationReport(
                    check.id, check.start, n_max, "fail",
                    {"n": n, "reason": str(exc), "route": S.route},
                )
            if lhs != rhs:
                return VerificationReport(
                    check.id, check.start, n_max, "fail",
                    {"n": n, "lhs": _json_value(lhs), "rhs": _json_value(rhs),
                     "route": S.route},
                )
    return VerificationReport(check.id, check.start, n_max, "pass")


def _json_value(v):
    return list(v) if isinstance(v, tuple) else v


def _run_candidate(cand: CandidateIdentity, n_max: int, S: SequenceValues) -> VerificationReport:
    survivors = list(cand.candidates)
    first_failures = {}
    for n in range(cand.start, n_max + 1):
        lhs = cand.lhs(S, n)
        still = []
        for label, fn in survivors:
            try:
                rhs = fn(S, n)
            except ValueError:
                rhs = None
            if rhs == lhs:
                still.append((label, fn))
            elif label not in first_failures:
                first_failures[label] = {"n": n, "lhs": lhs, "rhs": _json_value(rhs)}
        survivors = still
        if not survivors:
            break
    if survivors:
        note = "holds as " + ", ".join(label for label, _ in survivors)
        return VerificationReport(cand.id, cand.start, n_max, "pass", note=note)
    label, fn = cand.candidates[0]
    ce = dict(first_failures.get(label) or {})
    ce["candidate"] = label
    return VerificationReport(cand.id, cand.start, n_max, "fail", ce)


# The four solution-set claims: equation label -> (form, m, family term maps)
PELL_EQUATIONS = {
    "8x^2-y^2=-9": (
        (8, 0, -1), -9,
        ((lambda S, n: (3 * S.B(n), 3 * S.C(n))),),
    ),
    "8x^2-w^2=7": (
        (8, 0, -1), 7,
        (
            lambda S, n: (S.B(n - 1) + S.C(n - 1), 8 * S.B(n - 1) + S.C(n - 1)),
            lambda S, n: (S.C(n) - S.B(n), 8 * S.B(n) - S.C(n)),
        ),
    ),
    "2x^2-y^2=-7": (
        (2, 0, -1), -7,
        (
            lambda S, n: (6 * S.B(n - 1) + S.C(n - 1), 4 * S.B(n - 1) + 3 * S.C(n - 1)),
            lambda S, n: (6 * S.B(n) - S.C(n), 3 * S.C(n) - 4 * S.B(n)),
        ),
    ),
    "2x^2-w^2=9": (
        (2, 0, -1), 9,
        ((lambda S, n: (6 * S.B(n - 1) + 3 * S.C(n - 1), 12 * S.B(n - 1) + 3 * S.C(n - 1))),),
    ),
}

_EQUATION_GROUP = {
    "8x^2-y^2=-9": "teo1", "8x^2-w^2=7": "teo1",
    "2x^2-y^2=-7": "teo3", "2x^2-w^2=9": "teo3",
}


def verify_solution_sets(equation: str, count: int) -> VerificationReport:
    """Compare the first ``count`` positive solutions against the claimed family.

    The solver stream is restricted to ``x > 0, y > 0`` (the claimed
    families enumerate exactly the positive solutions; their sign mirrors
    are implied).  Exact ordered equality is required.
    """
    return _run_solution_set(equation, count, SequenceValues())


def _run_solution_set(equation: str, count: int, S: SequenceValues) -> VerificationReport:
    if equation not in PELL_EQUATIONS:
        raise ValueError("no such identity")
    if count < 1:
        raise ValueError("arguments positive")
    coeffs, m, families = PELL_EQUATIONS[equation]
    form = QuadraticForm(*coeffs)
    got = [sol.pair() for sol in solutions(form, m, count=count, positive=True)]
    expected = sorted({fam(S, n) for fam in families for n in range(1, count + 1)})
    expected = expected[:count]
    rid = f"{_EQUATION_GROUP[equation]}.{equation}"
    if got == expected:
        return VerificationReport(rid, 1, count, "pass")
    bad = next(
        (i for i, (g, e) in enumerate(zip(got, expected)) if g != e),
        min(len(got), len(expected)),
    )
    return VerificationReport(
        rid, 1, count, "fail",
        {"n": bad + 1,
         "lhs": _json_value(got[bad]) if bad < len(got) else None,
         "rhs": _json_value(expected[bad]) if bad < len(expected) else None},
    )


def verify(id: str, n_max: int, values=None) -> VerificationReport:
    """Run one cataloged identity over ``start .. n_max``."""
    if n_max < 1:
        raise ValueError("arguments positive")
    check = _CHECK_BY_ID.get(id)
    if check is not None:
        return _run_check(check, n_max, _routes(values))
    cand = _INTERLOCK_BY_ID.get(id)
    if cand is not None:
        return _run_candidate(cand, n_max, values or SequenceValues())
    raise ValueError("no such identity")


def verify_group(group: str, n_max: int, pell_count: int = 10, values=None):
    """All reports for one identity group, in catalog order."""
    if n_max < 1 or pell_count < 1:
        raise ValueError("arguments positive")
    return _group_reports(group, n_max, pell_count, _routes(values))


def _group_reports(group: str, n_max: int, pell_count: int, routes):
    # solution sets and interlock candidates read the first route only
    if group in ("teo1", "teo3"):
        return [
            _run_solution_set(eq, pell_count, routes[0])
            for eq, grp in _EQUATION_GROUP.items() if grp == group
        ]
    if group == "interlock":
        return [_run_candidate(c, n_max, routes[0]) for c in INTERLOCK]
    checks = [c for c in CATALOG if c.group == group]
    if not checks:
        raise ValueError("no such identity")
    return [_run_check(c, n_max, routes) for c in checks]


def verify_all(n_max: int, pell_count: int, values=None):
    """Every cataloged identity plus the four solution-set checks.

    Each route's columns are built once and shared by every group.
    """
    if n_max < 1 or pell_count < 1:
        raise ValueError("arguments positive")
    routes = _routes(values)
    reports = []
    for group in GROUPS:
        reports.extend(_group_reports(group, n_max, pell_count, routes))
    return reports


def known_ids():
    """Every acceptable identity id (groups and single identities)."""
    ids = ["all", *GROUPS]
    ids.extend(check.id for check in CATALOG)
    ids.extend(cand.id for cand in INTERLOCK)
    return ids
