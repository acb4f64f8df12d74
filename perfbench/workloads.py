"""Seed-driven op lists for the three benchmark workloads.

An op is a plain tuple ``(kind, call, meta)``:

* ``("cli", argv, meta)`` runs ``balance_forge.cli.main(argv)``;
* ``("lib", (function, *args), meta)`` calls a public library function,
  with sequence and balancer kinds given by name.

``meta`` carries what the output checks need (expected values, the seed
solution of a Pell equation) and ``known``: the tag of the known defect the
op runs into at the seed commit, or ``None``.  Nothing here imports the
program except ``build_verify_catalog``, which reads the catalog ids.

Expected sequence values come from this module's own closed form, powers
of ``1 + sqrt(2)`` by repeated squaring, not from the program.  Pell strata
come from this module's own continued-fraction unit size, not from the
program's solver.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys

WORKLOADS = ("verify-catalog", "pell-solve", "terms-deep")

# --- verify-catalog ---------------------------------------------------------

VERIFY_UPTO = (990, 1010)  # N drawn per op: about 1000
VERIFY_PELL_COUNT = 50


def build_verify_catalog(rng: random.Random):
    from balance_forge.verifier import CATALOG, INTERLOCK

    ids = [c.id for c in CATALOG] + [c.id for c in INTERLOCK] + ["teo1", "teo3"]
    rng.shuffle(ids)
    ops = []
    for ident in ids:
        n = rng.randint(*VERIFY_UPTO)
        argv = ["verify", ident, "--upto", str(n), "--pell-count", str(VERIFY_PELL_COUNT)]
        ops.append(("cli", argv, {"id": ident, "upto": n, "known": None}))
    return ops


# --- pell-solve ---------------------------------------------------------------

def unit_log2(delta: int) -> float:
    """log2 of the norm-one fundamental unit of discriminant ``delta``.

    The unit is the product of the complete quotients over one period of
    the continued fraction of ``(delta % 2 + sqrt(delta)) / 2``, squared
    when the period is odd (norm -1).  Floats are fine: the value only
    sorts inputs into strata.
    """
    s, rt = math.isqrt(delta), math.sqrt(delta)
    P, Q = delta & 1, 2
    seen: dict[tuple[int, int], int] = {}
    logs: list[float] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(logs)
        logs.append(math.log2((P + rt) / Q))
        a = (P + s) // Q
        P = a * Q - P
        Q = (delta - P * P) // Q
    period = logs[seen[(P, Q)]:]
    return sum(period) * (1 if len(period) % 2 == 0 else 2)


def search_width_log2(a: int, b: int, c: int, m: int) -> float:
    """log2 of ``sqrt(|a*m| * tau / delta)``, the size of the y window that
    a representative search must cover for ``a*x^2 + b*x*y + c*y^2 = m``."""
    delta = b * b - 4 * a * c
    return (math.log2(abs(a * m)) + unit_log2(delta) - math.log2(delta)) / 2


# (stratum, ops, forms with b != 0 and a != 1 among them, width band in bits)
PELL_STRATA = (
    ("small", 50, 14, (0.0, 10.5)),
    ("mid", 24, 6, (18.6, 19.0)),
    ("large", 3, 1, (24.0, 25.5)),
)
PELL_XBOUND_OPS = 6
PELL_XBOUND = (2000, 20000)
PELL_COUNT = (3, 8)
# x^2 - D*y^2 = 7 for these D needs a representative window beyond 10^12
PELL_BEYOND_SCAN = (421, 613, 661, 919, 991)
PELL_BEYOND_OPS = 3


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _draw_form(rng: random.Random, general: bool):
    while True:
        if general:
            a, b, c = rng.randint(2, 6), rng.randint(1, 9), -rng.randint(1, 30)
        else:
            a, b, c = 1, 0, -rng.randint(2, 1000)
        if not _is_square(b * b - 4 * a * c):
            return a, b, c


def _draw_equation(rng: random.Random, general: bool, band):
    """A solvable equation, ``m = F(x0, y0)``, whose search width is in ``band``."""
    lo, hi = band
    while True:
        a, b, c = _draw_form(rng, general)
        x0, y0 = rng.randint(1, 40), rng.randint(1, 40)
        m = a * x0 * x0 + b * x0 * y0 + c * y0 * y0
        if m and lo <= search_width_log2(a, b, c, m) <= hi:
            return (a, b, c), m, (x0, y0)


def _solve_op(form, m, seed_solution, stratum, known=None, *, count=None, xbound=None):
    argv = ["solve", *map(str, form), str(m)]
    argv += ["--count", str(count)] if count is not None else ["--xbound", str(xbound), "--all"]
    meta = {"form": form, "m": m, "seed_solution": seed_solution, "count": count,
            "xbound": xbound, "stratum": stratum, "known": known}
    return ("cli", argv, meta)


def build_pell_solve(rng: random.Random):
    ops = []
    for stratum, n_ops, n_general, band in PELL_STRATA:
        for i in range(n_ops):
            form, m, sol = _draw_equation(rng, i < n_general, band)
            ops.append(_solve_op(form, m, sol, stratum, count=rng.randint(*PELL_COUNT)))
    for i in range(PELL_XBOUND_OPS):
        form, m, sol = _draw_equation(rng, i % 2 == 1, PELL_STRATA[0][3])
        ops.append(_solve_op(form, m, sol, "xbound", xbound=rng.randint(*PELL_XBOUND)))
    for d in rng.sample(PELL_BEYOND_SCAN, PELL_BEYOND_OPS):
        ops.append(_solve_op((1, 0, -d), 7, None, "beyond-scan", "scan-refusal",
                             count=rng.randint(*PELL_COUNT)))
    # |m| about 2^62: 4*a*m no longer fits the scan's int64 arithmetic
    d = rng.choice([d for d in range(2, 50) if not _is_square(d)])
    y0 = rng.randint(1, 1000)
    x0 = math.isqrt(2**62 + d * y0 * y0) + rng.randint(1, 1000)
    ops.append(_solve_op((1, 0, -d), x0 * x0 - d * y0 * y0, (x0, y0), "huge-m",
                         "OverflowError", count=rng.randint(*PELL_COUNT)))
    # The order of the strata is one fixed shuffle for every seed, so the
    # one-off costs of a fresh process (numpy's import, the first large
    # arrays) fall on the same kind of op whatever the seed.  The equations
    # in each stratum, and their order, come from the seed.
    by_stratum: dict[str, list] = {}
    for op in ops:
        by_stratum.setdefault(op[2]["stratum"], []).append(op)
    for group in by_stratum.values():
        rng.shuffle(group)
    pattern = sorted(op[2]["stratum"] for op in ops)
    random.Random("pell-solve strata order").shuffle(pattern)
    return [by_stratum[stratum].pop() for stratum in pattern]


# --- terms-deep ---------------------------------------------------------------

KINDS = ("B", "b", "C", "c", "P", "Bs", "Bss", "Cs", "Css", "bs", "bss", "cs", "css")
CORE_KINDS = ("B", "b", "C", "c", "P")
INTERLEAVED_KINDS = ("Bss", "Css", "bs", "cs")
# membership kind -> (witness kind, balancer kind, definitional family, defect)
MEMBERSHIP = {
    "B": ("C", "R", "balancing", 0),
    "b": ("c", "r", "cobalancing", 0),
    "Bs": ("Cs", "Rs", "almost_balancing", 1),
    "Bss": ("Css", "Rss", "almost_balancing", -1),
    "bs": ("cs", "rs", "almost_cobalancing", 1),
    "bss": ("css", "rss", "almost_cobalancing", -1),
}
TERMS_DEPTH = 20000  # deepest index into the five base recurrences
TERMS_PER_KIND = 8
TERMS_GEN_OPS = 6


def _alpha_pow(k: int) -> tuple[int, int]:
    """``(p, q)`` with ``(1 + sqrt(2))**k == p + q*sqrt(2)``, ``k >= -1``."""
    if k == -1:
        return -1, 1
    p, q, bp, bq = 1, 0, 1, 1
    while k:
        if k & 1:
            p, q = p * bp + 2 * q * bq, p * bq + q * bp
        bp, bq = bp * bp + 2 * bq * bq, 2 * bp * bq
        k >>= 1
    return p, q


class ClosedForm:
    """The thirteen families from powers of ``1 + sqrt(2)``, memoized."""

    def __init__(self):
        self._powers: dict[int, tuple[int, int]] = {}

    def _pow(self, k):
        if k not in self._powers:
            self._powers[k] = _alpha_pow(k)
        return self._powers[k]

    def B(self, n):
        return self._pow(2 * n)[1] // 2

    def C(self, n):
        return self._pow(2 * n)[0]

    def b(self, n):
        return (self._pow(2 * n - 1)[1] - 1) // 2

    def c(self, n):
        return self._pow(2 * n - 1)[0]

    def P(self, n):
        return self._pow(n)[1]

    def value(self, kind: str, n: int) -> int:
        if kind in CORE_KINDS:
            return getattr(self, kind)(n)
        B, C, b, c = self.B, self.C, self.b, self.c
        if kind == "Bs":
            return 3 * B(n)
        if kind == "Cs":
            return 3 * C(n)
        if kind == "bss":
            return 3 * b(n) + 1
        if kind == "css":
            return 3 if n == 0 else 3 * c(n)
        if n % 2:
            m = (n + 1) // 2
            return {
                "Bss": lambda: B(m - 1) + C(m - 1),
                "Css": lambda: 8 * B(m - 1) + C(m - 1),
                "bs": lambda: 4 * b(m) - b(m - 1) + 1,
                "cs": lambda: c(m + 1) - 2 * c(m),
            }[kind]()
        m = n // 2
        return {
            "Bss": lambda: C(m) - B(m),
            "Css": lambda: 8 * B(m) - C(m),
            "bs": lambda: 2 * b(m + 1) - b(m),
            "cs": lambda: c(m + 2) - 4 * c(m + 1),
        }[kind]()


def _top_index(kind: str) -> int:
    # interleaved kinds reach base index n of their families at flat index 2n
    return 2 * TERMS_DEPTH if kind in INTERLEAVED_KINDS else TERMS_DEPTH


def build_terms_deep(rng: random.Random):
    cf = ClosedForm()
    # The first query of each base family is the deepest any op needs
    # (cs(2n) reads c(n + 2)), so it alone grows that family's recurrence
    # cache and every later op reads it: five writes, then reads only.
    first = [("lib", ("term", kind, TERMS_DEPTH + 2),
              {"value": cf.value(kind, TERMS_DEPTH + 2), "known": None})
             for kind in rng.sample(CORE_KINDS, len(CORE_KINDS))]
    ops = []
    for kind in KINDS:
        top = _top_index(kind)
        # one index near the top per kind, so the slowest single-index ops
        # are alike on every seed; the rest in the deepest quarter
        indices = [rng.randint(top - top // 50, top)]
        indices += [rng.randint(top - top // 4, top) for _ in range(TERMS_PER_KIND - 1)]
        for n in indices:
            value = cf.value(kind, n)
            ops.append(("lib", ("term", kind, n), {"value": value, "known": None}))
            if kind in CORE_KINDS:
                ops.append(("lib", ("term_binet", kind, n), {"value": value, "known": None}))
            if kind in MEMBERSHIP:
                witness_kind, bkind, family, defect = MEMBERSHIP[kind]
                witness = cf.value(witness_kind, n)
                ops.append(("lib", ("is_member", kind, value),
                            {"member": True, "witness": witness, "known": None}))
                ops.append(("lib", ("is_member", kind, value + 1),
                            {"member": False, "known": None}))
                ops.append(("lib", ("balancer", bkind, value),
                            {"family": family, "defect": defect, "known": None}))
    for _ in range(TERMS_GEN_OPS):
        kind = rng.choice(KINDS)
        top = _top_index(kind)
        n = rng.randint(top // 2, top)
        value = cf.value(kind, n)
        too_long = abs(value) >= 10 ** sys.get_int_max_str_digits()
        ops.append(("cli", ["gen", kind, str(n), str(n)],
                    {"value": value, "known": "int-str-limit" if too_long else None}))
    rng.shuffle(ops)
    return first + ops


BUILDERS = {
    "verify-catalog": build_verify_catalog,
    "pell-solve": build_pell_solve,
    "terms-deep": build_terms_deep,
}


def build(name: str, seed: int):
    """The op list of workload ``name`` for ``seed``; same seed, same list."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))


def _canonical(obj):
    # ints as hex: decimal conversion of huge ints is capped by CPython
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return {"int": format(obj, "x")}
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    return [_canonical(v) for v in obj]


def digest(ops) -> str:
    """sha256 of the op list, stable across runs and Python versions."""
    text = json.dumps(_canonical(ops), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
