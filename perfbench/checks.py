"""Output checks and failure classification, run after the timed region.

``classify`` sorts every op into ok, a known seed defect (the op's
``meta["known"]`` tag, when the failure has that defect's signature), or an
unexpected failure.  ``check_workload`` adds the checks that need the whole
run: the catalog ids of ``verify-catalog`` and sympy's ``diop_DN`` on
``pell-solve``.  sympy, when installed, is imported here only, after the
worker has read its peak RSS.
"""

from __future__ import annotations

import re
import sys
from collections import Counter

# tag -> (exception type or None, text that must appear in the message or stderr)
KNOWN_DEFECTS = {
    # x^2 - D*y^2 = 7 refused for D in {421, 613, 661, 919, 991}: exit 2
    "scan-refusal": (None, "ceiling exceeds 10^12"),
    # |4*a*m| past int64 reaches numpy: traceback instead of an exit code
    "OverflowError": ("OverflowError", ""),
    # gen prints ints past CPython's 4300-digit str limit: traceback, exit 1
    "int-str-limit": ("ValueError", "Exceeds the limit"),
}

_REPORT = re.compile(r"^(\S+) \[(\d+)\.\.(\d+)\] (\w+)")
_PAIR = re.compile(r"^\((-?\d+),(-?\d+)\)$")


def _signature_matches(tag, outcome) -> bool:
    exc_type, text = KNOWN_DEFECTS[tag]
    if exc_type is None:
        return outcome["exc"] is None and outcome["code"] == 2 and text in outcome["err"]
    return outcome["exc"] is not None and outcome["exc"][0] == exc_type and text in outcome["exc"][1]


def classify(workload, op, outcome, bf) -> str | None:
    """``None`` when the op succeeded and its output checks out, else a tag.

    A tag is a ``KNOWN_DEFECTS`` key, or ``"unexpected: <detail>"``.
    """
    kind, call, meta = op
    known = meta["known"]
    if known is not None and _signature_matches(known, outcome):
        return known
    if outcome["exc"] is not None:
        return "unexpected: %s: %s" % outcome["exc"]
    if kind == "cli" and outcome["code"] != 0:
        return f"unexpected: exit {outcome['code']}: {outcome['err'].strip()[:200]}"
    problem = CHECKS[workload](op, outcome, bf)
    return None if problem is None else f"unexpected: {problem}"


def _check_verify(op, outcome, bf):
    ident, upto = op[2]["id"], op[2]["upto"]
    lines = outcome["out"].splitlines()
    group = ident in ("teo1", "teo3")
    if len(lines) != (2 if group else 1):
        return f"{ident}: {len(lines)} report lines"
    for line in lines:
        match = _REPORT.match(line)
        if match is None:
            return f"{ident}: unparsable report {line[:80]!r}"
        rid, _lo, hi, status = match.groups()
        if status != "pass":
            return f"{ident}: {line[:200]}"
        if group and not (rid.startswith(ident + ".") and int(hi) == 50):
            return f"{ident}: report {rid} [..{hi}]"
        if not group and not (rid == ident and int(hi) == upto):
            return f"{ident}: report {rid} [..{hi}]"
    return None


def _check_pell(op, outcome, bf):
    meta = op[2]
    a, b, c = meta["form"]
    m = meta["m"]
    pairs = []
    for line in outcome["out"].splitlines():
        match = _PAIR.match(line)
        if match is None:
            return f"unparsable solution {line[:80]!r}"
        pairs.append((int(match[1]), int(match[2])))
    for x, y in pairs:
        if a * x * x + b * x * y + c * y * y != m:
            return f"({x},{y}) does not solve F = {m}"
    keys = [(abs(x), x, y) for x, y in pairs]
    if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
        return "solutions not strictly ordered by (|x|, x, y)"
    if meta["xbound"] is not None:
        form = bf.QuadraticForm(a, b, c)
        if set(pairs) != bf.brute_force_solutions(form, m, meta["xbound"]):
            return "xbound set differs from brute_force_solutions"
        return None
    # a > 0 > c: a solvable equation has infinitely many positive solutions
    if len(pairs) != meta["count"]:
        return f"{len(pairs)} solutions for --count {meta['count']}"
    if any(x <= 0 or y <= 0 for x, y in pairs):
        return "non-positive solution without --all"
    seed = meta["seed_solution"]
    if seed is not None and seed[0] < pairs[-1][0] and tuple(seed) not in pairs:
        return f"seed solution {tuple(seed)} missing"
    return None


def _check_terms(op, outcome, bf):
    kind, call, meta = op
    value = outcome["value"]
    if kind == "cli":
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            ok = outcome["out"] == f"{meta['value']}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        return None if ok else f"gen {call[1]} {call[2]}: wrong value"
    fname = call[0]
    if fname in ("term", "term_binet"):
        return None if value == meta["value"] else f"{fname}({call[1]}, {call[2]}): wrong value"
    if fname == "is_member":
        expected = (True, meta["witness"]) if meta["member"] else (False, None)
        return None if tuple(value) == expected else f"is_member({call[1]}): wrong answer"
    if fname == "balancer":
        defect = bf.definitional_check(meta["family"], call[2], value)
        return None if defect == meta["defect"] else f"balancer({call[1]}): defect {defect}"
    return f"unknown op {fname}"


CHECKS = {
    "verify-catalog": _check_verify,
    "pell-solve": _check_pell,
    "terms-deep": _check_terms,
}


def check_workload(workload, ops, outcomes, bf, oracle: bool) -> list[str]:
    """Checks over the whole run; returns the problems found.

    ``oracle`` adds the sympy cross-check of ``pell-solve``, which takes
    seconds.
    """
    if workload == "verify-catalog":
        ids = [match[1] for o in outcomes for line in o["out"].splitlines()
               if (match := _REPORT.match(line))]
        groups = Counter(i.split(".", 1)[0] for i in ids)
        if len(set(ids)) != len(ids) or groups != Counter(bf.CATALOG_COUNTS):
            return [f"report ids differ from the catalog: {dict(groups)}"]
    if workload == "pell-solve" and oracle:
        return _check_pell_sympy(ops, outcomes)
    return []


def _check_pell_sympy(ops, outcomes) -> list[str]:
    """Solvability of x^2 - D*y^2 = N against sympy's ``diop_DN``."""
    try:
        from sympy.solvers.diophantine.diophantine import diop_DN
    except ImportError:
        return []
    problems = []
    for op, outcome in zip(ops, outcomes):
        meta = op[2]
        a, b, c = meta["form"]
        if (a, b) != (1, 0) or outcome["tag"] is not None:
            continue
        solvable = bool(diop_DN(-c, meta["m"]))
        if solvable != bool(outcome["out"]):
            problems.append(f"x^2-{-c}y^2={meta['m']}: solvability differs from diop_DN")
    return problems
