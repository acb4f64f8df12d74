import gc
import json
import math
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from balance_forge import sequences, verifier
from balance_forge.sequences import KIND_BY_NAME, BalancerKind, SequenceKind, balancer, term
from balance_forge.verifier import (
    CATALOG,
    CATALOG_COUNTS,
    GROUPS,
    INTERLOCK,
    PELL_EQUATIONS,
    SequenceValues,
    VerificationReport,
    reports_to_jsonl,
    verify,
    verify_all,
    verify_group,
    verify_solution_sets,
)

K = SequenceKind


def test_catalog_is_complete_and_audited():
    by_group = {}
    for check in CATALOG:
        by_group[check.group] = by_group.get(check.group, 0) + 1
    by_group["interlock"] = len(INTERLOCK)
    by_group["teo1"] = by_group["teo3"] = 2
    assert by_group == CATALOG_COUNTS
    assert len({c.id for c in CATALOG}) == len(CATALOG)


@pytest.mark.parametrize("group", [g for g in GROUPS if g not in ("teo1", "teo3")])
def test_groups_pass_to_100(group):
    reports = verify_group(group, 100)
    assert reports and all(r.passed for r in reports)


def test_single_identity_reports():
    assert verify("teo2.Bstar", 100).passed
    assert verify("teo7.Bstarstar_odd", 100).passed
    assert verify("sec4.Un", 50).passed


def test_spot_values():
    # teo7 odd second-type branch at its first index
    assert term(K.Bstarstar, 3) == (3 * term(K.P, 2) + 2 * term(K.P, 1)) // 2 == 4
    # first cobalancing solution class at n=1 equals the first-type member
    assert (3 * term(K.B, 1) + term(K.B, 0) - 1) // 2 == term(K.bstar, 1) == 1


def test_unknown_identity():
    with pytest.raises(ValueError, match="no such identity"):
        verify("nosuch", 5)
    with pytest.raises(ValueError, match="no such identity"):
        verify_group("teo99", 5)
    with pytest.raises(ValueError, match="no such identity"):
        verify_solution_sets("8x^2-y^2=9", 5)
    # the id is looked up before the range is checked
    with pytest.raises(ValueError, match="no such identity"):
        verify("nosuch", 0)
    with pytest.raises(ValueError, match="no such identity"):
        verify_group("nosuch", 0)
    with pytest.raises(ValueError, match="no such identity"):
        verify_group("teo99", 5, pell_count=0)


def test_verify_argument_validation():
    with pytest.raises(ValueError, match="arguments positive"):
        verify_all(0, 1)
    with pytest.raises(ValueError, match="arguments positive"):
        verify_all(10, 0)
    with pytest.raises(ValueError, match="arguments positive"):
        verify("teo2.Bstar", 0)
    with pytest.raises(ValueError, match="arguments positive"):
        verify_group("teo2", 0)
    with pytest.raises(ValueError, match="arguments positive"):
        verify_solution_sets("8x^2-y^2=-9", 0)


def test_verify_all_minimal_range():
    reports = verify_all(1, 1)
    assert reports and all(r.passed for r in reports)


def test_verify_all_full():
    reports = verify_all(100, 10)
    assert len(reports) == sum(CATALOG_COUNTS.values())
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("equation", sorted(PELL_EQUATIONS))
def test_solution_sets_pass(equation):
    assert verify_solution_sets(equation, 10).passed


def test_solution_set_first_values():
    # leading positive solutions of the two x^2-coefficient-2 claims
    from balance_forge.pellsolver import QuadraticForm, solutions

    first = [s.pair() for s in solutions(QuadraticForm(2, 0, -1), 9, count=1, positive=True)]
    assert first == [(3, 3)]
    first = [s.pair() for s in solutions(QuadraticForm(8, 0, -1), 7, count=2, positive=True)]
    assert first == [(1, 1), (2, 5)]


def test_interlock_pairings_recorded():
    # at n = 1 alone the two lower-case ids hold under two pairings each
    first, second = "almost_balancer(first, n+0)", "almost_balancer(second, n+2)"
    for n_max in (1, 2, 60):
        both = f"{first}, {second}" if n_max == 1 else None
        notes = {r.id: r.note for r in verify_group("interlock", n_max)}
        assert notes == {
            "interlock.Bstar": "holds as almost_cobalancer(second, n+1)",
            "interlock.Bstarstar": "holds as almost_cobalancer(first, n+0)",
            "interlock.bstar": f"holds as {both or second}",
            "interlock.bstarstar": f"holds as {both or first}",
        }, n_max


def test_rejected_conversion_variant_fails():
    # the cataloged conversion is B(n) = (2b(n) + 1 + c(n)) / 2; the
    # single-b numerator variant already breaks at n=2
    b2, c2, B2 = term(K.b, 2), term(K.c, 2), term(K.B, 2)
    assert (2 * b2 + 1 + c2) // 2 == B2
    assert (b2 + 1 + c2) // 2 != B2


def test_second_type_two_step_equivalence():
    for n in range(1, 101):
        assert term(K.B, n - 1) + term(K.C, n - 1) == term(K.B, n) - 2 * term(K.B, n - 1)


def test_failing_report_carries_counterexample():
    # +2 keeps the halving exact, so the failure is a value mismatch
    bad = SequenceValues(overrides={(K.P, 14): 2})
    report = verify("pellk.B", 10, values=bad)
    assert not report.passed
    assert report.counterexample["n"] == 7
    assert report.counterexample["lhs"] == term(K.B, 7)
    assert report.counterexample["rhs"] == term(K.B, 7) + 1
    # the jsonl line carries it; no passing report runs that branch of to_dict
    assert reports_to_jsonl([report]) == (
        '{"counterexample":{"lhs":40391,"n":7,"rhs":40392,"route":"recurrence"},'
        '"id":"pellk.B","range":[1,10],"status":"fail"}')


def test_unknown_route():
    with pytest.raises(ValueError, match="unknown route"):
        SequenceValues("bogus")


@pytest.mark.parametrize("route", ["recurrence", "binet"])
def test_accessors_match_term(route):
    S = SequenceValues(route)
    for name, kind in KIND_BY_NAME.items():
        accessor = getattr(S, name)
        for n in range(61):
            assert accessor(n) == S.value(kind, n) == term(kind, n), (name, n)


@pytest.mark.parametrize("route", ["recurrence", "binet"])
def test_accessors_reject_negative_index(route):
    S = SequenceValues(route)
    S.B(10)  # a grown column must not answer a negative index from its end
    for name in KIND_BY_NAME:
        for n in (-1, -2):
            with pytest.raises(ValueError, match="undefined index"):
                getattr(S, name)(n)


@pytest.mark.parametrize("route", ["recurrence", "binet"])
def test_values_free_their_columns(route):
    gc.disable()
    try:
        S = SequenceValues(route, overrides={(K.cstar, 4): 1})
        for name in KIND_BY_NAME:
            getattr(S, name)(50)
        ref = weakref.ref(S)
        del S
        assert ref() is None
    finally:
        gc.enable()


def test_binet_route_does_not_read_the_recurrences(monkeypatch):
    expected = {kind: [term(kind, n) for n in range(40)] for kind in SequenceKind}
    for kind, (_, s1, s2, add) in sequences._RECURRENCES.items():
        monkeypatch.setitem(sequences._RECURRENCES, kind, ((7, 7), s1, s2, add + 1))
    S = SequenceValues("binet")
    for kind in SequenceKind:
        assert [S.value(kind, n) for n in range(40)] == expected[kind], kind


def test_verify_all_builds_each_route_once(monkeypatch):
    built = []

    class Counted(SequenceValues):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.route)

    monkeypatch.setattr(verifier, "SequenceValues", Counted)
    assert all(r.passed for r in verify_all(20, 5))
    # the closed-form route is a stream per column, never a second instance
    assert built == ["recurrence"]


@pytest.mark.parametrize("index", [0, 1, 9])
def test_override_applies_on_binet_route(index):
    S = SequenceValues("binet", overrides={(K.C, index): 5})
    assert S.C(index) == S.value(K.C, index) == term(K.C, index) + 5
    assert S.C(index + 1) == term(K.C, index + 1)


@pytest.mark.parametrize("group, fault", [("teo1", (K.B, 2)), ("teo3", (K.C, 2))])
def test_solution_set_groups_use_values(group, fault):
    bad = SequenceValues(overrides={fault: 1})
    assert all(r.passed for r in verify_group(group, 5))
    assert not all(r.passed for r in verify_group(group, 5, values=bad))


def test_inexact_division_is_a_counterexample():
    bad = SequenceValues(overrides={(K.Bstar, 5): 1})
    report = verify("teo5.B_first", 10, values=bad)
    assert not report.passed
    assert report.counterexample["n"] == 5
    assert "reason" in report.counterexample


FAULT_KINDS = list(SequenceKind)


@pytest.mark.parametrize("kind", FAULT_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("index", [1, 2, 7])
def test_fault_sensitivity(kind, index):
    """An off-by-one in any single term trips at least one identity.

    Index 0 is excluded: the four index-0 conventions no identity touches
    are pinned directly by the base-value tests instead.
    """
    bad = SequenceValues(overrides={(kind, index): 1})
    reports = [verify(c.id, 12, values=bad) for c in CATALOG]
    reports += verify_group("interlock", 12, values=bad)
    assert any(not r.passed for r in reports), kind


def test_jsonl_round_trip():
    reports = verify_group("teo5", 20) + verify_group("interlock", 20)
    text = reports_to_jsonl(reports)
    for line in text.splitlines():
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line
        assert set(obj) >= {"id", "range", "status"}


def test_report_dict_shape():
    report = verify("pellk.B", 5)
    assert report.to_dict() == {"id": "pellk.B", "range": [1, 5], "status": "pass"}
    # a report is an immutable record; counterexample and note default to None
    assert report == VerificationReport(id="pellk.B", lo=1, hi=5, status="pass")
    assert report != ("pellk.B", 1, 5, "pass", None, None)
    assert hash(report) == hash(VerificationReport("pellk.B", 1, 5, "pass", None, None))
    assert repr(report) == ("VerificationReport(id='pellk.B', lo=1, hi=5, status='pass', "
                            "counterexample=None, note=None)")
    with pytest.raises(AttributeError):
        report.status = "fail"


@pytest.fixture
def built(monkeypatch):
    """The ``SequenceValues`` instances the verifier builds during a test."""
    instances = []

    class Captured(SequenceValues):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instances.append(self)

    monkeypatch.setattr(verifier, "SequenceValues", Captured)
    return instances


@pytest.fixture
def faulty_binet_B(monkeypatch):
    """The closed-form route reads B one too high from index 5 on."""
    stride, offset, read = sequences._CLOSED_FORMS[K.B]
    at = term(K.B, 5)
    monkeypatch.setitem(sequences._CLOSED_FORMS, K.B,
                        (stride, offset, lambda p, q: read(p, q) + (read(p, q) >= at)))


def test_faulty_closed_form_fails_on_binet_route(faulty_binet_B):
    report = verify("pellk.B", 20)
    assert not report.passed
    assert report.counterexample == {
        "n": 5, "reason": "B(5) differs between routes", "route": "binet"}


def test_route_difference_fails_solution_sets_and_candidates(faulty_binet_B):
    # both read the checked columns; a candidate does not read the difference
    # as a failed pairing
    differs = {"n": 5, "reason": "B(5) differs between routes", "route": "binet"}
    reports = verify_group("teo1", 20, 5)
    assert [r.counterexample for r in reports] == [differs, differs]
    report = verify("interlock.Bstar", 20)
    assert report.status == "fail" and report.counterexample == differs


def test_faulty_recurrence_row_fails_on_binet_route(monkeypatch):
    (v0, v1), s1, s2, add = sequences._RECURRENCES[K.P]
    monkeypatch.setitem(sequences._RECURRENCES, K.P, ((v0, v1), s1, s2, add + 1))
    report = verify("pellk.B", 20)
    assert not report.passed
    assert report.counterexample == {
        "n": 2, "reason": "P(2) differs between routes", "route": "binet"}


def test_route_difference_fails_every_check_that_reads_it(faulty_binet_B):
    # the differing entry fails each check reading B, not the others
    passed = {r.id: r.passed for r in verify_group("pellk", 20) + verify_group("teo2", 20)}
    assert passed == {
        "pellk.B": False, "pellk.b": True, "pellk.C": True, "pellk.c": True,
        "teo2.Bstar": False, "teo2.Cstar": True, "teo2.Bstarstar": False,
        "teo2.Cstarstar": False,
    }
    assert not all(r.passed for r in verify_all(20, 5))


def test_given_values_are_the_only_route(faulty_binet_B, monkeypatch):
    recurrence, binet = SequenceValues("recurrence"), SequenceValues("binet")
    bad = SequenceValues(overrides={(K.P, 14): 2})
    built = []
    monkeypatch.setattr(verifier, "SequenceValues", lambda *a, **k: built.append(a))
    # no second route is built or compared: the faulty binet route goes unseen
    assert verify("pellk.B", 20, values=recurrence).passed
    # evaluated on the faulty instance itself, the identity fails by value
    report = verify("pellk.B", 20, values=binet)
    assert report.counterexample == {
        "n": 5, "lhs": term(K.B, 5) + 1, "rhs": term(K.B, 5), "route": "binet"}
    # overrides are honoured on the given instance
    assert verify("pellk.B", 10, values=bad).counterexample["n"] == 7
    assert built == []


# the largest index each check reads of each core kind at n = 200
LARGEST_READS = {
    "pellk.B": {K.B: 200, K.P: 400},
    "teo2.Bstarstar": {K.B: 200, K.C: 200},
    "teo4.cstar_even": {K.c: 202},
    "teo7.bstar_odd": {K.b: 200, K.P: 398},
}


@pytest.fixture
def closed_form_reads(monkeypatch):
    """Core kind -> the entries the verifier takes of its closed-form stream."""
    reads = dict.fromkeys(sequences.CORE_KINDS, 0)

    def counted(kind):
        for value in sequences.closed_form_terms(kind):
            reads[kind] += 1
            yield value

    monkeypatch.setattr(verifier, "closed_form_terms", counted)
    return reads


def _recorded(monkeypatch, check):
    """What ``verify`` calls ``check.fn`` with: an int, or ``(a, b, lo, hi)`` of a block."""
    calls = []

    def recorded_fn(S, n):
        block = isinstance(n, verifier._Idx)
        calls.append((n.a, n.b, n.lo, n.hi) if block else n)
        return check.fn(S, n)

    monkeypatch.setitem(verifier._CHECK_BY_ID, check.id, check._replace(fn=recorded_fn))
    return calls


def _blocks(start, n_max):
    size = verifier._BLOCK
    return [(1, 0, lo, min(lo + size - 1, n_max)) for lo in range(start, n_max + 1, size)]


@pytest.mark.parametrize("id", sorted(LARGEST_READS))
def test_each_identity_is_evaluated_once(monkeypatch, built, closed_form_reads, id):
    # one probe at the top of the range, then one call per block of indices
    check = verifier._CHECK_BY_ID[id]
    calls = _recorded(monkeypatch, check)
    assert verify(id, 200).passed
    assert calls == [200, *_blocks(check.start, 200)]
    assert [S.route for S in built] == ["recurrence"]
    expected = {kind: LARGEST_READS[id].get(kind, -1) + 1 for kind in sequences.CORE_KINDS}
    assert {kind: len(column) for kind, column in built[0]._columns.items()} == expected
    # each column is compared entry by entry as it fills, and no further
    assert closed_form_reads == expected


def test_verify_all_reads_each_closed_form_as_far_as_its_column(built, closed_form_reads):
    assert all(r.passed for r in verify_all(300, 20))
    [S] = built
    assert closed_form_reads == {kind: len(column) for kind, column in S._columns.items()}
    assert all(closed_form_reads.values())


def test_verify_frees_its_columns(built):
    # nothing a check builds may hold the columns in a reference cycle
    gc.disable()
    try:
        assert verify("teo2.Bstarstar", 50).passed
        refs = [weakref.ref(column) for S in built for column in S._columns.values()]
        built.clear()
        assert len(refs) == 5 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_routes_agree_deep():
    recurrence, binet = SequenceValues("recurrence"), SequenceValues("binet")
    for kind in SequenceKind:
        assert [recurrence.value(kind, n) for n in range(3001)] == [
            binet.value(kind, n) for n in range(3001)], kind


@pytest.mark.parametrize("id", [cand.id for cand in INTERLOCK] + ["teo1", "teo3"])
def test_interlock_fills_each_column_at_once(monkeypatch, id):
    # one evaluation at the top of the range fills the columns before the
    # ascending scan, which then only reads them; so do the solution sets
    # of teo1 and teo3, at the top of their count
    fills = []
    fill = verifier._Column.fill
    monkeypatch.setattr(verifier._Column, "fill",
                        lambda column, n: fills.append(n) or fill(column, n))
    reports = verify_group(id, 1000, 50) if id in GROUPS else [verify(id, 1000)]
    assert all(report.passed for report in reports)
    assert len(fills) <= 10


def _xsqrt_outcome(x, hint=-1):  # a negative hint is none
    try:
        return verifier._xsqrt(x, hint)
    except verifier._Inexact as exc:
        return str(exc)


@pytest.mark.parametrize("x", [0, 1, 2, 15, 16, 17, -4, -16, 99**2, 99**2 - 1,
                               term(K.C, 700) ** 2, term(K.C, 700) ** 2 + 1],
                         ids=lambda x: str(x) if x.bit_length() < 32 else f"{x.bit_length()}bit")
def test_xsqrt_ignores_a_hint_that_is_not_the_root(x):
    # a wrong, negative or off-by-one hint gives the root or the message of
    # the exact test, as no hint does
    root = math.isqrt(max(x, 0))
    for hint in (-1, -root, root - 1, root + 1, 2 * root + 3, 0):
        assert _xsqrt_outcome(x, hint) == _xsqrt_outcome(x), hint
    assert _xsqrt_outcome(x, root) == _xsqrt_outcome(x)


@pytest.mark.parametrize("id, witness", [
    ("baa12.b", K.C), ("baa12.B", K.c),
    ("interlock.Bstar", K.cstar), ("interlock.Bstar", K.cstarstar),
    ("interlock.bstar", K.Cstar), ("interlock.bstar", K.Cstarstar),
])
@pytest.mark.parametrize("fault", ["plus_one", "negated"])
def test_faulty_witness_column_leaves_the_report(id, witness, fault):
    # a witness read that does not square to the radicand falls back to the
    # exact root, so a fault there changes nothing the report states
    n_max = 30
    overrides = {(witness, n): 1 if fault == "plus_one" else -2 * term(witness, n)
                 for n in range(n_max + 3)}
    report = verify(id, n_max, values=SequenceValues(overrides=overrides))
    assert report == verify(id, n_max) and report.passed


@pytest.mark.parametrize("id, fault, counterexample", [
    ("baa12.b", (K.B, 6, 1),
     {"n": 6, "reason": "384310089 is not a perfect square", "route": "recurrence"}),
    ("baa12.B", (K.b, 6, 1),
     {"n": 6, "reason": "65964097 is not a perfect square", "route": "recurrence"}),
    ("interlock.Bstarstar", (K.bstar, 5, 2),
     {"n": 5, "lhs": 23, "rhs": None, "candidate": "almost_cobalancer(first, n+0)"}),
    ("interlock.bstarstar", (K.Bstar, 4, 3),
     {"n": 4, "lhs": 253, "rhs": None, "candidate": "almost_balancer(first, n+0)"}),
    # -x - s has the radicand of x, so the witness read squares to it; a
    # negative value is still no member
    ("interlock.bstarstar", (K.Bstar, 4, -2 * term(K.Bstar, 4)),
     {"n": 4, "lhs": 253, "rhs": None, "candidate": "almost_balancer(first, n+0)"}),
    ("interlock.Bstarstar", (K.bstar, 5, -2 * term(K.bstar, 5) - 1),
     {"n": 5, "lhs": 23, "rhs": None, "candidate": "almost_cobalancer(first, n+0)"}),
])
def test_faulty_member_fails_as_the_exact_root_does(id, fault, counterexample):
    # the same n and counterexample as when every root is found exactly
    kind, n, delta = fault
    report = verify(id, 12, values=SequenceValues(overrides={(kind, n): delta}))
    assert report.status == "fail" and report.counterexample == counterexample


def test_radicals_read_the_witness_column(monkeypatch):
    # every root of baa12 and interlock is a witness read, confirmed by one
    # squaring; the exact square test never runs
    calls = []
    monkeypatch.setattr(verifier, "is_perfect_square", lambda *args: calls.append(args))
    assert all(r.passed for r in verify_group("baa12", 300) + verify_group("interlock", 300))
    assert calls == []


# pairing label -> (member kind, its balancer kind, s of its radicand 8x^2 + 8sx + t,
# offset of the member read)
_PAIRINGS = {
    f"almost_{name}({label}, n+{o})": (kind, balancer_kind, s, o)
    for name, s, kinds in (
        ("balancer", 0, ((K.Bstar, BalancerKind.Rstar), (K.Bstarstar, BalancerKind.Rstarstar))),
        ("cobalancer", 1, ((K.bstar, BalancerKind.rstar), (K.bstarstar, BalancerKind.rstarstar))))
    for label, (kind, balancer_kind) in zip(("first", "second"), kinds)
    for o in (0, 1, 2)
}


def _refused(fn, *args, refusal):
    try:
        return fn(*args)
    except refusal:
        return "refused"


def test_interlock_offers_every_pairing():
    assert {label for cand in INTERLOCK for label, _ in cand.candidates} == set(_PAIRINGS)


@pytest.mark.parametrize("label", list(_PAIRINGS))
def test_pairing_agrees_with_balancer(label):
    # a pairing reads its member at n + offset and gives what public balancer
    # gives for that value, also for a faulty one, or both refuse it; -x - s
    # has the radicand of x, so the witness read squares to it
    kind, balancer_kind, s, o = _PAIRINGS[label]
    rhs = next(fn for cand in INTERLOCK for name, fn in cand.candidates if name == label)
    exact = SequenceValues()
    for k in range(1, 41):
        x = term(kind, k + o)
        assert rhs(exact, k) == balancer(balancer_kind, x), k
        for delta in (1, -x, -2 * x - s):
            faulty = SequenceValues(overrides={(kind, k + o): delta})
            got = _refused(rhs, faulty, k, refusal=verifier._Inexact)
            assert got == _refused(balancer, balancer_kind, x + delta, refusal=ValueError), (
                k, delta)


def _per_index(check, n_max, S):
    """The report of the plain loop: ``check.fn(S, n)`` at each ``n``, in order."""
    for n in range(check.start, n_max + 1):
        try:
            lhs, rhs = check.fn(S, n)
        except verifier._Inexact as exc:
            counterexample = {"n": n, "reason": str(exc), "route": S.route}
            break
        if lhs != rhs:
            counterexample = {"n": n, "lhs": _listed(lhs), "rhs": _listed(rhs), "route": S.route}
            break
    else:
        return VerificationReport(check.id, check.start, n_max, "pass")
    return VerificationReport(check.id, check.start, n_max, "fail", counterexample)


def _listed(value):
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("n_max", [1, 2, 1023, 1024, 1025, 2100])
def test_blocks_report_as_the_per_index_loop(n_max):
    reference = SequenceValues()
    for check in CATALOG:
        assert verify(check.id, n_max) == _per_index(check, n_max, reference), check.id


# a fault near the start, at the last and the first index of a block, and
# inside a later block, in core, derived and interleaved kinds
@pytest.mark.parametrize("index", [3, 1024, 1025, 1500])
@pytest.mark.parametrize("kind", [K.B, K.P, K.Bstarstar, K.bstar, K.cstarstar],
                         ids=lambda k: k.value)
def test_faulted_blocks_report_as_the_per_index_loop(kind, index):
    bad = SequenceValues(overrides={(kind, index): 1})
    reports = [verify(check.id, 1600, values=bad) for check in CATALOG]
    assert reports == [_per_index(check, 1600, bad) for check in CATALOG]
    assert not all(report.passed for report in reports)


def test_every_identity_holds_by_blocks_alone(monkeypatch):
    # on correct columns no catalog identity falls back to the per-index loop
    for check in CATALOG:
        calls = _recorded(monkeypatch, check)
        assert verify(check.id, 2100).passed
        assert calls == [2100, *_blocks(check.start, 2100)], check.id


def test_an_undecided_block_falls_back_to_the_per_index_loop(monkeypatch):
    # Bss read at a stride of 1 mixes both parities in a block; its
    # recurrence holds, index by index, from the first block on
    check = verifier.IdentityCheck(
        "synthetic.Bss", 1, lambda S, n: (S.Bss(n + 4), 6 * S.Bss(n + 2) - S.Bss(n)))
    monkeypatch.setitem(verifier._CHECK_BY_ID, check.id, check)
    calls = _recorded(monkeypatch, check)
    assert verify(check.id, 700).passed
    assert calls == [700, _blocks(1, 700)[0], *range(1, 701)]


def _undecided(operation):
    with pytest.raises(verifier._Undecided):
        operation()


def test_index_operations_decided_or_undecided():
    Idx, Vec = verifier._Idx, verifier._Vec
    odd, every = Idx(2, -1, 1, 8), Idx(1, 0, 1, 8)
    assert odd % 2 == 1 and ((odd + 1) // 2 - 1).indices() == range(0, 8)
    assert (3 * every + 2).indices() == range(5, 27, 3)
    assert (every < 0, every < 1, bool(every)) == (False, False, True)
    for operation in (
        lambda: every % 2,  # mixed parity
        lambda: every // 2,
        lambda: every < 2,  # true at the least index only
        lambda: bool(every - 1),  # 0 at the least index
        lambda: every * -1,
        lambda: every * 0,
        lambda: hash(every),
        lambda: every == every,
        lambda: [0][every],  # __index__
        lambda: {}.get(every, 0),
        lambda: bool(Vec([1, 1])),
        lambda: hash(Vec([1])),
        lambda: Vec([1, 2]) < 3,
        lambda: verifier._xdiv(Vec([4, 6, 7]), 2),  # not exact at one index
        lambda: verifier._xsqrt(Vec([4, 9]), Vec([2, -3])),  # a negative hint
        lambda: verifier._xsqrt(Vec([4, 10]), Vec([2, 3])),  # not a square
        lambda: SequenceValues().B(every - 2),  # a negative index
        lambda: SequenceValues().B(every),  # an entry the column does not hold
    ):
        _undecided(operation)


def test_vector_arithmetic_is_element_by_element():
    Vec = verifier._Vec
    u, w = Vec([1, -2, 3]), Vec([4, 5, 6])
    assert (u + w).v == [5, 3, 9] and (u - w).v == [-3, -7, -3] and (u * w).v == [4, -10, 18]
    assert (2 - u).v == [1, 4, -1] and (-u).v == [-1, 2, -3] and (u ** 2).v == [1, 4, 9]
    assert (3 * u + 1).v == [4, -5, 10] and (u ** w).v == [1, -32, 729]
    assert u == Vec([1, -2, 3]) and u != w and u != 1
    assert verifier._xdiv(Vec([4, -6]), 2).v == [2, -3]
    hint = Vec([2, 3])
    assert verifier._xsqrt(Vec([4, 9]), hint) is hint


@pytest.mark.parametrize("name", list(KIND_BY_NAME))
def test_an_empty_column_rejects_index_minus_one(name):
    # a miss must not fill towards a negative index
    with pytest.raises(ValueError, match="undefined index"):
        getattr(SequenceValues(), name)(-1)


def test_a_block_reads_held_entries_and_fills_nothing():
    Idx, S = verifier._Idx, SequenceValues()
    S.C(20)
    assert S.C(Idx(1, 0, 0, 20)).v == [S.C(n) for n in range(21)]
    for index in (Idx(1, 0, 0, 21), Idx(1, 0, 30, 40), Idx(1, -1, 0, 5), Idx(3, 0, 0, 7)):
        _undecided(lambda: S.C(index))
    assert len(S._columns[K.C]) == 21


@pytest.mark.parametrize("kind", sorted(sequences.CORE_KINDS, key=lambda k: k.value),
                         ids=lambda k: k.value)
def test_stride_two_blocks_read_what_each_index_reads(kind):
    S = SequenceValues()
    S.value(kind, 41)
    for parity in (0, 1):
        index = verifier._Idx(2, parity, 0, 20)
        assert getattr(S, kind.value)(index).v == [
            S.value(kind, n) for n in index.indices()], parity


def test_entries_below_a_route_difference_still_read(faulty_binet_B):
    S = verifier._checked(None)
    differs = {"n": 5, "reason": "B(5) differs between routes", "route": "binet"}
    for n in (12, 5, 6, 40, 5):  # the first read is the fill that meets the difference
        with pytest.raises(verifier._RoutesDiffer) as exc:
            S.B(n)
        assert exc.value.args[0] == differs, n
    assert [S.B(n) for n in range(5)] == [term(K.B, n) for n in range(5)]
    assert len(S._columns[K.B]) == 5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**70, 2**70).map(lambda x: 2 * x), min_size=1, max_size=12),
       st.integers(0, 11))
@example([0, -2, 6, -2**71], 1)
def test_vector_halving_agrees_with_divmod(evens, i):
    # exact halves are floored as divmod floors them, below zero too; one
    # odd element leaves the block undecided
    Vec, i = verifier._Vec, i % len(evens)
    assert verifier._xdiv(Vec(evens), 2).v == [verifier._xdiv(x, 2) for x in evens]
    _undecided(lambda: verifier._xdiv(Vec(evens[:i] + [evens[i] - 1] + evens[i + 1:]), 2))


def test_block_accessors_apply_each_fault_at_its_index():
    S = SequenceValues(overrides={(K.P, 5): 1, (K.Bstarstar, 6): -2, (K.cstarstar, 2): 4})
    for name in KIND_BY_NAME:
        getattr(S, name)(40)
    for name, index in (("P", verifier._Idx(1, 0, 1, 20)), ("Bss", verifier._Idx(2, 0, 1, 10)),
                        ("css", verifier._Idx(1, 0, 1, 20)), ("Cs", verifier._Idx(2, 1, 0, 9))):
        assert getattr(S, name)(index).v == [
            getattr(S, name)(i) for i in index.indices()], name


_INTERLEAVED_NAMES = ("Bss", "Css", "bs", "cs")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(KIND_BY_NAME)), st.sampled_from((1, 2)), st.integers(-3, 3),
       st.integers(0, 6), st.integers(0, 6),
       st.none() | st.tuples(st.sampled_from(list(KIND_BY_NAME)), st.integers(0, 30)))
@example("P", 1, 0, 1, 8, ("P", 3))  # a fault inside a core block
@example("cs", 2, -1, 1, 5, ("cs", 5))  # a fault inside an interleaved block
def test_a_block_reads_what_each_index_reads(name, a, b, lo, span, override):
    # one accessor per family: a block read of columns held past its reach is
    # the list of its index reads, or undecided, and decided wherever every
    # index is at least 1 and no parity is mixed
    overrides = {(KIND_BY_NAME[override[0]], override[1]): 5} if override else {}
    S, block = SequenceValues(overrides=overrides), verifier._Idx(a, b, lo, lo + span)
    top = a * (lo + span) + b
    for kind in sequences.CORE_KINDS:
        S.value(kind, top + 3)
    try:
        got = getattr(S, name)(block).v
    except verifier._Undecided:
        assert a * lo + b < 1 or a == 1 and name in _INTERLEAVED_NAMES
    else:
        assert got == [getattr(S, name)(i) for i in block.indices()]
