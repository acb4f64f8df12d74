import gc
import json
import weakref

import pytest

from balance_forge import sequences, verifier
from balance_forge.sequences import KIND_BY_NAME, SequenceKind, term
from balance_forge.verifier import (
    CATALOG,
    CATALOG_COUNTS,
    GROUPS,
    INTERLOCK,
    PELL_EQUATIONS,
    SequenceValues,
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


def test_verify_argument_validation():
    with pytest.raises(ValueError, match="arguments positive"):
        verify_all(0, 1)
    with pytest.raises(ValueError, match="arguments positive"):
        verify_all(10, 0)
    with pytest.raises(ValueError, match="arguments positive"):
        verify("teo2.Bstar", 0)


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
    notes = {r.id: r.note for r in verify_group("interlock", 60)}
    assert notes == {
        "interlock.Bstar": "holds as almost_cobalancer(second, n+1)",
        "interlock.Bstarstar": "holds as almost_cobalancer(first, n+0)",
        "interlock.bstar": "holds as almost_balancer(second, n+2)",
        "interlock.bstarstar": "holds as almost_balancer(first, n+0)",
    }


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
    assert built == ["recurrence", "binet"]


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
