"""The cross-route verification harness itself."""

from __future__ import annotations

import pytest

import pillowcount.covers as covers_mod
import pillowcount.verify as verify_mod
from pillowcount.polynomials import Polynomial
from pillowcount.verify import run_verification


def test_all_checks_pass():
    results = run_verification(k_max=1, mn_max=4)
    assert results
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_check_result_is_a_frozen_value():
    r = verify_mod.CheckResult("name", False, "1", "2")
    assert repr(r) == "CheckResult(name='name', passed=False, lhs='1', rhs='2')"
    assert r == verify_mod.CheckResult("name", False, "1", "2") and hash(r) == hash(("name", False, "1", "2"))
    assert r != verify_mod.CheckResult("name", True, "", "")
    with pytest.raises(AttributeError):
        r.passed = True


def test_detects_corrupted_route(monkeypatch):
    """If one route silently changes, the harness must flag it."""
    real = verify_mod.f_closed

    def tampered(sig):
        poly = real(sig)
        if (sig.m, sig.n) == (2, 2):
            terms = dict(poly.items())
            terms[2, 0] = terms.get((2, 0), 0) + 1
            return Polynomial(terms)
        return poly

    monkeypatch.setattr(verify_mod, "f_closed", tampered)
    results = run_verification(k_max=1, mn_max=4)
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("(2,2)" in r.name for r in failed)
    first = failed[0]
    assert first.lhs != first.rhs


def test_cover_check_reports_failure_details(monkeypatch):
    monkeypatch.setattr(covers_mod, "naive_enumerate", lambda classes: (7, 7))
    results = run_verification(k_max=1, mn_max=2)
    cover = [r for r in results if "direct enumeration" in r.name]
    assert cover and not cover[0].passed
    assert "7" in cover[0].rhs


def test_detects_series_disagreeing_with_tree_sum(monkeypatch):
    real = verify_mod.volume_series

    def shifted(K):
        total, by_k = real(K)
        # move weight between cylinder counts, keeping the total
        by_k = {**by_k, 1: by_k[1] + 1, 2: by_k[2] - 1}
        return total, by_k

    monkeypatch.setattr(verify_mod, "volume_series", shifted)
    results = run_verification(k_max=1, mn_max=0)
    assert [r.name for r in results if not r.passed] == [
        "volume(1) series = tree sum, in total and per cylinder count"
    ]


def test_cover_check_compares_the_shipped_connected_counts(monkeypatch):
    """verify's connected-cover check reads connected_from_sums, the log
    behind the table that `covers count` prints: weight moved between two
    degree-3 cells fails that degree alone, and the failure names both
    cells."""
    real = verify_mod.connected_from_sums

    def shifted(k, sums):
        counts = real(k, sums)
        return {**counts, (3, 1, 5): counts[3, 1, 5] + 1, (3, 2, 6): counts[3, 2, 6] - 1}

    monkeypatch.setattr(verify_mod, "connected_from_sums", shifted)
    results = run_verification(k_max=0, mn_max=0)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["cover counts character sum = direct enumeration, degree 3"]
    assert failed[0].lhs == "(3, 1, 5): 13, (3, 2, 6): 1"
    assert failed[0].rhs == "(3, 1, 5): 12, (3, 2, 6): 2"


def test_cover_check_reads_the_shipped_four_way_sums(monkeypatch):
    """verify's per-multiset check and its connected counts read one stream
    of _multiset_values, the sums that the cover counts are built from: one
    degree-3 count moved by two tuples fails that degree, naming that
    multiset and the degree-3 cell it reaches through the log, and fails
    degree 5 at the cell it reaches there."""
    real = verify_mod._multiset_values
    moved = ((3,), (2, 1), (2, 1), (1, 1, 1))

    def shifted(max_degree, k):
        for n, values in real(max_degree, k):
            if n == 3:
                key = next(combo for combo in values if sorted(combo) == sorted(moved))
                values = {**values, key: values[key] + 2}
            yield n, values

    monkeypatch.setattr(verify_mod, "_multiset_values", shifted)
    results = run_verification(k_max=0, mn_max=0)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [
        f"cover counts character sum = direct enumeration, degree {n}" for n in (3, 5)
    ]
    key = ((2, 1), (2, 1), (1, 1, 1), (3,))
    assert sorted(key) == sorted(moved)
    assert failed[0].lhs == f"{key}: 8, (3, 1, 5): 16"
    assert failed[0].rhs == f"{key}: 6, (3, 1, 5): 12"
    assert (failed[1].lhs, failed[1].rhs) == ("(5, 1, 5): 106", "(5, 1, 5): 108")


def test_cover_check_is_independent_of_the_ordering_weights(monkeypatch):
    """The direct walk counts the orderings of each multiset itself: a
    multinomial that is wrong for a repeated class, as if the four classes
    were always distinct, changes the character route's connected counts
    and fails a cover degree."""
    import math

    monkeypatch.setattr(covers_mod, "multinomial", lambda n, parts: math.factorial(n))
    results = run_verification(k_max=0, mn_max=0)
    failed = [r.name for r in results if not r.passed]
    assert "cover counts character sum = direct enumeration, degree 1" in failed


def test_default_cover_checks_walk_each_multiset_once(monkeypatch):
    """The default sweep calls naive_enumerate once for each of the 38
    multisets of corner classes with degree at most 5, at most 2
    three-cycles and at most 6 fixed points."""
    calls = []
    real = covers_mod.naive_enumerate
    monkeypatch.setattr(covers_mod, "naive_enumerate", lambda classes: calls.append(classes) or real(classes))
    results = run_verification()
    assert len(results) == 37 and all(r.passed for r in results)
    assert len(calls) == len({tuple(sorted(classes)) for classes in calls}) == 38


def test_oversized_bounds_are_refused_before_any_work(monkeypatch):
    """run_verification refuses a k_max past the per-tree limit, or an mn_max
    past the local-term limit, before it builds any polynomial."""

    def refuse(*args):
        raise AssertionError("work started before the bounds were refused")

    monkeypatch.setattr(verify_mod, "f_closed", refuse)
    with pytest.raises(ValueError, match=r"^--K-max 12: the per-tree route handles K <= 11"):
        run_verification(k_max=12)
    with pytest.raises(ValueError, match=r"^--mn-max 22: F_\{21,1\} has 352716 terms"):
        run_verification(mn_max=22)
