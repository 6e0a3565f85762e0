"""The cross-route verification harness itself."""

from __future__ import annotations

import pytest

import pillowcount.covers as covers_mod
import pillowcount.verify as verify_mod
from pillowcount.polynomials import Polynomial
from pillowcount.verify import run_verification


def test_all_checks_pass():
    results = run_verification(k_max=1, mn_max=4, cover_n_max=3)
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
            return poly + Polynomial({(2, 0): 1})
        return poly

    monkeypatch.setattr(verify_mod, "f_closed", tampered)
    results = run_verification(k_max=1, mn_max=4, cover_n_max=0)
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("(2,2)" in r.name for r in failed)
    first = failed[0]
    assert first.lhs != first.rhs


def test_cover_check_reports_failure_details(monkeypatch):
    from fractions import Fraction

    monkeypatch.setattr(covers_mod, "naive_enumerate", lambda classes: (Fraction(7), Fraction(7)))
    results = run_verification(k_max=1, mn_max=2, cover_n_max=1)
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
    results = run_verification(k_max=1, mn_max=0, cover_n_max=0)
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
    results = run_verification(k_max=0, mn_max=0, cover_n_max=5)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["cover counts character sum = direct enumeration, degree 3"]
    assert failed[0].lhs == "(3, 1, 5): 13, (3, 2, 6): 1"
    assert failed[0].rhs == "(3, 1, 5): 12, (3, 2, 6): 2"


def test_cover_check_reads_the_shipped_four_way_sums(monkeypatch):
    """verify's per-profile check and its connected counts read one stream
    of _multiset_values, the sums that the cover counts are built from: one
    degree-3 value moved fails that degree, naming the first profile of that
    multiset, and through the log the degree-5 cell it reaches."""
    from fractions import Fraction

    from pillowcount.covers import cover_profiles

    real = verify_mod._multiset_values
    moved = ((3,), (2, 1), (2, 1), (1, 1, 1))

    def shifted(max_degree, max_threes, max_ones):
        for n, values in real(max_degree, max_threes, max_ones):
            if n == 3:
                key = next(combo for combo in values if sorted(combo) == sorted(moved))
                values = {**values, key: values[key] + Fraction(1, 3)}
            yield n, values

    monkeypatch.setattr(verify_mod, "_multiset_values", shifted)
    results = run_verification(k_max=0, mn_max=0, cover_n_max=5)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [
        f"cover counts character sum = direct enumeration, degree {n}" for n in (3, 5)
    ]
    profile = next(p for p in cover_profiles(3, 2, 6) if sorted(p) == sorted(moved))
    assert failed[0].lhs == f"{profile}: 4/3"
    assert failed[0].rhs == f"{profile}: 1"
    assert (failed[1].lhs, failed[1].rhs) == ("(5, 1, 5): 106", "(5, 1, 5): 108")
