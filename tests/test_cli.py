"""End-to-end CLI contract tests: goldens, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import pillowcount.covers as covers_mod
import pillowcount.ribbon as ribbon_mod
import pillowcount.series as series_mod
import pillowcount.trees as trees_mod
import pillowcount.verify as verify_mod
from pillowcount.cli import main
from pillowcount.layers import LayerSignature, check_local_size
from pillowcount.polynomials import Polynomial
from pillowcount.rationals import PiValue, Refused, multinomial, solve_exact, zeta_even

from oracles import valid_signatures


@pytest.fixture()
def runner():
    """Run `main(args)` in process; `.output` is its stdout followed by its stderr."""

    def invoke(cli, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as done:
            cli(args)
        stdout, stderr = out.getvalue(), err.getvalue()
        return SimpleNamespace(
            exit_code=done.value.code or 0,
            output=stdout + stderr,
            stdout=stdout,
            stdout_bytes=stdout.encode(),
            stderr=stderr,
        )

    return SimpleNamespace(invoke=invoke)


LOCAL_POLY_GOLDEN = (
    '[{"exponents":[2,0],"num":"2","den":"1"},'
    '{"exponents":[0,2],"num":"2","den":"1"}]\n'
)


def test_local_poly_json_golden(runner):
    result = runner.invoke(main, ["local-poly", "--m", "2", "--n", "2"])
    assert result.exit_code == 0
    assert result.output == LOCAL_POLY_GOLDEN
    # a constant keeps one exponent per variable
    result = runner.invoke(main, ["local-poly", "--m", "1", "--n", "1"])
    assert result.output == '[{"exponents":[0,0],"num":"1","den":"1"}]\n'


def test_local_poly_text_and_methods(runner):
    text = runner.invoke(main, ["local-poly", "--m", "2", "--n", "2", "--format", "text"])
    assert text.exit_code == 0
    assert text.output == "2*w1^2 + 2*w2^2\n"
    closed = runner.invoke(main, ["local-poly", "--m", "3", "--n", "3", "--method", "closed"])
    recurred = runner.invoke(
        main, ["local-poly", "--m", "3", "--n", "3", "--method", "recurrence"]
    )
    assert closed.output == recurred.output


# sha256 of the local-poly output of every valid signature with m + n <= 12,
# by m then n, in each format; both methods print these same bytes
LOCAL_POLY_SHA256 = {
    "json": "e4d2eb639cdf0e08b6ef6bc77ea87281a7a3f98f86124a08ed549bfc05934464",
    "text": "82e99c9a96096e0d3875edb7c7e118dcf3b0f6370f84ce843c6900e123239ca0",
}


@pytest.mark.parametrize("method", ["closed", "recurrence"])
@pytest.mark.parametrize("fmt", sorted(LOCAL_POLY_SHA256))
def test_local_poly_bytes_pinned(runner, fmt, method):
    outputs = []
    for m, n in valid_signatures(12):
        result = runner.invoke(
            main, ["local-poly", "--m", str(m), "--n", str(n), "--format", fmt, "--method", method]
        )
        assert result.exit_code == 0
        outputs.append(result.stdout_bytes)
    assert hashlib.sha256(b"".join(outputs)).hexdigest() == LOCAL_POLY_SHA256[fmt]


def test_local_poly_method_defaults_to_closed(runner):
    default = runner.invoke(main, ["local-poly", "--m", "3", "--n", "1"])
    closed = runner.invoke(main, ["local-poly", "--m", "3", "--n", "1", "--method", "closed"])
    assert default.exit_code == closed.exit_code == 0
    assert default.output == closed.output
    assert runner.invoke(main, ["local-poly", "--m", "3", "--n", "1", "--method", "auto"]).exit_code == 2


def test_local_poly_invalid_signature_is_usage_error(runner):
    result = runner.invoke(main, ["local-poly", "--m", "1", "--n", "2"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["local-poly", "--m", "0", "--n", "6"])
    assert result.exit_code == 2


def test_local_poly_refuses_oversized_signature(runner):
    for method in ("closed", "recurrence"):
        result = runner.invoke(main, ["local-poly", "--m", "40", "--n", "0", "--method", method])
        assert result.exit_code == 2
        assert "131282408400 terms" in result.output


def test_volume_text_golden(runner):
    result = runner.invoke(main, ["volume", "--K", "1", "--format", "text"])
    assert result.exit_code == 0
    assert result.output == "pi^4 * 1/1\n"


def test_volume_json(runner):
    result = runner.invoke(main, ["volume", "--K", "2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"K": 2, "pi_power": 6, "num": "1", "den": "2"}


def test_volume_per_tree_json(runner):
    result = runner.invoke(main, ["volume", "--K", "1", "--per-tree", "--format", "json"])
    payload = json.loads(result.output)
    assert len(payload["trees"]) == 2
    values = {(t["value"]["num"], t["value"]["den"]) for t in payload["trees"]}
    assert values == {("4", "9"), ("5", "9")}
    assert {t["c"]["num"] for t in payload["trees"]} == {"10", "15"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_volume_per_tree_keeps_no_contribution(runner, monkeypatch, fmt):
    """A tree's contribution is released once its row is out: when the next
    one is assembled, only the one before it may still be alive."""

    class Tracked(trees_mod.TreeContribution):
        __slots__ = ("__weakref__",)

    made = []
    real = trees_mod.tree_contribution

    def contribution(t, K):
        assert all(ref() is None for ref in made[:-1])
        c = Tracked(*real(t, K)._values())
        made.append(weakref.ref(c))
        return c

    monkeypatch.setattr(trees_mod, "tree_contribution", contribution)
    result = runner.invoke(main, ["volume", "--K", "3", "--per-tree", "--format", fmt])
    assert result.exit_code == 0
    assert len(made) == len(trees_mod.enumerate_decorated_trees(3)) > 2


def test_volume_latex_table_subtotals(runner):
    result = runner.invoke(main, ["volume", "--K", "2", "--format", "latex-table"])
    assert result.exit_code == 0
    out = result.output
    assert out.startswith("\\begin{array}{|c|c|c|c|}")
    for fragment in (
        "\\frac{4}{27}\\,\\pi^{6}",
        "\\frac{2}{9}\\,\\pi^{6}",
        "\\frac{7}{54}\\,\\pi^{6}",
        "\\frac{1}{2}\\,\\pi^{6}",
        "k=1 \\text{ cylinder}",
        "k=3 \\text{ cylinders}",
        "F_{2,2}(w_{1},w_{2})",
    ):
        assert fragment in out


def test_volume_latex_table_bytes_pinned(runner):
    # sha256 of the K=5 table, frozen before the per-tree assembly grouped
    # its terms by sorted exponents
    result = runner.invoke(main, ["volume", "--K", "5", "--per-tree", "--format", "latex-table"])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == "b05ab5a1ddc83b96951f62f51a9606f40a8b4ae6fc21df1a4698e995715ea05d"


def test_volume_latex_table_is_deterministic(runner):
    """The table carries no timestamp or other comment, so two runs print
    the same bytes."""
    first = runner.invoke(main, ["volume", "--K", "1", "--format", "latex-table"])
    again = runner.invoke(main, ["volume", "--K", "1", "--format", "latex-table"])
    assert first.exit_code == again.exit_code == 0
    assert first.stdout_bytes == again.stdout_bytes
    assert not any(line.startswith("%") for line in first.stdout.splitlines())


@pytest.mark.parametrize("args", [["--no-meta", "volume", "--K", "1"], ["verify", "--cover-N-max", "3"]])
def test_removed_options_are_unknown(runner, monkeypatch, args):
    monkeypatch.setattr(verify_mod, "run_verification", _refuse_work)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "unrecognized arguments" in result.stderr


def test_volume_rejects_bad_K(runner):
    assert runner.invoke(main, ["volume", "--K", "0"]).exit_code == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_volume_series_total_equals_per_tree_total(runner, k):
    series = runner.invoke(main, ["volume", "--K", str(k), "--format", "json"])
    per_tree = runner.invoke(main, ["volume", "--K", str(k), "--per-tree", "--format", "json"])
    assert series.exit_code == per_tree.exit_code == 0
    payload = json.loads(per_tree.output)
    del payload["trees"]
    assert json.loads(series.output) == payload


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the request was refused")


@pytest.mark.parametrize(
    "args",
    [["--per-tree"], ["--format", "latex-table"], ["--per-tree", "--format", "json"]],
)
def test_volume_refuses_per_tree_above_limit(runner, monkeypatch, args):
    monkeypatch.setattr(trees_mod, "_free_trees", _refuse_work)
    result = runner.invoke(main, ["volume", "--K", "12", *args])
    assert result.exit_code == 2
    assert "K <= 11" in result.output
    assert "about 39 s" in result.output


def test_volume_refuses_series_above_limit(runner, monkeypatch):
    monkeypatch.setattr(series_mod, "_tree_series", _refuse_work)
    result = runner.invoke(main, ["volume", "--K", "41"])
    assert result.exit_code == 2
    assert "K <= 40" in result.output
    assert "about 13 s" in result.output


def test_volume_series_has_no_per_tree_limit(runner, monkeypatch):
    monkeypatch.setattr(trees_mod, "enumerate_decorated_trees", _refuse_work)
    result = runner.invoke(main, ["volume", "--K", "20"])
    assert result.exit_code == 0
    assert result.output == "pi^42 * 1/524288\n"


def test_ribbon_enumerate(runner):
    result = runner.invoke(main, ["ribbon", "enumerate", "--m", "1", "--n", "1"])
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert [r["id"] for r in records] == ["1-1-0", "1-1-1"]
    assert all(r["darts"] == 4 for r in records)
    multisets = {tuple(sorted(r["labels"]["faces"])) for r in records}
    assert multisets == {(0, 0, 0, 1), (0, 1, 1, 1)}
    # the fully labelled listing is gone: fit and hat_F weight these classes
    removed = runner.invoke(main, ["ribbon", "enumerate", "--m", "2", "--n", "2", "--full-labels"])
    assert removed.exit_code == 2
    assert "unrecognized arguments: --full-labels" in removed.output


def test_ribbon_count(runner):
    result = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-1", "--widths", "3,4"]
    )
    assert result.exit_code == 0
    assert result.output == "1\n"
    zero = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-0", "--widths", "3,4"]
    )
    assert zero.output == "0\n"


# the ids m-n-i that `ribbon count` reads are the order `ribbon enumerate`
# prints: sha256 of its (4,2) stdout, and the counts of a few (4,2) ids at
# widths 12,10,9, frozen from the pairing walk
RIBBON_ENUMERATE_4_2_SHA256 = "5a7f5844b5f5af02fa2465d7309d4d5ef6b5e74aab3a381d2f3f822d9de18cc6"
RIBBON_COUNTS_4_2 = {1: 91, 78: 1929, 81: 17, 108: 2077, 119: 780}


def test_ribbon_graph_ids_pinned(runner):
    listing = runner.invoke(main, ["ribbon", "enumerate", "--m", "4", "--n", "2"])
    assert listing.exit_code == 0
    assert hashlib.sha256(listing.stdout_bytes).hexdigest() == RIBBON_ENUMERATE_4_2_SHA256
    for index, count in RIBBON_COUNTS_4_2.items():
        result = runner.invoke(main, ["ribbon", "count", "--graph-id", f"4-2-{index}", "--widths", "12,10,9"])
        assert result.exit_code == 0
        assert result.stdout == f"{count}\n"


def test_ribbon_count_usage_errors(runner):
    bad_id = runner.invoke(main, ["ribbon", "count", "--graph-id", "nope", "--widths", "1"])
    assert bad_id.exit_code == 2
    out_of_range = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-7", "--widths", "3,4"]
    )
    assert out_of_range.exit_code == 2
    for widths in ("3,x", "3,,4", "3,4,"):
        bad_widths = runner.invoke(main, ["ribbon", "count", "--graph-id", "1-1-0", "--widths", widths])
        assert bad_widths.exit_code == 2
        assert f"malformed width list {widths!r}" in bad_widths.output
    wrong_len = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-0", "--widths", "3"]
    )
    assert wrong_len.exit_code == 2


def test_ribbon_commands_refuse_oversized_signature(runner, monkeypatch):
    # (9,7) has three faces, so the fit reaches the class estimate
    monkeypatch.setattr(ribbon_mod, "_maps", _refuse_work)
    for args in (
        ["enumerate", "--m", "9", "--n", "7"],
        ["count", "--graph-id", "9-7-0", "--widths", "1,1,1"],
        ["fit", "--m", "9", "--n", "7"],
    ):
        result = runner.invoke(main, ["ribbon", *args])
        assert result.exit_code == 2
        assert "(9,7) is estimated at 1055486 graph classes, more than the limit of 200000" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["local-poly", "--m", "400000", "--n", "0"], "F_{400000,0} has over 10^18 terms"),
        (["local-poly", "--m", "1000000000", "--n", "0"], "F_{1000000000,0} has over 10^18 terms"),
        (["ribbon", "enumerate", "--m", "100000", "--n", "0"], "(100000,0) is estimated at over 10^18 graph classes"),
        (["ribbon", "enumerate", "--m", "1000000000", "--n", "0"], "(1000000000,0) is estimated at over 10^18 graph classes"),
        # past the float range of the estimate's lgamma
        (["ribbon", "enumerate", "--m", str(10**400), "--n", "0"], "0,0) is estimated at over 10^18 graph classes"),
    ],
)
def test_huge_signatures_are_refused_at_once(runner, args, message):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert message in result.output
    assert "more than the limit of" in result.output


@pytest.mark.parametrize(
    "widths, message",
    [
        ("100000000,100000001,100000002", "would take about 800 s"),
        (",".join([str(10**400)] * 3), "would take more than 10^308 s"),
    ],
    ids=["widths-1e8", "widths-1e400"],
)
def test_ribbon_count_refuses_long_counts_at_once(runner, monkeypatch, widths, message):
    monkeypatch.setattr(ribbon_mod, "comb", _refuse_work)
    start = time.perf_counter()
    result = runner.invoke(main, ["ribbon", "count", "--graph-id", "3-1-21", "--widths", widths])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "lattice counts handle requests of up to about 15 s" in result.output
    assert message in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["volume", "--K", str(10**29), "--per-tree"], "K <= 11"),
        (["volume", "--K", str(10**400)], "K <= 40"),
        (["verify", "--K-max", str(10**21)], "K <= 11"),
    ],
)
def test_huge_K_is_refused_at_once(runner, monkeypatch, args, message):
    monkeypatch.setattr(series_mod, "_tree_series", _refuse_work)
    monkeypatch.setattr(trees_mod, "_free_trees", _refuse_work)
    monkeypatch.setattr(verify_mod, "f_closed", _refuse_work)
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert message in result.output
    assert "would take more than 10^308 s" in result.output


def test_ribbon_fit(runner):
    result = runner.invoke(main, ["ribbon", "fit", "--m", "1", "--n", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [{"exponents": [0, 0], "num": "1", "den": "1"}]


# at one and two faces the constant term still prints one exponent per face
@pytest.mark.parametrize(
    "m, n", [(0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3), (2, 4), (3, 5), (4, 0), (4, 2), (4, 4)]
)
def test_ribbon_fit_prints_the_local_poly_bytes(runner, m, n):
    fit = runner.invoke(main, ["ribbon", "fit", "--m", str(m), "--n", str(n)])
    closed = runner.invoke(main, ["local-poly", "--m", str(m), "--n", str(n)])
    assert fit.exit_code == closed.exit_code == 0
    assert fit.stdout_bytes == closed.stdout_bytes


def test_ribbon_fit_refuses_its_priced_counts_before_counting(runner, monkeypatch):
    """(5,1) matches the closed form, but its counts are priced at about
    35 s, so the fit exits 2 with the price before it counts anything."""
    real = ribbon_mod._lattice_counter

    def pricing_only(g):
        return real(g)[0], _refuse_work

    monkeypatch.setattr(ribbon_mod, "_lattice_counter", pricing_only)
    result = runner.invoke(main, ["ribbon", "fit", "--m", "5", "--n", "1"])
    assert result.exit_code == 2
    assert "lattice counts handle requests of up to about 15 s; these widths would take more than 15 s" in result.output


def test_covers_count_methods_agree(runner):
    outputs = {}
    for big_k in ("1", "2"):
        for max_degree in ("3", "5"):
            args = ["covers", "count", "--K", big_k, "--max-degree", max_degree]
            frob = runner.invoke(main, args)
            naive = runner.invoke(main, args + ["--method", "naive"])
            assert frob.exit_code == 0
            assert naive.exit_code == 0
            assert frob.stdout == naive.stdout
            outputs[big_k, max_degree] = frob.stdout
    payload = json.loads(outputs["1", "3"])
    assert payload["sq_count"] == {"num": "360", "den": "1"}
    rows = {(r["degree"], r["zeros"], r["poles"]): r["num"] for r in payload["connected"]}
    assert rows[(3, 1, 5)] == "12"


GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens"


@pytest.mark.parametrize(
    "args, golden",
    [
        (["count", "--K", "1", "--max-degree", "30"], "covers_count_K1_maxdeg30.json"),
        (["ratio", "--K", "2", "--degrees", "10,20,24"], "covers_ratio_K2_deg10_20_24.txt"),
    ],
)
def test_covers_output_matches_benchmark_golden(runner, args, golden):
    result = runner.invoke(main, ["covers", *args])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDENS / golden).read_bytes()


def test_covers_count_ignores_old_character_cache(runner, tmp_path, monkeypatch):
    """A character file left by older versions must not change a result."""
    (tmp_path / "characters.txt").write_text("pillowchar v1\n3|3|3|5\n", encoding="ascii")
    monkeypatch.setenv("PILLOW_CACHE_DIR", str(tmp_path))
    result = runner.invoke(main, ["covers", "count", "--K", "1", "--max-degree", "3"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["sq_count"] == {"num": "360", "den": "1"}


def test_covers_count_naive_degree_limit(runner):
    result = runner.invoke(
        main, ["covers", "count", "--K", "1", "--max-degree", "6", "--method", "naive"]
    )
    assert result.exit_code == 2
    assert result.stderr.endswith("error: --method naive handles degrees up to 5 only\n")


@pytest.mark.parametrize(
    "args, estimate",
    [
        (["count", "--K", "20", "--max-degree", "24"], "K=20 to degree 24 would take about 23 s"),
        (["ratio", "--K", "1", "--degrees", "10,60"], "K=1 to degree 60 would take about 27 s"),
        (["count", "--K", "1", "--max-degree", "1000000"], "K=1 to degree 1000000 would take more than 10^308 s"),
        (["ratio", "--K", "1", "--degrees", "5,100000"], "K=1 to degree 100000 would take more than 10^308 s"),
        (["count", "--K", "1", "--max-degree", "58"], "K=1 to degree 58 would take about 19 s"),
        (["count", "--K", "2", "--max-degree", "55"], "K=2 to degree 55 would take about 18 s"),
        (["count", "--K", "3", "--max-degree", "53"], "K=3 to degree 53 would take about 16 s"),
        (["count", "--K", "4", "--max-degree", "51"], "K=4 to degree 51 would take about 17 s"),
        (["count", "--K", "5", "--max-degree", "48"], "K=5 to degree 48 would take about 19 s"),
    ],
)
def test_covers_refuse_requests_above_limit(runner, monkeypatch, args, estimate):
    monkeypatch.setattr(covers_mod, "_multiset_values", _refuse_work)
    result = runner.invoke(main, ["covers", *args])
    assert result.exit_code == 2
    assert estimate in result.output


@pytest.mark.parametrize(
    "big_k, max_degree", [(1, 30), (2, 24), (1, 40), (3, 49), (4, 46), (1, 56), (2, 54), (3, 52), (4, 50), (5, 46)]
)
def test_covers_limit_allows_benchmark_and_readme_requests(big_k, max_degree):
    covers_mod.check_cover_size(big_k, max_degree)


def test_covers_huge_K_at_small_degree_is_cheap(runner):
    """Past about twice the degree, K adds no work to the character route, and
    no surface of degree N <= K exists: both commands print zeros at once,
    without building K! or a float power of pi that overflows."""
    start = time.perf_counter()
    ratio = runner.invoke(main, ["covers", "ratio", "--K", str(10**9), "--degrees", "3,10"])
    count = runner.invoke(main, ["covers", "count", "--K", str(10**400), "--max-degree", "4"])
    assert time.perf_counter() - start < 5
    assert ratio.exit_code == count.exit_code == 0
    assert ratio.output == "r_3 = 0.000000\nr_10 = 0.000000\n"
    assert json.loads(count.stdout)["sq_count"] == {"num": "0", "den": "1"}


def test_covers_ratio(runner):
    import math

    result = runner.invoke(main, ["covers", "ratio", "--K", "1", "--degrees", "3,4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == f"r_3 = {8 * 360 / (math.pi ** 4 * 81):.6f}"
    assert lines[1].startswith("r_4 = ")
    for degrees in ("a,b", "10,,20"):
        bad = runner.invoke(main, ["covers", "ratio", "--K", "1", "--degrees", degrees])
        assert bad.exit_code == 2
        assert f"malformed degree list {degrees!r}" in bad.output


def test_covers_ratio_rejects_bad_K(runner):
    for big_k in ("0", "-1"):
        result = runner.invoke(main, ["covers", "ratio", "--K", big_k, "--degrees", "3"])
        assert result.exit_code == 2
        assert "--K must be a positive integer" in result.output
        assert "r_3" not in result.output


def test_verify_passes(runner):
    result = runner.invoke(main, ["verify", "--K-max", "1", "--mn-max", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("option", ["--K-max", "--mn-max"])
def test_verify_rejects_negative_bounds(runner, monkeypatch, option):
    monkeypatch.setattr(verify_mod, "run_verification", _refuse_work)
    result = runner.invoke(main, ["verify", option, "-3"])
    assert result.exit_code == 2
    assert "-3 is not in the range x>=0" in result.output


def test_verify_refuses_K_max_above_per_tree_limit(runner, monkeypatch):
    monkeypatch.setattr(verify_mod, "f_closed", _refuse_work)
    result = runner.invoke(main, ["verify", "--K-max", "13"])
    assert result.exit_code == 2
    assert "--K-max 13" in result.output
    assert "K <= 11" in result.output
    assert "about 117 s" in result.output


@pytest.mark.parametrize("bound", ["22", "1000000000000"])
def test_verify_refuses_mn_max_above_local_term_limit(runner, monkeypatch, bound):
    monkeypatch.setattr(verify_mod, "f_closed", _refuse_work)
    result = runner.invoke(main, ["verify", "--mn-max", bound])
    assert result.exit_code == 2
    assert f"--mn-max {bound}: F_{{21,1}} has 352716 terms, more than the limit of 200000" in result.output


REFUSALS = {
    "signature": lambda: LayerSignature(1, 2),
    "local-terms": lambda: check_local_size(LayerSignature(40, 0)),
    "graph-classes": lambda: ribbon_mod.enumerate_graphs(9, 7),
    "lattice-price": lambda: ribbon_mod.check_lattice_size([10**8] * 3),
    "width-count": lambda: ribbon_mod.exact_lattice_count(ribbon_mod.enumerate_graphs(1, 1)[0], [3]),
    "width-sign": lambda: ribbon_mod.exact_lattice_count(ribbon_mod.enumerate_graphs(1, 1)[0], [3, 0]),
    "cover-price": lambda: covers_mod.check_cover_size(20, 24),
    "cover-degrees": lambda: covers_mod.cover_ratios(1, [0, 3]),
    "series-price": lambda: series_mod.check_series_size(41),
    "series-K": lambda: series_mod.volume(0),
    "per-tree-price": lambda: trees_mod.check_per_tree_size(12),
    "per-tree-K": lambda: trees_mod.enumerate_decorated_trees(0),
    "verify-bounds": lambda: verify_mod.check_verification_size(12, 8),
}
FAULTS = {
    "solver": lambda: solve_exact([[1], [1]], [1, 2], 1),
    "polynomial": lambda: Polynomial({(0,): 1, (0, 0): 1}),
    "multinomial": lambda: multinomial(3, (1, 1)),
    "pi-power": lambda: PiValue(1, 3),
    "zeta": lambda: zeta_even(3),
    "naive-classes": lambda: covers_mod.naive_enumerate(((1,), (1, 1), (1,), (1,))),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS)
def test_each_limit_is_refused_as_Refused(call):
    with pytest.raises(Refused):
        call()


@pytest.mark.parametrize("call", FAULTS.values(), ids=FAULTS)
def test_a_failed_internal_check_is_no_refusal(call):
    with pytest.raises(ValueError) as raised:
        call()
    assert not isinstance(raised.value, Refused)


# a fault seeded into a fresh interpreter, the command it breaks, and the last line of its traceback
SEEDED_FAULTS = {
    "fit-solver": (
        "from pillowcount import ribbon\n"
        "def solve_exact(*args):\n"
        "    raise ValueError('the linear system is inconsistent')\n"
        "ribbon.solve_exact = solve_exact\n",
        ["ribbon", "fit", "--m", "2", "--n", "2"],
        "ValueError: the linear system is inconsistent",
    ),
    "recurrence-apply-D": (
        "from pillowcount import layers\n"
        "layers.apply_D = lambda p: layers.Polynomial({(0, 0): 1, (0, 0, 0): 1})\n",
        ["local-poly", "--m", "2", "--n", "2", "--method", "recurrence"],
        "ValueError: exponent tuples of lengths [2, 3] in one polynomial",
    ),
    "covers-multinomial": (
        "from pillowcount import covers, rationals\n"
        "covers.multinomial = lambda n, parts: rationals.multinomial(n + 1, parts)\n",
        ["covers", "count", "--K", "1", "--max-degree", "3"],
        "ValueError: multinomial parts (4,) do not sum to 5",
    ),
}


@pytest.mark.parametrize("fault, args, error", SEEDED_FAULTS.values(), ids=SEEDED_FAULTS)
def test_a_fault_exits_1_with_its_traceback(fault, args, error):
    """A ValueError that a computation raises on its own check is a fault,
    not a refused request: the process ends with its traceback and exit
    status 1, and prints no usage line."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = fault + "import sys\nfrom pillowcount.cli import main\nmain(sys.argv[1:])\n"
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback")
    assert done.stderr.splitlines()[-1] == error
    assert "Usage:" not in done.stderr


def test_verify_reports_a_failing_check_as_an_error_not_a_usage_error(monkeypatch):
    """Only the bounds are refused as a usage error: a ValueError raised
    once the checks run reaches the caller."""

    def broken(sig):
        raise ValueError("broken route")

    monkeypatch.setattr(verify_mod, "f_closed", broken)
    with pytest.raises(ValueError, match="broken route"):
        main(["verify", "--K-max", "1", "--mn-max", "4"])


def test_verify_fails_when_no_checks_run(runner, monkeypatch):
    """A sweep that runs no check fails rather than reporting success; the
    cover checks always run, so only a stub reaches this guard."""
    monkeypatch.setattr(verify_mod, "run_verification", lambda **bounds: [])
    result = runner.invoke(main, ["verify", "--K-max", "0", "--mn-max", "0"])
    assert result.exit_code == 1
    assert "checks passed" not in result.output
    assert "no checks" in result.stderr


def test_verify_fails_on_corruption(runner, monkeypatch):
    real = verify_mod.f_closed

    def tampered(sig):
        poly = real(sig)
        if (sig.m, sig.n) == (2, 2):
            terms = dict(poly.items())
            terms[2, 0] = terms.get((2, 0), 0) + 1
            return Polynomial(terms)
        return poly

    monkeypatch.setattr(verify_mod, "f_closed", tampered)
    result = runner.invoke(main, ["verify", "--K-max", "1", "--mn-max", "4"])
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "first failure:" in result.output


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_what_the_readme_shows(runner):
    """Every `$ pillowcount ...` example of the README whose stdout is shown
    in full prints exactly those lines; an example shown cut short (`...`),
    a refusal (`Usage:`) or one with no output shown is skipped."""
    checked = []
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        for example in block.split("\n$ ")[1:]:
            command, _, shown = example.partition("\n")
            prog, *args = shlex.split(command, comments=True)
            if prog != "pillowcount" or not shown.strip() or "..." in shown or "Usage:" in shown:
                continue
            result = runner.invoke(main, args)
            assert result.exit_code == 0, command
            assert result.stdout.splitlines() == shown.rstrip("\n").splitlines(), command
            checked.append(command)
    assert checked


def test_root_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("Usage:")
    for command in ("local-poly", "ribbon", "volume", "covers", "verify"):
        assert command in out


def test_main_ends_in_system_exit_with_the_status(capsys, monkeypatch):
    with pytest.raises(SystemExit) as done:
        main(args=["volume", "--K", "1"], prog_name="pillowcount")
    assert done.value.code == 0
    assert capsys.readouterr().out == "pi^4 * 1/1\n"
    monkeypatch.setattr(verify_mod, "run_verification", lambda **bounds: [verify_mod.CheckResult("stub", False, "1", "2")])
    with pytest.raises(SystemExit) as done:
        main(args=["verify"], prog_name="pillowcount")
    assert done.value.code == 1
    assert "first failure: stub" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["verify", "--K", "3"], ["volume", "--K", "2", "--per"]])
def test_option_prefixes_are_usage_errors(runner, monkeypatch, args):
    monkeypatch.setattr(verify_mod, "run_verification", _refuse_work)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""


def test_cli_import_loads_no_click():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, pillowcount.cli; print('click' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    ).stdout
    assert out == "False\n"


LAYERS = ("covers", "layers", "polynomials", "rationals", "ribbon", "series", "trees", "verify")
# what a dataclass costs a process to import
DATACLASSES = ("dataclasses", "inspect")


def _fresh_interpreter_modules(*args: str) -> tuple[str, set[str]]:
    """The exit code and sys.modules of a fresh interpreter that ran
    main(args), or of a bare one when no args are given."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "code = None\n"
        "if sys.argv[1:]:\n"
        "    from pillowcount.cli import main\n"
        "    try:\n"
        "        main(sys.argv[1:])\n"
        "    except SystemExit as done:\n"
        "        code = done.code\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    err = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stderr
    code, *loaded = err.split()
    return code, set(loaded)


@pytest.mark.parametrize(
    "args, absent",
    [
        (["volume", "--K", "3", "--format", "json"], ("covers", "layers", "polynomials", "ribbon", "trees", "verify")),
        (["covers", "ratio", "--K", "1", "--degrees", "4"], ("series", "trees", "layers", "polynomials", "ribbon", "verify")),
        (["--help"], LAYERS),
        (["covers", "count", "--K", "1", "--max-degree", "5"], ("series", "trees", "layers", "polynomials", "ribbon", "verify")),
        (["verify"], ()),
        (["ribbon", "enumerate", "--m", "3", "--n", "1"], ("covers", "series", "trees", "verify")),
    ],
)
def test_each_command_imports_only_the_layers_it_runs(args, absent):
    """The import budget: a command loads none of the other layers, and no
    command loads dataclasses, nor pickle, which only a cover count that
    forks needs.  Modules a bare interpreter already holds, such as a site
    hook's, do not count."""
    code, loaded = _fresh_interpreter_modules(*args)
    _, bare = _fresh_interpreter_modules()
    added = loaded - bare
    assert code == "0"
    assert "pillowcount.cli" in added
    assert not {f"pillowcount.{name}" for name in absent} & added
    assert not set(DATACLASSES) & added
    assert "pickle" not in added
