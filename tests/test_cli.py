"""End-to-end CLI contract tests: goldens, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

import pillowcount.cli as cli_mod
import pillowcount.verify as verify_mod
from pillowcount.cli import main
from pillowcount.polynomials import Polynomial


@pytest.fixture()
def runner():
    return CliRunner()


LOCAL_POLY_GOLDEN = (
    '[{"exponents":[2,0],"num":"2","den":"1"},'
    '{"exponents":[0,2],"num":"2","den":"1"}]\n'
)


def test_local_poly_json_golden(runner):
    result = runner.invoke(main, ["local-poly", "--m", "2", "--n", "2"])
    assert result.exit_code == 0
    assert result.output == LOCAL_POLY_GOLDEN


def test_local_poly_text_and_methods(runner):
    text = runner.invoke(main, ["local-poly", "--m", "2", "--n", "2", "--format", "text"])
    assert text.exit_code == 0
    assert text.output == "2*w1^2 + 2*w2^2\n"
    closed = runner.invoke(main, ["local-poly", "--m", "3", "--n", "3", "--method", "closed"])
    recurred = runner.invoke(
        main, ["local-poly", "--m", "3", "--n", "3", "--method", "recurrence"]
    )
    assert closed.output == recurred.output


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


def test_volume_latex_table_subtotals(runner):
    result = runner.invoke(main, ["--no-meta", "volume", "--K", "2", "--format", "latex-table"])
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
    result = runner.invoke(main, ["--no-meta", "volume", "--K", "5", "--per-tree", "--format", "latex-table"])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == "b05ab5a1ddc83b96951f62f51a9606f40a8b4ae6fc21df1a4698e995715ea05d"


def test_volume_latex_meta_toggle(runner):
    with_meta = runner.invoke(main, ["volume", "--K", "1", "--format", "latex-table"])
    assert "% volume table for K=1, generated " in with_meta.output
    without = runner.invoke(main, ["--no-meta", "volume", "--K", "1", "--format", "latex-table"])
    assert "%" not in without.output.splitlines()[0]
    again = runner.invoke(main, ["--no-meta", "volume", "--K", "1", "--format", "latex-table"])
    assert without.output == again.output


def test_volume_rejects_bad_K(runner):
    assert runner.invoke(main, ["volume", "--K", "0"]).exit_code == 2


def test_ribbon_enumerate(runner):
    result = runner.invoke(main, ["ribbon", "enumerate", "--m", "1", "--n", "1"])
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert [r["id"] for r in records] == ["1-1-0", "1-1-1"]
    assert all(r["darts"] == 4 for r in records)
    multisets = {tuple(sorted(r["labels"]["faces"])) for r in records}
    assert multisets == {(0, 0, 0, 1), (0, 1, 1, 1)}
    full = runner.invoke(main, ["ribbon", "enumerate", "--m", "2", "--n", "2", "--full-labels"])
    assert len(json.loads(full.output)) == 16


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


def test_ribbon_count_usage_errors(runner):
    bad_id = runner.invoke(main, ["ribbon", "count", "--graph-id", "nope", "--widths", "1"])
    assert bad_id.exit_code == 2
    out_of_range = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-7", "--widths", "3,4"]
    )
    assert out_of_range.exit_code == 2
    bad_widths = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-0", "--widths", "3,x"]
    )
    assert bad_widths.exit_code == 2
    wrong_len = runner.invoke(
        main, ["ribbon", "count", "--graph-id", "1-1-0", "--widths", "3"]
    )
    assert wrong_len.exit_code == 2


def test_ribbon_commands_refuse_oversized_signature(runner):
    for args in (
        ["enumerate", "--m", "5", "--n", "1"],
        ["count", "--graph-id", "5-1-0", "--widths", "1,1,1,1"],
        ["fit", "--m", "5", "--n", "1"],
    ):
        result = runner.invoke(main, ["ribbon", *args])
        assert result.exit_code == 2
        assert "48648600 labelled pairings" in result.output


def test_ribbon_fit(runner):
    result = runner.invoke(main, ["ribbon", "fit", "--m", "1", "--n", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [{"exponents": [0, 0], "num": "1", "den": "1"}]


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


def test_covers_ratio(runner):
    import math

    result = runner.invoke(main, ["covers", "ratio", "--K", "1", "--degrees", "3,4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == f"r_3 = {8 * 360 / (math.pi ** 4 * 81):.6f}"
    assert lines[1].startswith("r_4 = ")
    bad = runner.invoke(main, ["covers", "ratio", "--K", "1", "--degrees", "a,b"])
    assert bad.exit_code == 2


def test_covers_ratio_rejects_bad_K(runner):
    for big_k in ("0", "-1"):
        result = runner.invoke(main, ["covers", "ratio", "--K", big_k, "--degrees", "3"])
        assert result.exit_code == 2
        assert "--K must be a positive integer" in result.output
        assert "r_3" not in result.output


def test_verify_passes(runner):
    result = runner.invoke(
        main, ["verify", "--K-max", "1", "--mn-max", "4", "--cover-N-max", "2"]
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_fails_when_no_checks_run(runner):
    result = runner.invoke(
        main, ["verify", "--K-max", "0", "--mn-max", "0", "--cover-N-max", "0"]
    )
    assert result.exit_code == 1
    assert "checks passed" not in result.output
    assert "no checks" in result.stderr


def test_verify_notes_capped_cover_degree(runner, monkeypatch):
    stub = [verify_mod.CheckResult("stub", True, "", "")]
    monkeypatch.setattr(cli_mod, "run_verification", lambda **bounds: stub)
    capped = runner.invoke(main, ["verify", "--cover-N-max", "7"])
    assert capped.exit_code == 0
    assert "capped at 5" in capped.stderr
    assert capped.stdout == "PASS  stub\n1/1 checks passed\n"
    default = runner.invoke(main, ["verify"])
    assert default.stderr == ""


def test_verify_fails_on_corruption(runner, monkeypatch):
    real = verify_mod.f_closed

    def tampered(sig):
        poly = real(sig)
        if (sig.m, sig.n) == (2, 2):
            return poly + Polynomial.monomial((2, 0))
        return poly

    monkeypatch.setattr(verify_mod, "f_closed", tampered)
    result = runner.invoke(
        main, ["verify", "--K-max", "1", "--mn-max", "4", "--cover-N-max", "0"]
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "first failure:" in result.output


def test_render_matches_direct_commands(runner):
    via_render = runner.invoke(main, ["render", "local-poly", "2", "2", "json"])
    direct = runner.invoke(main, ["local-poly", "--m", "2", "--n", "2"])
    assert via_render.output == direct.output
    vol = runner.invoke(main, ["render", "volume", "1", "text"])
    assert vol.output == "pi^4 * 1/1\n"


def test_render_usage_errors(runner):
    assert runner.invoke(main, ["render", "volume"]).exit_code == 2
    assert runner.invoke(main, ["render", "widget", "1", "text"]).exit_code == 2
    assert runner.invoke(main, ["render", "local-poly", "2", "json"]).exit_code == 2
    assert runner.invoke(main, ["render", "volume", "x", "text"]).exit_code == 2
    assert runner.invoke(main, ["render", "volume", "1", "yaml"]).exit_code == 2
