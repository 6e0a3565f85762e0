"""Command-line interface exposing every pipeline of the package."""

from __future__ import annotations

import datetime
import json
from fractions import Fraction

import click

from .covers import NAIVE_MAX_DEGREE, connected_counts, cover_ratios, naive_connected_counts, sq_count
from .layers import LayerSignature, f_closed, f_recurrence
from .polynomials import Polynomial
from .rationals import PiValue
from .ribbon import enumerate_graphs, exact_lattice_count, leading_part_fit
from .trees import TreeContribution, enumerate_decorated_trees, local_product, tree_contribution
from .verify import run_verification


@click.group()
@click.option("--no-meta", is_flag=True, help="Suppress the timestamp comment in latex-table output.")
@click.pass_context
def main(ctx: click.Context, no_meta: bool) -> None:
    """Exact counts of lattice pillowcase covers and stratum volumes."""
    ctx.obj = {"no_meta": no_meta}


def _polynomial_json(p: Polynomial, arity: int | None = None) -> str:
    return json.dumps(p.to_records(arity), separators=(",", ":"))


def _signature(m: int, n: int) -> LayerSignature:
    try:
        return LayerSignature(m, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command("local-poly")
@click.option("--m", "m", type=int, required=True, help="Number of simple zeros on the layer.")
@click.option("--n", "n", type=int, required=True, help="Number of simple poles on the layer.")
@click.option("--method", type=click.Choice(["closed", "recurrence", "auto"]), default="auto", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True)
def local_poly(m: int, n: int, method: str, fmt: str) -> None:
    """Print the local polynomial F_{m,n}."""
    sig = _signature(m, n)
    try:
        poly = f_recurrence(sig) if method == "recurrence" else f_closed(sig)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        click.echo(_polynomial_json(poly, sig.faces))
    else:
        click.echo(poly.to_text(arity=sig.faces))


@main.group()
def ribbon() -> None:
    """Ribbon-graph enumeration and raw lattice counts."""


def _graph_id(m: int, n: int, index: int) -> str:
    return f"{m}-{n}-{index}"


@ribbon.command("enumerate")
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--full-labels", is_flag=True, help="Label trivalent vertices and their dart triples too.")
def ribbon_enumerate(m: int, n: int, full_labels: bool) -> None:
    """List the genus-zero ribbon graphs with m trivalent and n univalent vertices."""
    _signature(m, n)
    mode = "full" if full_labels else "faces-only"
    try:
        graphs = enumerate_graphs(m, n, label_mode=mode)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    records = []
    for index, g in enumerate(graphs):
        record = {"id": _graph_id(m, n, index)}
        record.update(g.to_json_dict())
        records.append(record)
    click.echo(json.dumps(records, separators=(",", ":")))


@ribbon.command("count")
@click.option("--graph-id", required=True, help="Graph id m-n-i as printed by `ribbon enumerate` (faces-only labelling).")
@click.option("--widths", required=True, help="Comma-separated positive face widths, one per face.")
def ribbon_count(graph_id: str, widths: str) -> None:
    """Count the lattice metrics of a ribbon graph with the given face widths."""
    try:
        m_text, n_text, index_text = graph_id.split("-")
        m, n, index = int(m_text), int(n_text), int(index_text)
    except ValueError:
        raise click.UsageError(f"malformed graph id {graph_id!r}; expected m-n-i")
    try:
        width_list = [int(w) for w in widths.split(",") if w]
    except ValueError:
        raise click.UsageError(f"malformed width list {widths!r}")
    _signature(m, n)
    try:
        graphs = enumerate_graphs(m, n, label_mode="faces-only")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not 0 <= index < len(graphs):
        raise click.UsageError(f"graph id {graph_id!r} out of range; {len(graphs)} graphs exist")
    try:
        click.echo(str(exact_lattice_count(graphs[index], width_list)))
    except ValueError as exc:
        raise click.UsageError(str(exc))


@ribbon.command("fit")
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
def ribbon_fit(m: int, n: int) -> None:
    """Recover the leading term of F_{m,n} from raw lattice counts."""
    sig = _signature(m, n)
    try:
        poly = leading_part_fit(m, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(_polynomial_json(poly, sig.faces))


def _pi_value_json(value: PiValue) -> dict:
    return {
        "pi_power": value.pi_power,
        "num": str(value.coefficient.numerator),
        "den": str(value.coefficient.denominator),
    }


_LATEX_HEADER = (
    "\\begin{array}{|c|c|c|c|}\n\\hline\n"
    "\\text{Tree} & {\\displaystyle\\prod_i F_{m_i,n_i}} & c(\\operatorname{T},a) & \\text{Contribution}\\\\\n\\hline"
)


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _pi_latex(value: PiValue) -> str:
    coeff = value.coefficient
    if coeff == 0:
        return "0"
    body = f"\\pi^{{{value.pi_power}}}"
    if coeff == 1:
        return body
    return f"{_frac_latex(coeff)}\\,{body}"


def _poly_latex(p: Polynomial, arity: int) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.sorted_terms(arity):
        factors = "".join(
            f"w_{{{i + 1}}}" + (f"^{{{e}}}" if e > 1 else "")
            for i, e in enumerate(exps)
            if e > 0
        )
        if not factors:
            parts.append(_frac_latex(coeff))
        elif coeff == 1:
            parts.append(factors)
        else:
            parts.append(f"{_frac_latex(coeff)}{factors}")
    return " + ".join(parts)


def _zeta_latex(zeta_terms: tuple) -> str:
    rendered = []
    for args, coeff in zeta_terms:
        if coeff == 0:
            continue
        factors = []
        for arg in sorted(set(args)):
            mult = args.count(arg)
            factors.append(f"\\zeta({arg})^{{{mult}}}" if mult > 1 else f"\\zeta({arg})")
        body = "".join(factors)
        rendered.append(f"{_frac_latex(coeff)}\\,{body}" if coeff != 1 else body)
    return " + ".join(rendered) if rendered else "0"


def _factor_latex(contribution: TreeContribution) -> str:
    tree = contribution.tree
    pieces = []
    for v in range(tree.vertices):
        sig = tree.layer(v)
        incident = [i + 1 for i, e in enumerate(tree.edges) if v in e]
        args = ",".join(f"w_{{{i}}}" for i in incident)
        pieces.append(f"F_{{{sig.m},{sig.n}}}({args})")
    product = local_product(tree)
    return "\\cdot ".join(pieces) + " = " + _poly_latex(product, tree.k)


def _volume_latex(big_k: int, contributions: list[TreeContribution], no_meta: bool) -> str:
    lines = []
    if not no_meta:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"% volume table for K={big_k}, generated {stamp}")
    lines.append(_LATEX_HEADER)
    total = PiValue(Fraction(0), 2 * big_k + 2)
    for k in sorted({c.tree.k for c in contributions}):
        block = [c for c in contributions if c.tree.k == k]
        noun = "cylinder" if k == 1 else "cylinders"
        lines.append(f"\\multicolumn{{4}}{{c}}{{k={k} \\text{{ {noun}}}}}\\\\\n\\hline")
        subtotal = PiValue(Fraction(0), 2 * big_k + 2)
        for c in block:
            subtotal = subtotal + c.value
            row = " & ".join(
                [
                    f"\\text{{{c.tree.layer_text()}}}",
                    _factor_latex(c),
                    _frac_latex(c.multinomial_factor),
                    f"{_zeta_latex(c.zeta_terms)} = {_pi_latex(c.value)}",
                ]
            )
            lines.append(row + "\\\\\n\\hline")
        lines.append(
            f"\\multicolumn{{4}}{{r}}{{\\text{{subtotal }} k={k}: {_pi_latex(subtotal)}}}\\\\\n\\hline"
        )
        total = total + subtotal
    lines.append(f"\\multicolumn{{4}}{{r}}{{\\text{{total: }} {_pi_latex(total)}}}\\\\")
    lines.append("\\end{array}")
    return "\n".join(lines)


@main.command("volume")
@click.option("--K", "big_k", type=int, required=True, help="Number of simple zeros of the stratum.")
@click.option("--per-tree", is_flag=True, help="Include one row per decorated tree.")
@click.option("--format", "fmt", type=click.Choice(["json", "text", "latex-table"]), default="text", show_default=True)
@click.pass_context
def volume_cmd(ctx: click.Context, big_k: int, per_tree: bool, fmt: str) -> None:
    """Masur-Veech volume of Q(1^K, -1^(K+4)) assembled over decorated trees."""
    if big_k < 1:
        raise click.UsageError("--K must be a positive integer")
    contributions = [tree_contribution(t, big_k) for t in enumerate_decorated_trees(big_k)]
    total = PiValue(Fraction(0), 2 * big_k + 2)
    for c in contributions:
        total = total + c.value
    if fmt == "latex-table":
        click.echo(_volume_latex(big_k, contributions, ctx.obj.get("no_meta", False)))
        return
    if fmt == "json":
        payload: dict = {"K": big_k}
        payload.update(_pi_value_json(total))
        if per_tree:
            payload["trees"] = [
                {
                    "tree": c.tree.layer_text(),
                    "aut": c.aut,
                    "c": {"num": str(c.multinomial_factor.numerator), "den": str(c.multinomial_factor.denominator)},
                    "zeta_terms": [
                        {"args": list(args), "num": str(coeff.numerator), "den": str(coeff.denominator)}
                        for args, coeff in c.zeta_terms
                    ],
                    "value": _pi_value_json(c.value),
                }
                for c in contributions
            ]
        click.echo(json.dumps(payload, separators=(",", ":")))
        return
    if per_tree:
        for c in contributions:
            zeta_text = " + ".join(
                f"{coeff} * zeta({','.join(map(str, args))})"
                for args, coeff in c.zeta_terms
                if coeff != 0
            )
            click.echo(
                f"tree {c.tree.layer_text()}  aut={c.aut}  c={c.multinomial_factor}  "
                f"{zeta_text}  -> {c.value}"
            )
    click.echo(str(total))


@main.group()
def covers() -> None:
    """Character-theoretic pillowcase cover counts."""


@covers.command("count")
@click.option("--K", "big_k", type=int, required=True, help="Number of simple zeros.")
@click.option("--max-degree", type=int, required=True, help="Largest cover degree to include.")
@click.option("--method", type=click.Choice(["frobenius", "naive"]), default="frobenius", show_default=True)
def covers_count(big_k: int, max_degree: int, method: str) -> None:
    """Connected cover counts graded by degree, zeros, and poles."""
    if big_k < 1 or max_degree < 1:
        raise click.UsageError("--K and --max-degree must be positive")
    if method == "naive":
        if max_degree > NAIVE_MAX_DEGREE:
            raise click.UsageError(f"--method naive handles degrees up to {NAIVE_MAX_DEGREE} only")
        table = naive_connected_counts(big_k, max_degree)
    else:
        table = connected_counts(big_k, max_degree)
    sq = sq_count(table, big_k, max_degree)
    rows = [
        {"degree": n, "zeros": z, "poles": p, "num": str(v.numerator), "den": str(v.denominator)}
        for (n, z, p), v in sorted(table.items())
    ]
    payload = {
        "K": big_k,
        "max_degree": max_degree,
        "sq_count": {"num": str(sq.numerator), "den": str(sq.denominator)},
        "connected": rows,
    }
    click.echo(json.dumps(payload, separators=(",", ":")))


@covers.command("ratio")
@click.option("--K", "big_k", type=int, required=True, help="Number of simple zeros.")
@click.option("--degrees", required=True, help="Comma-separated degree bounds, e.g. 10,20,30.")
def covers_ratio(big_k: int, degrees: str) -> None:
    """Cover counts normalized by the volume asymptotics (tends to 1)."""
    if big_k < 1:
        raise click.UsageError("--K must be a positive integer")
    try:
        wanted = [int(x) for x in degrees.split(",") if x]
    except ValueError:
        raise click.UsageError(f"malformed degree list {degrees!r}")
    if not wanted:
        raise click.UsageError("no degrees given")
    try:
        ratios = cover_ratios(big_k, wanted)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for n in sorted(ratios):
        click.echo(f"r_{n} = {ratios[n]:.6f}")


@main.command("verify")
@click.option("--K-max", "k_max", type=int, default=2, show_default=True)
@click.option("--mn-max", "mn_max", type=int, default=8, show_default=True)
@click.option("--cover-N-max", "cover_n_max", type=int, default=NAIVE_MAX_DEGREE, show_default=True)
@click.pass_context
def verify_cmd(ctx: click.Context, k_max: int, mn_max: int, cover_n_max: int) -> None:
    """Recompute everything both ways; exit 0 only if all routes agree."""
    if cover_n_max > NAIVE_MAX_DEGREE:
        click.echo(
            f"note: --cover-N-max {cover_n_max} is capped at {NAIVE_MAX_DEGREE}, the largest degree "
            "direct enumeration handles",
            err=True,
        )
    results = run_verification(k_max=k_max, mn_max=mn_max, cover_n_max=cover_n_max)
    if not results:
        click.echo("Error: the bounds select no checks; raise --K-max, --mn-max or --cover-N-max", err=True)
        ctx.exit(1)
    failed = [r for r in results if not r.passed]
    for r in results:
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        first = failed[0]
        click.echo(f"first failure: {first.name}")
        click.echo(f"  lhs = {first.lhs}")
        click.echo(f"  rhs = {first.rhs}")
        ctx.exit(1)


@main.command("render")
@click.argument("spec", nargs=-1)
@click.pass_context
def render(ctx: click.Context, spec: tuple[str, ...]) -> None:
    """Render a computed entity: ENTITY ARGS... FORMAT.

    Examples: `render local-poly 2 2 json`, `render volume 1 text`,
    `render volume 2 latex-table`.
    """
    if len(spec) < 2:
        raise click.UsageError("usage: render ENTITY ARGS... FORMAT")
    entity, *args, fmt = spec
    if entity == "local-poly":
        if len(args) != 2:
            raise click.UsageError("render local-poly takes M N FORMAT")
        if fmt not in ("json", "text"):
            raise click.UsageError(f"unknown local-poly format {fmt!r}")
        ctx.invoke(local_poly, m=_int_arg(args[0]), n=_int_arg(args[1]), method="auto", fmt=fmt)
        return
    if entity == "volume":
        if len(args) != 1:
            raise click.UsageError("render volume takes K FORMAT")
        if fmt not in ("json", "text", "latex-table"):
            raise click.UsageError(f"unknown volume format {fmt!r}")
        ctx.invoke(volume_cmd, big_k=_int_arg(args[0]), per_tree=False, fmt=fmt)
        return
    raise click.UsageError(f"unknown entity {entity!r}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(f"expected an integer, got {text!r}")


if __name__ == "__main__":
    main()
