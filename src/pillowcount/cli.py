"""Command-line interface exposing every pipeline of the package."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NoReturn

# each command imports the layers it runs inside its handler, so that a
# process loads only those: `volume` loads series and rationals, and the
# per-tree route only under --per-tree or latex-table
if TYPE_CHECKING:
    from .polynomials import Polynomial
    from .rationals import PiValue
    from .trees import TreeContribution


def _json(record) -> str:
    return json.dumps(record, separators=(",", ":"))


def local_poly(opts: argparse.Namespace) -> None:
    """Print the local polynomial F_{m,n}."""
    from .layers import LayerSignature, f_closed, f_recurrence

    sig = LayerSignature(opts.m, opts.n)
    poly = (f_recurrence if opts.method == "recurrence" else f_closed)(sig)
    print(_json(_poly_json(poly)) if opts.fmt == "json" else poly.to_text())


def ribbon_enumerate(opts: argparse.Namespace) -> None:
    """List the genus-zero ribbon graphs with m trivalent and n univalent vertices."""
    from .ribbon import enumerate_graphs

    graphs = enumerate_graphs(opts.m, opts.n)
    records = [{"id": f"{opts.m}-{opts.n}-{index}", **g.to_json_dict()} for index, g in enumerate(graphs)]
    print(_json(records))


def ribbon_count(opts: argparse.Namespace) -> None:
    """Count the lattice metrics of a ribbon graph with the given face widths."""
    from .rationals import Refused
    from .ribbon import enumerate_graphs, exact_lattice_count

    try:
        m, n, index = map(int, opts.graph_id.split("-"))
    except ValueError:
        raise Refused(f"malformed graph id {opts.graph_id!r}; expected m-n-i") from None
    try:
        width_list = [int(w) for w in opts.widths.split(",")]
    except ValueError:
        raise Refused(f"malformed width list {opts.widths!r}") from None
    graphs = enumerate_graphs(m, n)
    if not 0 <= index < len(graphs):
        raise Refused(f"graph id {opts.graph_id!r} out of range; {len(graphs)} graphs exist")
    print(exact_lattice_count(graphs[index], width_list))


def ribbon_fit(opts: argparse.Namespace) -> None:
    """Recover the leading term of F_{m,n} from raw lattice counts."""
    from .ribbon import leading_part_fit

    print(_json(_poly_json(leading_part_fit(opts.m, opts.n))))


def _fraction_json(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _pi_value_json(value: PiValue) -> dict:
    return {"pi_power": value.pi_power, **_fraction_json(value.coefficient)}


def _poly_json(p: Polynomial) -> list[dict]:
    return [{"exponents": list(exps), **_fraction_json(coeff)} for exps, coeff in p.sorted_terms()]


_LATEX_HEADER = (
    "\\begin{array}{|c|c|c|c|}\n\\hline\n"
    "\\text{Tree} & {\\displaystyle\\prod_i F_{m_i,n_i}} & c(\\operatorname{T},a) & \\text{Contribution}\\\\\n\\hline"
)


# every tree's terms, factors and values are positive: the renderers below print no sign and no zero
def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\frac{{{f.numerator}}}{{{f.denominator}}}"


def _pi_latex(value: PiValue) -> str:
    body = f"\\pi^{{{value.pi_power}}}"
    if value.coefficient == 1:
        return body
    return f"{_frac_latex(value.coefficient)}\\,{body}"


def _poly_latex(p: Polynomial) -> str:
    parts = []
    for exps, coeff in p.sorted_terms():
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
        factors = []
        for arg in sorted(set(args)):
            mult = args.count(arg)
            factors.append(f"\\zeta({arg})^{{{mult}}}" if mult > 1 else f"\\zeta({arg})")
        body = "".join(factors)
        rendered.append(f"{_frac_latex(coeff)}\\,{body}" if coeff != 1 else body)
    return " + ".join(rendered)


def _factor_latex(contribution: TreeContribution) -> str:
    from .trees import local_product

    tree = contribution.tree
    pieces = []
    for v in range(tree.vertices):
        sig = tree.layer(v)
        incident = [i + 1 for i, e in enumerate(tree.edges) if v in e]
        args = ",".join(f"w_{{{i}}}" for i in incident)
        pieces.append(f"F_{{{sig.m},{sig.n}}}({args})")
    product = local_product(tree)
    return "\\cdot ".join(pieces) + " = " + _poly_latex(product)


def _volume_latex(big_k: int, contributions: list[TreeContribution]) -> str:
    from .rationals import PiValue

    lines = [_LATEX_HEADER]
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


def volume_cmd(opts: argparse.Namespace) -> None:
    """Masur-Veech volume of Q(1^K, -1^(K+4)) assembled over decorated trees.

    The total alone comes from the labelled-tree series; --per-tree and
    latex-table enumerate every decorated tree.  --per-tree prints each text
    row as it comes and keeps each JSON row only as compact text.
    """
    from .rationals import PiValue, Refused
    from .series import volume

    big_k, per_tree, fmt = opts.big_k, opts.per_tree, opts.fmt
    if big_k < 1:
        raise Refused("--K must be a positive integer")
    if not (per_tree or fmt == "latex-table"):
        total = volume(big_k)
        print(_json({"K": big_k, **_pi_value_json(total)}) if fmt == "json" else total)
        return
    from .trees import enumerate_decorated_trees, tree_contribution

    try:
        trees = enumerate_decorated_trees(big_k)
    except Refused as exc:
        raise Refused(f"{exc}; without --per-tree and latex-table the total comes from the series") from None
    contributions = (tree_contribution(t, big_k) for t in trees)
    if fmt == "latex-table":
        print(_volume_latex(big_k, list(contributions)))
        return
    total = PiValue(Fraction(0), 2 * big_k + 2)
    rows = []
    for c in contributions:
        total = total + c.value
        if fmt == "json":
            rows.append(
                _json(
                    {
                        "tree": c.tree.layer_text(),
                        "aut": c.aut,
                        "c": _fraction_json(c.multinomial_factor),
                        "zeta_terms": [{"args": list(args), **_fraction_json(coeff)} for args, coeff in c.zeta_terms],
                        "value": _pi_value_json(c.value),
                    }
                )
            )
            continue
        zeta_text = " + ".join(f"{coeff} * zeta({','.join(map(str, args))})" for args, coeff in c.zeta_terms)
        print(
            f"tree {c.tree.layer_text()}  aut={c.aut}  c={c.multinomial_factor}  "
            f"{zeta_text}  -> {c.value}"
        )
    if fmt == "json":
        # the compact separators let the rows join the object as text
        print(_json({"K": big_k, **_pi_value_json(total)})[:-1] + ',"trees":[' + ",".join(rows) + "]}")
    else:
        print(total)


def covers_count(opts: argparse.Namespace) -> None:
    """Connected cover counts graded by degree, zeros, and poles."""
    from .covers import connected_counts, naive_counts, sq_count
    from .rationals import Refused

    big_k, max_degree = opts.big_k, opts.max_degree
    if big_k < 1 or max_degree < 1:
        raise Refused("--K and --max-degree must be positive")
    if opts.method == "naive":
        table = {cell: value for _, _, cells in naive_counts(big_k, max_degree) for cell, value in cells.items()}
    else:
        table = connected_counts(big_k, max_degree)
    sq = sq_count(table, big_k, max_degree)
    rows = [{"degree": n, "zeros": z, "poles": p, **_fraction_json(v)} for (n, z, p), v in sorted(table.items())]
    payload = {"K": big_k, "max_degree": max_degree, "sq_count": _fraction_json(sq), "connected": rows}
    print(_json(payload))


def covers_ratio(opts: argparse.Namespace) -> None:
    """Cover counts normalized by the volume asymptotics (tends to 1)."""
    from .covers import cover_ratios
    from .rationals import Refused

    if opts.big_k < 1:
        raise Refused("--K must be a positive integer")
    try:
        wanted = [int(x) for x in opts.degrees.split(",")]
    except ValueError:
        raise Refused(f"malformed degree list {opts.degrees!r}") from None
    ratios = cover_ratios(opts.big_k, wanted)
    for n in sorted(ratios):
        print(f"r_{n} = {ratios[n]:.6f}")


def verify_cmd(opts: argparse.Namespace) -> int:
    """Recompute everything both ways; exit 0 only if all routes agree."""
    from .verify import run_verification

    results = run_verification(k_max=opts.k_max, mn_max=opts.mn_max)
    if not results:
        print("Error: no checks ran", file=sys.stderr)
        return 1
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        first = failed[0]
        print(f"first failure: {first.name}\n  lhs = {first.lhs}\n  rhs = {first.rhs}")
        return 1
    return 0


class _Formatter(argparse.HelpFormatter):
    """argparse's help text under a capitalised ``Usage:`` line."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


# every parser: a capitalised `Usage:` line and no abbreviated options
_STYLE = {"formatter_class": _Formatter, "allow_abbrev": False}


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _command(subcommands, name: str, run=None, doc: str | None = None) -> argparse.ArgumentParser:
    """A subcommand parser described by `doc` or by the docstring of `run(opts)`, which carries it out."""
    doc = doc or run.__doc__
    parser = subcommands.add_parser(name, help=doc.splitlines()[0], description=doc, **_STYLE)
    parser.set_defaults(run=run, parser=parser)
    return parser


def _parser(prog: str | None) -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog=prog, description="Exact counts of lattice pillowcase covers and stratum volumes.", **_STYLE
    )
    commands = root.add_subparsers(dest="command", required=True)
    default = "default: %(default)s"

    cmd = _command(commands, "local-poly", local_poly)
    cmd.add_argument("--m", type=int, required=True, help="Number of simple zeros on the layer.")
    cmd.add_argument("--n", type=int, required=True, help="Number of simple poles on the layer.")
    cmd.add_argument("--method", choices=["closed", "recurrence"], default="closed", help=default)
    cmd.add_argument("--format", dest="fmt", choices=["json", "text"], default="json", help=default)

    ribbon = _command(commands, "ribbon", doc="Ribbon-graph enumeration and raw lattice counts.")
    ribbon = ribbon.add_subparsers(dest="command", required=True)
    cmd = _command(ribbon, "enumerate", ribbon_enumerate)
    cmd.add_argument("--m", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd = _command(ribbon, "count", ribbon_count)
    cmd.add_argument("--graph-id", required=True, help="Graph id m-n-i as printed by `ribbon enumerate`.")
    cmd.add_argument("--widths", required=True, help="Comma-separated positive face widths, one per face.")
    cmd = _command(ribbon, "fit", ribbon_fit)
    cmd.add_argument("--m", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)

    cmd = _command(commands, "volume", volume_cmd)
    cmd.add_argument(
        "--K", dest="big_k", metavar="K", type=int, required=True, help="Number of simple zeros of the stratum."
    )
    cmd.add_argument("--per-tree", action="store_true", help="Include one row per decorated tree.")
    cmd.add_argument("--format", dest="fmt", choices=["json", "text", "latex-table"], default="text", help=default)

    covers = _command(commands, "covers", doc="Character-theoretic pillowcase cover counts.")
    covers = covers.add_subparsers(dest="command", required=True)
    cmd = _command(covers, "count", covers_count)
    cmd.add_argument("--K", dest="big_k", metavar="K", type=int, required=True, help="Number of simple zeros.")
    cmd.add_argument("--max-degree", type=int, required=True, help="Largest cover degree to include.")
    cmd.add_argument("--method", choices=["frobenius", "naive"], default="frobenius", help=default)
    cmd = _command(covers, "ratio", covers_ratio)
    cmd.add_argument("--K", dest="big_k", metavar="K", type=int, required=True, help="Number of simple zeros.")
    cmd.add_argument("--degrees", required=True, help="Comma-separated degree bounds, e.g. 10,20,30.")

    cmd = _command(commands, "verify", verify_cmd)
    cmd.add_argument("--K-max", dest="k_max", type=_non_negative, default=2, help=default)
    cmd.add_argument("--mn-max", type=_non_negative, default=8, help=default)
    return root


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run one command and exit: 0 on success, 2 when the request is refused
    before any work (by argparse, or a Refused from the layer that owns the
    limit), and 1 when verify fails or the program faults (a traceback)."""
    opts = _parser(prog_name).parse_args(args)
    # imported once the arguments parse, so that --help loads no layer
    from .rationals import Refused

    try:
        status = opts.run(opts)
    except Refused as exc:
        opts.parser.error(str(exc))
    sys.exit(status or 0)


if __name__ == "__main__":
    main()
