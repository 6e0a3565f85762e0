"""Run the pillowcount command line with timed spans around its layers.

    PYTHONPATH=src python3 bench/traced_cli.py TRACE_JSON [pillowcount args...]

Before calling ``pillowcount.cli.main``, every function named in SPANS is
replaced by a wrapper in each package module that binds it, so a call is
caught wherever the name is looked up (``verify.leading_part_fit``,
``cli.connected_counts``, ``covers.connected_counts`` inside ``sq_count``).
A name the package no longer defines is skipped and reports zero calls.

Spans (name, start, end, parent) and counters are kept in memory.  At exit
they are reduced to calls and self time per span name (a span's duration
minus that of its child spans) and written to TRACE_JSON together with the
counters and the command time that no span covers.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> function, as a dotted path below the pillowcount package
SPANS = {
    path: path
    for path in (
        "ribbon.exact_lattice_count",
        "ribbon.enumerate_graphs",
        "ribbon.leading_part_fit",
        "layers.f_closed",
        "layers.f_recurrence",
        "layers.f_kontsevich_base",
        "polynomials.apply_D",
        "trees.enumerate_decorated_trees",
        "trees.tree_contribution",
        "trees.local_product",
        "trees.zeta_operator",
        "covers.character",
        "covers.connected_counts",
        "covers.profile_connected_counts",
        "covers.frobenius_count",
        "covers.naive_enumerate",
        "verify.run_verification",
    )
}
SPANS["covers.cache_load"] = "covers.CharacterCache.__init__"
SPANS["covers.cache_flush"] = "covers.CharacterCache.flush"

COUNTERS = (
    "ribbon.lattice_nonzero",
    "ribbon.graphs_enumerated",
    "trees.trees_enumerated",
    "covers.cache_gets",
    "covers.cache_hits",
    "verify.checks",
    "verify.checks_passed",
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, perf_counter(), parent)
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self, command_s: float) -> dict:
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        root_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
            if parent < 0:
                root_s += end - start
        return {
            "command_s": command_s,
            "other_s": command_s - root_s,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {name: self.counters[name] for name in COUNTERS},
        }


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "pillowcount" and m is not None]


def _resolve(path: str):
    """(owner, attribute, function) for a dotted path, or None if absent."""
    owner = sys.modules.get("pillowcount." + path.split(".")[0])
    parts = path.split(".")[1:]
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _on_result(tracer: Tracer, name: str):
    counters = tracer.counters
    if name == "ribbon.exact_lattice_count":
        return lambda count: counters.update({"ribbon.lattice_nonzero": count != 0})
    if name == "ribbon.enumerate_graphs":
        return lambda graphs: counters.update({"ribbon.graphs_enumerated": len(graphs)})
    if name == "trees.enumerate_decorated_trees":
        return lambda found: counters.update({"trees.trees_enumerated": len(found)})
    if name == "verify.run_verification":
        return lambda results: counters.update(
            {"verify.checks": len(results), "verify.checks_passed": sum(r.passed for r in results)}
        )
    return None


def install(tracer: Tracer) -> None:
    """Replace every traced function at each place the package binds it."""
    modules = _package_modules()
    for name, path in SPANS.items():
        found = _resolve(path)
        if found is None:
            continue
        owner, attribute, fn = found
        wrapper = tracer.wrap(name, fn, _on_result(tracer, name))
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    found = _resolve("covers.CharacterCache.get")
    if found is not None:
        owner, attribute, get = found

        def counted_get(self, *args, **kwargs):
            value = get(self, *args, **kwargs)
            tracer.counters["covers.cache_gets"] += 1
            tracer.counters["covers.cache_hits"] += value is not None
            return value

        setattr(owner, attribute, counted_get)


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit("usage: traced_cli.py TRACE_JSON [pillowcount args...]")
    out_path, args = sys.argv[1], sys.argv[2:]
    import pillowcount.cli  # here, so that bench/run.py can import the names above

    tracer = Tracer()
    install(tracer)
    start = perf_counter()
    try:
        pillowcount.cli.main(args=args, prog_name="pillowcount")
    finally:
        summary = tracer.summary(perf_counter() - start)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    main()
