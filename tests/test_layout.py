"""The shipped package holds only code the package itself runs."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pillowcount"


def unreferenced_definitions() -> list[str]:
    """module.name for each module-level function or class of the package
    that no code under src/ refers to outside the definition itself."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {inner.id for inner in ast.walk(node) if isinstance(inner, ast.Name)}
            names |= {inner.attr for inner in ast.walk(node) if isinstance(inner, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.stem}.{node.name}"))
                # a recursive call is no caller
                names.discard(node.name)
            referenced |= names
    return sorted(qualified for name, qualified in defined if name not in referenced)


def test_src_defines_nothing_it_never_calls():
    unused = unreferenced_definitions()
    assert not unused, "no code under src/ calls " + ", ".join(unused)
