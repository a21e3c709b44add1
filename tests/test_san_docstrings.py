"""Docstring gate for the SAN execution core.

The ruff ``D100``/``D101``/``D102``/``D103`` rules are scoped (via a
negated per-file-ignore in ``ruff.toml``) to the five modules whose
public surface carries the determinism/draw-order contract.  This test
mirrors that gate with a plain AST walk, so the obligation is enforced
even where ruff is not installed, and additionally checks that the
module docstrings actually state the contract.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.san

SAN_DIR = Path(repro.san.__file__).parent

#: The SAN execution core: every public symbol must be documented.
GATED_MODULES = ("solver", "execution", "compiled", "batched", "executor")


def _missing_docstrings(tree: ast.Module) -> list:
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = child.name
            if name.startswith("_"):  # private (and magic) names are exempt
                continue
            if ast.get_docstring(child) is None:
                missing.append(f"{prefix}{name} (line {child.lineno})")
            if isinstance(child, ast.ClassDef):
                walk(child, prefix=f"{prefix}{name}.")

    walk(tree, prefix="")
    return missing


@pytest.mark.parametrize("module", GATED_MODULES)
def test_san_core_public_surface_is_fully_documented(module):
    source = (SAN_DIR / f"{module}.py").read_text()
    missing = _missing_docstrings(ast.parse(source))
    assert not missing, (
        f"repro/san/{module}.py public symbols without docstrings: {missing}"
    )


@pytest.mark.parametrize("module", GATED_MODULES)
def test_san_core_module_docstrings_state_the_determinism_contract(module):
    source = (SAN_DIR / f"{module}.py").read_text()
    doc = (ast.get_docstring(ast.parse(source)) or "").lower()
    assert any(word in doc for word in ("determin", "bit-identical", "draw order")), (
        f"repro/san/{module}.py module docstring must state the "
        "determinism/draw-order obligations"
    )
