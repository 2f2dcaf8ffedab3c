"""The package keeps no helper without a caller: every module-level private
function or class of ``src/alaselect`` is referenced somewhere in the
package outside its own definition."""

import ast
from pathlib import Path

import alaselect

_PACKAGE = Path(alaselect.__file__).parent


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_private`` function or class
    in ``sources`` (module name -> source text) that no other top-level
    statement of any module names, as a ``Name``, an ``Attribute`` or an
    import alias.  Docstrings and comments do not count."""
    defined, used_by = [], []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            used_by.append((node, names))
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if (
                isinstance(node, kinds)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node))
    return [
        f"{module}.{node.name}"
        for module, node in defined
        if not any(node.name in names for other, names in used_by if other is not node)
    ]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(_PACKAGE.glob("*.py"))}


def test_every_private_helper_has_a_caller():
    sources = _package_sources()
    private = sum(
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        for text in sources.values()
        for node in ast.parse(text).body
    )
    assert private > 50
    assert _unreferenced(sources) == []


def test_a_leftover_helper_is_caught():
    """A helper named only in a docstring, or only by itself, has no caller."""
    sources = _package_sources()
    sources["marginal_engines"] += (
        "\n\ndef _newton_diagnostics(trace):\n"
        '    """Unused; ``_newton_diagnostics`` in prose is no call."""\n'
        "    return _newton_diagnostics(trace[1:]) if trace else {}\n"
    )
    assert _unreferenced(sources) == ["marginal_engines._newton_diagnostics"]
