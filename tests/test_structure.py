"""The package keeps no helper without a caller: every module-level private
function or class of ``src/alaselect`` is referenced somewhere in the
package outside its own definition, and so is every public one of
``marginal_engines`` and ``references`` that ``alaselect.__all__`` does
not list."""

import ast
from pathlib import Path

import alaselect

_PACKAGE = Path(alaselect.__file__).parent


def _unreferenced(sources: dict[str, str], public=(), exported=()) -> list[str]:
    """``module.name`` of each module-level ``_private`` function or class
    in ``sources`` (module name -> source text), and of each public one of
    the modules ``public`` whose name ``exported`` does not hold, that no
    other top-level statement of any module names, as a ``Name``, an
    ``Attribute`` or an import alias.  Docstrings and comments do not
    count."""
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
            if not isinstance(node, kinds) or node.name.startswith("__"):
                continue
            if node.name.startswith("_") or (
                module in public and node.name not in exported
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


def test_every_public_engine_is_called_or_exported():
    """Each engine is reached through the scorer's engine table, another
    engine or the command line, or is part of the package's interface: no
    second way to a score grows beside the table."""
    sources = _package_sources()
    modules = ("marginal_engines", "references")
    public = [
        node.name
        for module in modules
        for node in ast.parse(sources[module]).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    assert len(public) > 10
    assert _unreferenced(sources, modules, alaselect.__all__) == []


def test_a_leftover_public_engine_is_caught():
    """A public engine that only delegates to a table engine, and that
    nothing calls or exports, is a leftover dispatch layer."""
    sources = _package_sources()
    sources["marginal_engines"] += (
        "\n\ndef la_marginal(model, cache, family, prior):\n"
        '    """Unused; ``la_marginal`` in prose is no call."""\n'
        "    return _la_known_phi(model, cache, family, prior)\n"
    )
    found = _unreferenced(sources, ("marginal_engines",), alaselect.__all__)
    assert found == ["marginal_engines.la_marginal"]
    # listed in the package's interface, it is no leftover
    exported = [*alaselect.__all__, "la_marginal"]
    assert _unreferenced(sources, ("marginal_engines",), exported) == []


def test_every_engine_row_names_one_engine():
    """Each engine-table row names one engine, which scores a batch: the
    known-dispersion ``la`` engine or a stacked engine, never a loop
    adapter that scores model by model."""
    from functools import partial

    from alaselect import marginal_engines as me

    assert len(me._ENGINES) == 21
    engines = set(me._ENGINES.values())
    assert not any(isinstance(engine, partial) for engine in engines)
    assert all(
        engine is me.la_known_phi_many
        or engine.__qualname__ == f"{me._stacked.__name__}.<locals>.engine"
        for engine in engines
    )
    assert engines == {
        me._known_phi_ala,
        me._scale_plugin,
        me._exact_gaussian,
        me.la_known_phi_many,
        me._la_unknown_phi,
        me._la_aft,
        me._ala_refined,
    }
