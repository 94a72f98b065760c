"""Every function, class and method in ``src/redspectra`` serves ``synth``,
``analyze`` or ``verify``: code the package itself never reaches belongs
with the tests that run it (``tests/oracles.py``).

The scan is by name.  Module-level code is reached; a definition is
reached when reached code names it, as a variable, as an attribute or as
an identifier-like string (``run_all`` looks each check function up by
its roster name).  A definition's own body does not reach it, and a
dunder method is reached with its class.  The allowed definitions are
reached by decree, and so reach what they name."""

import ast
import os

import redspectra

from test_tracing_contract import _tracing

_PKG = os.path.dirname(redspectra.__file__)

#: definitions the package keeps though no package code names them:
#: qualified name -> reason
ALLOWED = {
    **{f"{mod}.{fn}": "patched by name by the benchmark's span tracer "
                      "(perfbench/tracing.py FUNCTIONS)"
       for mod, fn, _span in _tracing().FUNCTIONS},
    "spectra.ReducedScanner.band_output":
        "patched by the span tracer; goes once the engine times its own "
        "stages",
    "spectra.ReducedScanner.test_regular":
        "patched by the span tracer; goes once the engine times its own "
        "stages",
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _scan():
    """(definitions, references): each definition as (qualified name,
    bare name, its enclosing definitions, its node), each reference as
    (name, its enclosing definitions)."""
    defs, refs = [], []

    def visit(node, qual, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                q = f"{qual}.{child.name}"
                defs.append((q, child.name, enclosing, child))
                visit(child, q, enclosing + (child,))
            elif isinstance(child, ast.Name):
                refs.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing))
            elif isinstance(child, ast.Constant) and \
                    isinstance(child.value, str) and child.value.isidentifier():
                refs.append((child.value, enclosing))
            if not isinstance(child, _DEFS):
                visit(child, qual, enclosing)

    for fname in sorted(os.listdir(_PKG)):
        if fname.endswith(".py"):
            with open(os.path.join(_PKG, fname)) as fh:
                visit(ast.parse(fh.read()), fname[:-3], ())
    return defs, refs


def unreached() -> list:
    """The qualified names of the definitions no reached code names."""
    defs, refs = _scan()
    reached = {node for q, _, _, node in defs if q in ALLOWED}
    grew = True
    while grew:
        names = {name for name, enc in refs if reached.issuperset(enc)}
        grew = False
        for q, name, enc, node in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if node not in reached and (
                    name in names or dunder and reached.issuperset(enc)):
                reached.add(node)
                grew = True
    return sorted(q for q, _, _, node in defs if node not in reached)


def test_every_definition_serves_the_cli():
    assert unreached() == []


def test_every_allowed_definition_exists():
    # a stale entry would hide nothing today but excuse a definition later
    defined = {q for q, *_ in _scan()[0]}
    assert sorted(set(ALLOWED) - defined) == []
