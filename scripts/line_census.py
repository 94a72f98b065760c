#!/usr/bin/env python3
"""Print every definition in ``src/redspectra`` whose body never ran.

Usage:
    PYTHONPATH=src python scripts/line_census.py

A ``sys.settrace`` line tracer watches the package's own frames while
this roster of CLI calls runs in-process, in a temporary directory:

* ``synth`` of every corpus name, and once with ``--tmax`` and ``--dt``;
* ``verify --builtin --config FILE`` and ``verify DIR --only regular-ft``
  (DIR holds the synthesized records);
* ``analyze`` of laplace, weak-laplace, beurling and the reduced spectrum
  of every class on ``exp_iw1``, ``so_composite`` and ``chirp`` (one call
  with ``--grid``);
* ``analyze`` of carleman and beurling on ``exp_iw1_full``, ``sinc_full``
  and ``tchirp_full``;
* ``analyze`` of laplace on a CSV with a malformed row and on one with a
  ``nan`` sample, each refused with exit 2, so the reader's re-read of a
  bad file runs;
* ``analyze`` of laplace with a config whose grid step (1e-300) asks for
  more points than numpy allocates, ``synth exp_iw1 --tmax 1e300``,
  ``verify --builtin`` with an output step (1e300) longer than the
  record, on which no band-pass rung can be built, ``verify --builtin
  --only mollifier-union`` at ``t_end`` 40, on whose lattice the
  truncation-budget admission refuses every rung, and ``analyze
  exp_iw1.csv --out exp_iw1.json``, whose report would overwrite the
  record's sidecar, each refused with exit 2;
* ``analyze --kind beurling`` of ``exp_iw1`` under a sidecar that
  declares growth exponent 57 (a link to the record beside its own
  sidecar), whose envelope at the band-pass kernels' reach is past the
  float range, refused with exit 2;
* ``verify DIR`` of a directory holding only ``exp_iw1`` under a sidecar
  that declares growth exponent 56, on which the truncation-budget
  admission refuses every band-pass rung, and ``synth`` of an unknown
  name, each refused with exit 2.

A definition (function or method, nested ones included) ran when a line
of one of its own simple statements ran: a loop or ``if`` header alone
does not count, so a function whose loop never turns is listed.  The
output is one qualified name per line, ``module.Class.method`` or
``module.function.inner``, sorted.  Diff it between two checkouts as
with ``scripts/report_digests.py``.  The roster takes about half a
minute.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

# located, not imported: the package is imported under the tracer, so the
# functions its module-level code calls count as run
_PKG = importlib.util.find_spec("redspectra").submodule_search_locations[0]
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCS + (ast.ClassDef, ast.Lambda)


def _own_lines(fn) -> set:
    """Lines of the simple statements of ``fn``'s own body (nested
    definitions and the docstring excluded)."""
    lines = set()
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        body = body[1:]
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        children = [c for c in ast.iter_child_nodes(node)
                    if isinstance(c, (ast.stmt, ast.excepthandler,
                                      ast.match_case))]
        if children:                # compound: only its inner statements
            todo.extend(children)
        elif isinstance(node, ast.stmt):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def definitions() -> dict:
    """(file, first line, name) of each function's code object ->
    [qualified name, its own simple-statement lines]."""
    defs = {}

    def visit(node, qual, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCS + (ast.ClassDef,)):
                q = f"{qual}.{child.name}"
                if isinstance(child, _FUNCS):
                    first = min([child.lineno] +
                                [d.lineno for d in child.decorator_list])
                    defs[(path, first, child.name)] = [q, _own_lines(child)]
                visit(child, q, path)
            else:
                visit(child, qual, path)

    for fname in sorted(os.listdir(_PKG)):
        if fname.endswith(".py"):
            path = os.path.join(_PKG, fname)
            with open(path) as fh:
                visit(ast.parse(fh.read()), fname[:-3], path)
    return defs


class Census:
    """The tracer: a frame of a definition not yet seen to run is traced
    line by line until one of its own simple statements runs."""

    def __init__(self):
        self.defs = definitions()
        self.ran = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        if key in self.ran or key not in self.defs:
            return None
        own = self.defs[key][1]

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in own:
                self.ran.add(key)
                return None
            return line
        return line

    def run(self, fn, *args):
        sys.settrace(self._call)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)

    def never_ran(self) -> list:
        return sorted(q for key, (q, _) in self.defs.items()
                      if key not in self.ran)


def _package():
    """The CLI entry point, the class list and the corpus names."""
    from redspectra.classes import FunctionClass
    from redspectra.cli import main
    from redspectra.corpus import BUILDERS
    return main, FunctionClass, BUILDERS


def roster(work: str, classes, names) -> list:
    """(argv, expected exit code) of each call of the census, in order."""
    data = os.path.join(work, "data")
    cfg = os.path.join(work, "config.json")
    with open(cfg, "w") as fh:
        json.dump({"dt": 0.01}, fh)
    calls = [["synth", name, "--out", data] for name in names]
    calls.append(["synth", "exp_iw1", "--tmax", "60", "--dt", "0.02",
                  "--out", os.path.join(work, "short")])
    calls.append(["verify", "--builtin", "--config", cfg,
                  "--out", os.path.join(work, "builtin.json")])
    calls.append(["verify", data, "--only", "regular-ft",
                  "--out", os.path.join(work, "regular-ft.json")])
    kinds = [["--kind", k] for k in ("laplace", "weak-laplace", "beurling")]
    kinds += [["--kind", "reduced", "--class", c.value] for c in classes]
    for record in ("exp_iw1", "so_composite", "chirp"):
        for kind in kinds:
            calls.append(["analyze", os.path.join(data, f"{record}.csv"),
                          *kind, "--out",
                          os.path.join(work, f"{record}-{kind[-1]}.json")])
    calls[-1] += ["--grid=-2:2:0.1"]
    for record in ("exp_iw1_full", "sinc_full", "tchirp_full"):
        for kind in ("carleman", "beurling"):
            calls.append(["analyze", os.path.join(data, f"{record}.csv"),
                          "--kind", kind, "--out",
                          os.path.join(work, f"{record}-{kind}.json")])
    bad = []
    for name, row in (("malformed", "0.01,oops,0"), ("nan", "0.01,nan,0")):
        path = os.path.join(work, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(f"t,re0,im0\n0,1,0\n{row}\n0.02,1,0\n")
        bad.append(["analyze", path, "--kind", "laplace", "--out",
                    os.path.join(work, f"{name}-laplace.json")])
    huge = os.path.join(work, "huge-grid.json")
    with open(huge, "w") as fh:
        json.dump({"grid_step": 1e-300}, fh)
    bad.append(["analyze", os.path.join(data, "exp_iw1.csv"), "--kind",
                "laplace", "--config", huge, "--out",
                os.path.join(work, "huge-grid-report.json")])
    bad.append(["synth", "exp_iw1", "--tmax", "1e300", "--out",
                os.path.join(work, "huge")])
    stride = os.path.join(work, "huge-stride.json")
    with open(stride, "w") as fh:
        json.dump({"conv_out_step": 1e300}, fh)
    bad.append(["verify", "--builtin", "--config", stride, "--out",
                os.path.join(work, "huge-stride-report.json")])
    short = os.path.join(work, "short-horizon.json")
    with open(short, "w") as fh:
        json.dump({"t_end": 40}, fh)
    bad.append(["verify", "--builtin", "--only", "mollifier-union",
                "--config", short, "--out",
                os.path.join(work, "short-horizon-report.json")])
    bad.append(["analyze", os.path.join(data, "exp_iw1.csv"), "--kind",
                "laplace", "--out", os.path.join(data, "exp_iw1.json")])
    grow = os.path.join(work, "grow57.csv")
    os.symlink(os.path.join(data, "exp_iw1.csv"), grow)    # synth writes it
    with open(os.path.join(work, "grow57.json"), "w") as fh:
        json.dump({"domain": "half_line", "growth_exponent": 57}, fh)
    bad.append(["analyze", grow, "--kind", "beurling", "--out",
                os.path.join(work, "grow57-beurling.json")])
    grow56 = os.path.join(work, "grow56")
    os.mkdir(grow56)
    os.symlink(os.path.join(data, "exp_iw1.csv"),
               os.path.join(grow56, "exp_iw1.csv"))
    with open(os.path.join(grow56, "exp_iw1.json"), "w") as fh:
        json.dump({"domain": "half_line", "growth_exponent": 56}, fh)
    bad.append(["verify", grow56, "--out",
                os.path.join(work, "grow56-report.json")])
    bad.append(["synth", "nope", "--out", os.path.join(work, "nope")])
    return [(argv, 0) for argv in calls] + [(argv, 2) for argv in bad]


def main():
    census = Census()
    cli_main, classes, names = census.run(_package)
    with tempfile.TemporaryDirectory() as work:
        for argv, expected in roster(work, classes, names):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = census.run(cli_main, argv)
                except Exception as exc:    # a traceback: the process exits 1
                    rc = f"1 ({exc!r})"
            if rc != expected:
                print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
    for name in census.never_ran():
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
