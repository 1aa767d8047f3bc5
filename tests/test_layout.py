"""The answer modules hold only what the command line's answers run.

A public def or class of an answer module that no command can reach is
code that only `oracles` or the tests call; it belongs in `oracles`, or
is listed below with the reason it stays.  Reachability is by name: start
from every identifier that `cli.py` and the answer modules' top-level
statements mention, and follow the identifiers in the body of each def
reached (a reached class brings its bases, decorators, class-level
statements and dunder methods; any other method is reached by its name).
"""

import ast
from pathlib import Path

import bergtoep

SRC = Path(bergtoep.__file__).resolve().parent
ANSWER = ("cpoly", "finsect", "kernel", "symbols", "odekernel", "spectrum")
# kept on their types, though only checks call them
JUSTIFIED = {
    # a stream's true values, mant * exp(log_scale): part of the type
    "kernel.CoefficientStream.coefficients",
}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable_public_defs():
    defs, todo = {}, set(_names(ast.parse((SRC / "cli.py").read_text())))
    for mod in ANSWER:
        for node in ast.parse((SRC / f"{mod}.py").read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo |= _names(node)
                continue
            defs.setdefault(node.name, []).append((f"{mod}.{node.name}", node))
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for sub in methods:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    defs.setdefault(sub.name, []).append((f"{mod}.{node.name}.{sub.name}", sub))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for _, node in defs.get(name, []):
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.bases + node.decorator_list + [
                    s for s in node.body
                    if not isinstance(s, ast.FunctionDef) or s.name.startswith("__")]
            for part in parts:
                todo |= _names(part) - seen
    return {qual for name, entries in defs.items() if not name.startswith("_")
            and name not in seen for qual, _ in entries}


def test_answer_modules_hold_no_check_only_code():
    assert unreachable_public_defs() == JUSTIFIED
