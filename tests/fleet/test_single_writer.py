"""One admission writer (DESIGN.md invariant 11).

In ``repro.fleet`` and ``repro.scenarios`` only ``FleetGateway._move``
may assign a backend's admission fields, so every admission move goes
through ``ADMISSION_MOVES``.  The check walks the syntax tree of each
module; it runs on the sources, where it must find nothing outside the
writer, and on planted sources, where it must find the planted line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TREES = ("fleet", "scenarios")
FIELDS = frozenset({"state", "verdict_ok", "verdict_reason", "verdict_time"})
WRITER = ("FleetGateway", "_move")


def _targets(node):
    """The expressions *node* assigns to."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
        pending = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        pending = [item.optional_vars for item in node.items if item.optional_vars]
    else:
        pending = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            yield target


def admission_writes(source: str):
    """``(line, enclosing class/function names)`` of every assignment
    to an admission field in *source*, ``setattr`` included."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and target.attr in FIELDS:
                found.append((target.lineno, scope))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FIELDS
        ):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def stray_writes(source: str, path: str):
    """Every admission-field assignment outside the writer, as
    ``path:line``."""
    return [
        f"{path}:{line}"
        for line, scope in admission_writes(source)
        if scope[:2] != WRITER
    ]


def _modules():
    for tree in TREES:
        for path in sorted((SRC / tree).rglob("*.py")):
            yield path.relative_to(SRC.parent).as_posix(), path.read_text()


def test_only_the_writer_assigns_admission_fields():
    strays = [hit for path, text in _modules() for hit in stray_writes(text, path)]
    assert strays == []


def test_the_writer_assigns_every_admission_field():
    gateway = (SRC / "fleet" / "gateway.py").read_text()
    tree = ast.parse(gateway)
    assigned = {
        target.attr
        for node in ast.walk(tree)
        for target in _targets(node)
        if isinstance(target, ast.Attribute)
    }
    assert FIELDS <= assigned
    assert {scope[:2] for _, scope in admission_writes(gateway)} == {WRITER}


PLANTED = '''\
class FleetGateway:
    def _move(self, backend):
        backend.state = "admitted"

    def evict(self, backend):
        {plant}
'''


@pytest.mark.parametrize("plant, writes", [
    ('backend.state = "evicted"', 1),
    ("backend.verdict_ok, backend.verdict_time = False, None", 2),
    ("backend.verdict_time += 1.0", 1),
    ('setattr(backend, "verdict_reason", "forged")', 1),
    ("for backend.state in ('draining',): pass", 1),
])
def test_a_planted_write_outside_the_writer_is_caught(plant, writes):
    source = PLANTED.format(plant=plant)
    assert stray_writes(source, "planted.py") == ["planted.py:6"] * writes
