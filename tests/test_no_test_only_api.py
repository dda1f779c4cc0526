"""Guard: ``repro`` carries no API that only tests reach.

Every function, method, class and module-level ``NAME = …`` assignment
defined anywhere in ``src/repro`` (bar the fault-injecting test backends of
``storage/testing.py``) must be referenced from a program path other than
its own definition, an ``__all__`` list or an import.  The program paths are ``src/``, the load
benchmark in ``bench/load/``, the paper-figure benchmarks in
``benchmarks/`` and the runnable ``examples/``.  A def that only tests call
is code the program carries for nobody: delete it (rewriting the tests to
check the same property through a path that remains) or, if it is library
API or a reference implementation on purpose, give it an :data:`ALLOWLIST`
entry with a one-line reason.

References are matched by name — a ``Name`` (or the ``as`` alias it was
imported under), an attribute or a string constant (``getattr``-style
patching) — so the scan errs towards "referenced".  That is its one blind
spot: a def is live while anything of the same bare name is used, so
``Repository.total_storage_cost`` once kept a dead module function of that
name alive.  Private defs take part like public ones; only dunders are left
out.  Deadness propagates: a def whose only references sit inside other
unreferenced defs is itself unreferenced — a dead dispatch table keeps
none of the functions it lists alive — and an allowlisted def is a live
root, so the helpers it calls need no entries of their own.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [ROOT / "src" / "repro"]
CALLERS = [
    ROOT / "src",
    ROOT / "bench" / "load",
    ROOT / "benchmarks",
    ROOT / "examples",
]
# Test support: fault-injecting backends the batteries wrap stores in.
EXCLUDED = {ROOT / "src" / "repro" / "storage" / "testing.py"}

# Qualified name -> reason.  An entry naming a class covers its members.
ALLOWLIST = {
    # stdlib hooks, called by name from http.server
    "_Handler.do_GET": "http.server dispatches GET requests to it",
    "_Handler.do_POST": "http.server dispatches POST requests to it",
    "_Handler.log_message": "silences BaseHTTPRequestHandler's stderr log",
    # client API
    "ServiceClient": "the JSON client library users drive a server with",
    # test hooks
    "MetricsRegistry.null": "the disabled registry the overhead guard measures",
    "Trace.null": "the shared no-op trace, checked by the trace battery",
    "EpochCoordinator.exclusive_held": "lets a battery see the barrier held",
    "WorkloadLog.compact": "forces the log rewrite the workload battery checks",
    "serve_in_thread": "runs a server on a daemon thread for the HTTP batteries",
    # the delta encoder family, kept until Φ ≠ Δ in the live store is decided
    "CellDiffEncoder": "a paper encoder, undecided as a priced store choice",
    "CommandDeltaEncoder": "a paper encoder, undecided as a priced store choice",
    "CompressedEncoder": "a paper encoder, undecided as a priced store choice",
    "TwoWayLineDiffEncoder": "a paper encoder, undecided as a priced store choice",
    "XorDeltaEncoder": "a paper encoder, undecided as a priced store choice",
    "run_length_encode": "the XOR encoder's run-length codec, kept with it",
    "run_length_decode": "the XOR encoder's run-length codec, kept with it",
    # reference implementations
    "branch_and_bound_max_recreation": "the exact oracle the MILP is checked against",
}

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def scanned_defs(roots, excluded=frozenset()):
    """``(qualname, name, path, first line, last line)`` of every def.

    Module-level functions, classes and ``NAME = …`` / ``NAME: T = …``
    assignments plus the methods of any class, private ones included;
    dunders are hooks the language calls, so they are left out.
    """
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path in excluded:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    found.extend(
                        (t.id, t.id, path, node.lineno, node.end_lineno)
                        for t in targets
                        if isinstance(t, ast.Name) and not is_dunder(t.id)
                    )
                    continue
                if not isinstance(node, DEF_NODES):
                    continue
                members = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    members += [
                        (f"{node.name}.{member.name}", member)
                        for member in node.body
                        if isinstance(member, DEF_NODES)
                    ]
                found.extend(
                    (qualname, d.name, path, d.lineno, d.end_lineno)
                    for qualname, d in members
                    if not is_dunder(d.name)
                )
    return found


def references(roots, excluded=frozenset()):
    """Map each referenced name to the ``(path, line)`` places naming it.

    An import is not a use: a name imported under an ``as`` alias is
    referenced where the alias is used.
    """
    places: dict[str, list[tuple[Path, int]]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path in excluded:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = set()
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    aliases.update(
                        (alias.asname, alias.name)
                        for alias in node.names
                        if alias.asname
                    )
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AugAssign)
                    else []
                )
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    exported.update(id(child) for child in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) in exported:
                        continue
                    name = node.value
                else:
                    continue
                places.setdefault(name, []).append((path, node.lineno))
                if name in aliases:
                    places.setdefault(aliases[name], []).append((path, node.lineno))
    return places


def unreferenced(defs, places, keep=lambda qualname: False):
    """The defs no live code references, to a fixed point.

    A def ``keep`` accepts is never dead, so what it references stays live.
    """
    dead: list = []
    while True:
        spans = [(d[2], d[3], d[4]) for d in dead]

        def live(place, own):
            path, line = place
            if path == own[2] and own[3] <= line <= own[4]:
                return False
            return not any(path == p and a <= line <= b for p, a, b in spans)

        now = [
            d for d in defs
            if not keep(d[0])
            and not any(live(p, d) for p in places.get(d[1], ()))
        ]
        if now == dead:
            return dead
        dead = now


def allowed(qualname):
    return any(
        qualname == entry or qualname.startswith(entry + ".") for entry in ALLOWLIST
    )


def test_every_public_def_is_reached_from_the_program():
    defs = scanned_defs(SCANNED, EXCLUDED)
    dead = unreferenced(defs, references(CALLERS, EXCLUDED), keep=allowed)
    offenders = [
        f"{path.relative_to(ROOT)}:{first} {qualname}"
        for qualname, _, path, first, _ in dead
    ]
    assert not offenders, (
        "defs that nothing under src/, bench/load/, benchmarks/ or examples/ "
        "reaches (delete them, or allowlist them with a reason):\n  "
        + "\n  ".join(offenders)
    )


def test_allowlist_names_existing_defs():
    qualnames = {d[0] for d in scanned_defs(SCANNED, EXCLUDED)}
    stale = [entry for entry in ALLOWLIST if entry not in qualnames]
    assert not stale, f"allowlist entries naming no def: {stale}"


def test_scan_propagates_deadness_and_ignores_exports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        'from .mod import helper, used\n__all__ = ["helper", "used"]\n'
    )
    (package / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def helper():\n"
        "    return helper() + inner()\n"
        "\n"
        "def inner():\n"
        "    return 2\n"
        "\n"
        "class Box:\n"
        "    def kept(self):\n"
        "        return used()\n"
        "    def dropped(self):\n"
        "        return 3\n"
        "\n"
        "print(Box().kept())\n"
    )
    dead = unreferenced(scanned_defs([package]), references([package]))
    assert sorted(d[0] for d in dead) == ["Box.dropped", "helper", "inner"]


def test_scan_counts_an_import_only_where_the_name_is_used(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "helpers.py").write_text(
        "def aliased():\n"
        "    return 1\n"
        "\n"
        "def imported_only():\n"
        "    return 2\n"
        "\n"
        "def used_by_dead():\n"
        "    return 3\n"
    )
    (package / "mod.py").write_text(
        "from .helpers import aliased as renamed, imported_only, used_by_dead\n"
        "\n"
        "def dead():\n"
        "    return used_by_dead()\n"
        "\n"
        "print(renamed())\n"
    )
    dead = unreferenced(scanned_defs([package]), references([package]))
    assert sorted(d[0] for d in dead) == ["dead", "imported_only", "used_by_dead"]


def test_scan_propagates_deadness_through_private_defs(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def dead():\n"
        "    return _helper()\n"
        "\n"
        "def _helper():\n"
        "    return _Config()\n"
        "\n"
        "class _Config:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "    def _record(self):\n"
        "        return 2\n"
        "\n"
        "class Live:\n"
        "    def __repr__(self):\n"
        "        return 'live'\n"
        "\n"
        "print(Live())\n"
    )
    dead = unreferenced(scanned_defs([package]), references([package]))
    assert sorted(d[0] for d in dead) == ["_Config", "_Config._record", "_helper", "dead"]


def test_kept_defs_are_live_roots(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def kept():\n"
        "    return _helper()\n"
        "\n"
        "def _helper():\n"
        "    return 1\n"
        "\n"
        "def dropped():\n"
        "    return 2\n"
    )
    dead = unreferenced(
        scanned_defs([package]), references([package]), keep=lambda q: q == "kept"
    )
    assert [d[0] for d in dead] == ["dropped"]


def test_a_dead_table_keeps_nothing_alive(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def listed():\n"
        "    return 1\n"
        "\n"
        "def served():\n"
        "    return 2\n"
        "\n"
        "_TABLE = {'listed': listed}\n"
        "ROUTES: dict = {'served': served}\n"
        "\n"
        "def main():\n"
        "    return ROUTES\n"
        "\n"
        "main()\n"
    )
    dead = unreferenced(scanned_defs([package]), references([package]))
    assert sorted(d[0] for d in dead) == ["_TABLE", "listed"]
