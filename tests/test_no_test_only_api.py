"""Guard: the system packages carry no public API that only tests reach.

Every public function, method and class defined in ``repro.storage``,
``repro.server`` and ``repro.obs`` must be referenced somewhere under
``src/`` or ``bench/load/`` other than its own definition, an ``__all__``
list or an ``__init__`` re-export.  A def that only tests call is code the
program carries for nobody: delete it (rewriting the tests to check the
same property through a path that remains) or, if it is library API on
purpose, give it an :data:`ALLOWLIST` entry with a one-line reason.

References are matched by name — a ``Name``, an attribute, an imported
alias or a string constant (``getattr``-style patching) — so the scan errs
towards "referenced".  Deadness propagates: a def whose only references
sit inside other unreferenced defs is itself unreferenced.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [ROOT / "src" / "repro" / pkg for pkg in ("storage", "server", "obs")]
CALLERS = [ROOT / "src", ROOT / "bench" / "load"]
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
    "CatalogWorkloadLog.compact": "keeps the two workload logs interchangeable",
    "serve_in_thread": "runs a server on a daemon thread for the HTTP batteries",
}

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_defs(roots, excluded=frozenset()):
    """``(qualname, name, path, first line, last line)`` of every public def.

    Module-level functions and classes plus the methods of any class; a
    name starting with ``_`` is private.
    """
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path in excluded:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
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
                    if not d.name.startswith("_")
                )
    return found


def references(roots, excluded=frozenset()):
    """Map each referenced name to the ``(path, line)`` places naming it."""
    places: dict[str, list[tuple[Path, int]]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path in excluded:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = set()
            for node in ast.walk(tree):
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
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    for alias in node.names:
                        places.setdefault(alias.name, []).append((path, node.lineno))
                    continue
                else:
                    continue
                places.setdefault(name, []).append((path, node.lineno))
    return places


def unreferenced(defs, places):
    """The defs no live code references, to a fixed point."""
    dead: list = []
    while True:
        spans = [(d[2], d[3], d[4]) for d in dead]

        def live(place, own):
            path, line = place
            if path == own[2] and own[3] <= line <= own[4]:
                return False
            return not any(path == p and a <= line <= b for p, a, b in spans)

        now = [d for d in defs if not any(live(p, d) for p in places.get(d[1], ()))]
        if now == dead:
            return dead
        dead = now


def allowed(qualname):
    return any(
        qualname == entry or qualname.startswith(entry + ".") for entry in ALLOWLIST
    )


def test_every_public_def_is_reached_from_the_program():
    defs = public_defs(SCANNED, EXCLUDED)
    dead = unreferenced(defs, references(CALLERS, EXCLUDED))
    offenders = [
        f"{path.relative_to(ROOT)}:{first} {qualname}"
        for qualname, _, path, first, _ in dead
        if not allowed(qualname)
    ]
    assert not offenders, (
        "public defs that nothing under src/ or bench/load/ reaches "
        "(delete them, or allowlist them with a reason):\n  "
        + "\n  ".join(offenders)
    )


def test_allowlist_names_existing_defs():
    qualnames = {d[0] for d in public_defs(SCANNED, EXCLUDED)}
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
        "BOX = Box().kept()\n"
    )
    dead = unreferenced(public_defs([package]), references([package]))
    assert sorted(d[0] for d in dead) == ["Box.dropped", "helper", "inner"]
