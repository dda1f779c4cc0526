"""Command-line interface for the prototype version manager.

The paper's prototype exposes "a subset of Git/SVN-like interface for
dataset versioning" through a thin client.  This module provides the same
surface as a console entry point operating on a directory-backed
repository::

    python -m repro init        myrepo
    python -m repro init        myrepo --backend zip://objects
    python -m repro commit      myrepo data.csv -m "nightly export"
    python -m repro log         myrepo
    python -m repro branch      myrepo experiments
    python -m repro checkout    myrepo v3 -o restored.csv
    python -m repro checkout    myrepo v1 v2 v3 --batch -o outdir
    python -m repro stats       myrepo
    python -m repro repack      myrepo --problem 3 --threshold-factor 1.5
    python -m repro repack      myrepo --workload --dry-run
    python -m repro solve       myrepo --problem 6 --threshold 2e6
    python -m repro serve       myrepo --port 8750

``checkout``, ``stats`` and ``repack`` are remote-aware: pass
``http://HOST:PORT`` (a running ``repro serve`` process) instead of a
repository directory and the command is served over the JSON API with the
server's warm cache (``repack`` triggers the server's *online* repack,
which re-encodes the store while checkouts keep being served)::

    python -m repro checkout    http://127.0.0.1:8750 v3 -o restored.csv
    python -m repro stats       http://127.0.0.1:8750
    python -m repro repack      http://127.0.0.1:8750 --workload

Checkouts — local one-shots and served ones alike — are recorded in a
persistent per-repository workload log (``workload.log``), so ``repack
--workload`` optimizes the storage plan against the access frequencies the
repository actually observed (the paper's Figure 16 workload-aware
problems).

The repository state (version graph, branch heads and the object-id mapping)
is persisted as JSON next to the object store, so successive invocations
operate on the same history.  Payloads are treated as line-oriented text
files, matching the line-diff encoder the prototype uses by default.

``init --backend`` selects where object bytes live (``file://PATH``, or
``zip://PATH`` for zlib-compressed objects; ``memory://`` is rejected
because CLI invocations are separate processes); relative paths are
resolved inside the repository directory and the chosen spec is remembered
in the state file.  ``checkout --batch`` serves many versions through the
batch engine, replaying shared delta-chain prefixes only once.

``init --backend sqlite://PATH`` puts *all* metadata — version graph,
branch heads, epoch pointer, workload counters, controller state — plus
the object bytes into one transactional SQLite database (WAL mode).  The
JSON state file shrinks to a backend pointer; multiple processes (several
``repro serve`` instances, or serve + CLI one-shots) can then share the
store safely: commits and repack epoch swaps are single transactions, and
each process adopts peer changes by watching the catalog's change counter.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
from typing import Sequence

from .bench.harness import format_table
from .core.problems import default_threshold, solve
from .delta.line_diff import LineDiffEncoder
from .exceptions import ReproError
from .storage.repository import Repository
from .storage.workload_log import WorkloadLog

__all__ = ["main", "build_parser", "load_repository", "save_repository"]

_STATE_FILE = "repro_state.json"
_OBJECTS_DIR = "objects"
_DEFAULT_BACKEND = f"file://{_OBJECTS_DIR}"
_WORKLOAD_FILE = "workload.log"


def open_workload_log(
    directory: str,
    half_life: float | None = None,
    repo: Repository | None = None,
) -> WorkloadLog:
    """The repository's persistent access-frequency log.

    Lives next to the state file, so checkouts served by any process —
    CLI one-shots and ``repro serve`` alike — accumulate into one record
    that ``repro repack --workload`` can optimize against.  ``half_life``
    configures the decaying view (in accesses) for ``--half-life`` flows.

    When ``repo`` is backed by a ``sqlite://`` metadata catalog the log
    lives in the catalog itself (one transactional home for all metadata,
    shared by every process on the store) instead of a sidecar file.
    """
    catalog = getattr(repo, "catalog", None) if repo is not None else None
    if catalog is not None:
        from .storage.catalog import CatalogWorkloadLog

        if half_life is not None:
            return CatalogWorkloadLog(catalog, half_life=half_life)
        return CatalogWorkloadLog(catalog)
    path = os.path.join(directory, _WORKLOAD_FILE)
    if half_life is not None:
        return WorkloadLog(path, half_life=half_life)
    return WorkloadLog(path)


def _resolve_backend_spec(spec: str, directory: str) -> str:
    """Anchor relative ``file://`` / ``zip://`` paths inside the repository.

    Composite ``shard://N/CHILDSPEC`` specs anchor their *child* spec;
    remote ``http://`` specs carry no filesystem path and pass through.
    """
    if "://" not in spec:
        spec = f"file://{spec}"
    scheme, _, path = spec.partition("://")
    if scheme == "shard":
        count, sep, child = path.partition("/")
        if sep and child:
            return f"{scheme}://{count}/{_resolve_backend_spec(child, directory)}"
        return spec  # malformed — open_backend reports the proper error
    if scheme in ("http", "https"):
        return spec
    if path and not os.path.isabs(path):
        path = os.path.join(directory, path)
    return f"{scheme}://{path}"


def _absolutize_spec(spec: str) -> str:
    """Absolutize every filesystem path inside ``spec`` (shard children too).

    Used when persisting a hand-built repository: the state file is later
    resolved against the repository directory, so any cwd-relative path
    must be pinned down now or the reload points at the wrong store.
    """
    if "://" not in spec:
        spec = f"file://{spec}"
    scheme, _, path = spec.partition("://")
    if scheme == "shard":
        count, sep, child = path.partition("/")
        if not (count.isdigit() and sep and child):
            raise ReproError(
                f"backend spec {spec!r} cannot be reopened; construct the "
                "sharded backend from a 'shard://N/CHILDSPEC' spec to "
                "persist this repository"
            )
        return f"{scheme}://{count}/{_absolutize_spec(child)}"
    if scheme in ("http", "https", "memory"):
        return spec
    if path and not os.path.isabs(path):
        path = os.path.abspath(path)
    return f"{scheme}://{path}"


def _require_persistent(backend_spec: str) -> str:
    """Reject backends that cannot outlive a CLI process.

    Every CLI invocation is a separate process: a memory-backed store would
    lose the object bytes while ``repro_state.json`` keeps claiming they
    exist, silently corrupting the repository.  Sharded specs are checked
    at their leaves — ``shard://2/memory://`` is just as volatile.
    """
    scheme, _, path = backend_spec.partition("://")
    if scheme == "memory":
        raise ReproError(
            "memory:// cannot back a persisted CLI repository; "
            "use file://PATH or zip://PATH"
        )
    if scheme == "shard":
        _, sep, child = path.partition("/")
        if sep and child:
            _require_persistent(child if "://" in child else f"file://{child}")
    return backend_spec


# --------------------------------------------------------------------- #
# persistence of the repository metadata
# --------------------------------------------------------------------- #
def save_repository(repo: Repository, directory: str) -> None:
    """Persist the repository's metadata (graph, branches, object ids)."""
    backend_spec = getattr(repo, "backend_spec", None)
    if backend_spec is None:
        # Fall back to the store's actual spec (not the CLI default) so a
        # hand-built Repository saved through this helper reloads against
        # the backend that really holds its objects.  The spec may carry
        # cwd-relative paths (including inside shard children);
        # load_repository resolves relative paths against the repository
        # directory, so absolutize everything here.  Hand-built sharded
        # backends without a reopenable spec are rejected loudly rather
        # than persisted as a state file no process could ever open.
        backend_spec = _absolutize_spec(repo.store.backend.spec())
    state_path = os.path.join(directory, _STATE_FILE)
    if repo.catalog is not None:
        # The sqlite:// catalog is the authoritative metadata store; the
        # state file shrinks to a pointer so `load_repository` knows which
        # backend to open.  Mirroring graph/branches/epoch here would just
        # create a second copy that goes stale the moment a peer process
        # commits through the shared catalog.
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump({"backend": _require_persistent(backend_spec)}, handle, indent=2)
        return
    state = {
        "backend": _require_persistent(backend_spec),
        "counter": repo._counter,
        # The repack epoch rides along so `stats.repack.epoch` stays
        # monotonic across restarts even without a catalog.
        "epoch": repo.epoch,
        "current_branch": repo.current_branch,
        "branches": {
            name: head for name, head in repo.branches.items()
        },
        "versions": [
            {
                "id": version.version_id,
                "size": version.size,
                "name": version.name,
                "parents": list(version.parents),
                "created_at": version.created_at,
                "object": repo.object_id_of(version.version_id),
            }
            for version in repo.graph.versions
        ],
    }
    with open(state_path, "w", encoding="utf-8") as handle:
        json.dump(state, handle, indent=2)


def load_repository(directory: str) -> Repository:
    """Load a directory-backed repository previously created by the CLI."""
    state_path = os.path.join(directory, _STATE_FILE)
    if not os.path.exists(state_path):
        raise ReproError(
            f"{directory!r} is not a repro repository (missing {_STATE_FILE}); "
            "run 'repro init' first"
        )
    with open(state_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)

    backend_spec = state.get("backend", _DEFAULT_BACKEND)
    repo = Repository(
        encoder=LineDiffEncoder(),
        backend=_resolve_backend_spec(backend_spec, directory),
        delta_against_parent=True,
    )
    repo.backend_spec = backend_spec
    if repo.catalog is not None:
        # sqlite:// repositories self-load: the Repository constructor
        # already synced graph, branches, counter and epoch straight from
        # the transactional catalog, which outranks any JSON mirror.
        return repo
    # Rebuild the version graph and object mapping without re-encoding.
    from .core.version import Version

    for entry in state["versions"]:
        repo.graph.add_version(
            Version(
                version_id=entry["id"],
                size=entry["size"],
                name=entry["name"],
                parents=tuple(entry["parents"]),
                created_at=entry["created_at"],
            )
        )
        repo._set_object(entry["id"], entry["object"])
    repo._branches = dict(state["branches"])
    repo._current_branch = state["current_branch"]
    repo._counter = state["counter"]
    repo.epoch = int(state.get("epoch", 0))
    return repo


def _init_repository(directory: str, backend_spec: str = _DEFAULT_BACKEND) -> Repository:
    _require_persistent(backend_spec)
    os.makedirs(directory, exist_ok=True)
    repo = Repository(
        encoder=LineDiffEncoder(),
        backend=_resolve_backend_spec(backend_spec, directory),
    )
    repo.backend_spec = backend_spec
    save_repository(repo, directory)
    return repo


# --------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------- #
def _cmd_init(args: argparse.Namespace) -> int:
    repo = _init_repository(args.repository, args.backend)
    print(
        f"initialized empty repro repository in {args.repository} "
        f"(backend {repo.backend_spec})"
    )
    return 0


def _cmd_commit(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    with open(args.file, "r", encoding="utf-8") as handle:
        payload = handle.read().splitlines()
    if args.branch:
        repo.switch(args.branch)
    parents = args.parent if args.parent else None
    version_id = repo.commit(payload, parents=parents, message=args.message or "")
    save_repository(repo, args.repository)
    print(f"committed {version_id} on branch {repo.current_branch}")
    return 0


def _is_remote(repository: str) -> bool:
    """True when the repository argument names a running service, not a dir."""
    return repository.startswith(("http://", "https://"))


def _cmd_checkout(args: argparse.Namespace) -> int:
    if _is_remote(args.repository):
        return _remote_checkout(args)
    repo = load_repository(args.repository)
    if args.batch or len(args.versions) > 1:
        code = _batch_checkout(repo, args)
        if code == 0:
            open_workload_log(args.repository, repo=repo).record_many(args.versions)
        return code
    version = args.versions[0]
    result = repo.checkout(version)
    open_workload_log(args.repository, repo=repo).record(version)
    text = "\n".join(result.payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"checked out {version} to {args.output} "
            f"(chain length {result.chain_length}, "
            f"recreation cost {result.recreation_cost:.0f})"
        )
    else:
        print(text)
    return 0


def _check_batch_output(output: str | None) -> None:
    if output and os.path.exists(output) and not os.path.isdir(output):
        raise ReproError(
            f"batch checkout writes one file per version: {output!r} "
            "exists and is not a directory"
        )


def _emit_batch_payloads(payloads: dict[str, list[str]], output: str | None) -> None:
    """Write one ``<vid>.txt`` per version under ``output``, or — mirroring
    single-version checkout — print one '### <id>' block per version."""
    if output:
        os.makedirs(output, exist_ok=True)
        for vid, lines in payloads.items():
            path = os.path.join(output, f"{vid}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
    else:
        for vid, lines in payloads.items():
            print(f"### {vid}")
            print("\n".join(lines))


def _batch_checkout(repo: Repository, args: argparse.Namespace) -> int:
    _check_batch_output(args.output)
    result = repo.checkout_many(args.versions)
    _emit_batch_payloads(
        {vid: item.payload for vid, item in result.items.items()}, args.output
    )
    if not args.output:
        return 0
    rows = [
        [
            vid,
            item.chain_length,
            item.deltas_applied,
            f"{item.recreation_cost:.0f}",
            f"{item.predicted_cost:.0f}",
        ]
        for vid, item in result.items.items()
    ]
    print(format_table(["version", "chain", "deltas applied", "paid", "predicted"], rows))
    summary = result.summary()
    print(
        f"batch: {result.deltas_applied}/{result.naive_delta_applications} delta "
        f"applications, paid {summary['recreation_cost_paid']:.0f} of "
        f"{summary['recreation_cost_predicted']:.0f} predicted "
        f"(saved {summary['recreation_cost_saved']:.0f})"
    )
    if args.output:
        print(f"wrote {len(result.items)} files to {args.output}")
    return 0


def _remote_checkout(args: argparse.Namespace) -> int:
    """Serve checkout(s) from a running ``repro serve`` process."""
    from .server.remote import ServiceClient

    client = ServiceClient(args.repository)
    if args.batch or len(args.versions) > 1:
        _check_batch_output(args.output)
        result = client.checkout_many(args.versions)
        _emit_batch_payloads(
            {vid: item["payload"] for vid, item in result["items"].items()},
            args.output,
        )
        if args.output:
            summary = result["summary"]
            print(
                f"remote batch: {summary['deltas_applied']:.0f}/"
                f"{summary['naive_delta_applications']:.0f} delta applications, "
                f"wrote {len(result['items'])} files to {args.output}"
            )
        return 0
    response = client.checkout(args.versions[0])
    text = "\n".join(response["payload"])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"checked out {response['version']} from {args.repository} to "
            f"{args.output} (chain length {response['chain_length']}, "
            f"deltas applied {response['deltas_applied']})"
        )
    else:
        print(text)
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    rows = [
        [version.version_id, version.name or "", len(version.parents), f"{version.size:.0f}"]
        for version in repo.log(args.version)
    ]
    print(format_table(["version", "message", "parents", "size"], rows))
    return 0


def _cmd_branch(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    if args.name:
        repo.branch(args.name, at=args.at)
        save_repository(repo, args.repository)
        print(f"created branch {args.name}")
    else:
        rows = [
            [("*" if name == repo.current_branch else " ") + name, head or "(empty)"]
            for name, head in repo.branches.items()
        ]
        print(format_table(["branch", "head"], rows))
    return 0


def _cmd_switch(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    repo.switch(args.name)
    save_repository(repo, args.repository)
    print(f"switched to branch {args.name}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    with open(args.file, "r", encoding="utf-8") as handle:
        payload = handle.read().splitlines()
    version_id = repo.merge(args.other, payload, message=args.message or "merge")
    save_repository(repo, args.repository)
    print(f"recorded merge {version_id}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if _is_remote(args.repository):
        from .server.remote import ServiceClient

        if getattr(args, "metrics", False):
            # The raw Prometheus exposition, exactly what a scraper sees.
            print(ServiceClient(args.repository).metrics_text(), end="")
            return 0
        stats = ServiceClient(args.repository).stats()
        serving, repository = stats["serving"], stats["repository"]
        workload = stats.get("workload", {})
        expected = workload.get("expected_recreation_cost", {})
        rows = [
            ["versions", repository["versions"]],
            ["branches", len(repository["branches"])],
            ["objects", repository["objects"]],
            ["storage cost", f"{repository['storage_cost']:.0f}"],
            ["backend", repository["backend"]],
            ["checkout requests", serving["checkout_requests"]],
            ["coalesced requests", serving["coalesced_requests"]],
            ["deltas applied", serving["deltas_applied"]],
            ["naive delta applications", serving["naive_delta_applications"]],
            ["recreation cost paid", f"{serving['recreation_cost_paid']:.0f}"],
            ["workload accesses", workload.get("total_accesses", 0)],
            ["workload versions", workload.get("distinct_versions", 0)],
            [
                "expected recreation/request",
                f"{expected.get('per_request', 0.0):.0f}",
            ],
            ["repack epoch", stats.get("repack", {}).get("epoch", 0)],
        ]
        print(format_table(["metric", "value"], rows))
        return 0
    if getattr(args, "metrics", False):
        raise ReproError(
            "--metrics reads a live registry; point stats at a running "
            "server (http://HOST:PORT) instead of a repository directory"
        )
    repo = load_repository(args.repository)
    naive = sum(v.size for v in repo.graph.versions)
    rows = [
        ["versions", len(repo)],
        ["branches", len(repo.branches)],
        ["objects", len(repo.store)],
        ["storage cost", f"{repo.total_storage_cost():.0f}"],
        ["store-everything cost", f"{naive:.0f}"],
    ]
    if len(repo) > 0:
        # Priced entirely from the store's incremental cost index — no
        # payload is replayed to answer this.
        from .storage.repack import expected_workload_cost

        frequencies = open_workload_log(args.repository, repo=repo).frequencies(
            repo.graph.version_ids
        )
        expected = expected_workload_cost(repo, frequencies or None)
        rows.append(
            ["expected recreation/request", f"{expected['per_request']:.0f}"]
        )
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    repo = load_repository(args.repository)
    instance = repo.problem_instance(hop_limit=args.hop_limit)
    threshold = _resolve_threshold(args, instance)
    result = solve(instance, args.problem, threshold=threshold)
    print(
        format_table(
            ["metric", "value"],
            [
                ["problem", args.problem],
                ["algorithm", result.algorithm],
                ["storage cost", f"{result.metrics.storage_cost:.0f}"],
                ["sum recreation", f"{result.metrics.sum_recreation:.0f}"],
                ["max recreation", f"{result.metrics.max_recreation:.0f}"],
                ["materialized versions", result.metrics.num_materialized],
            ],
        )
    )
    if args.plan_output:
        with open(args.plan_output, "w", encoding="utf-8") as handle:
            handle.write(result.plan.to_json())
        print(f"wrote plan to {args.plan_output}")
    return 0


def _flatten_report(report: dict, prefix: str = "") -> list[list[str]]:
    """Nested repack/stats report → two-column table rows."""
    rows: list[list[str]] = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_report(value, prefix=f"{name}."))
        elif isinstance(value, float):
            rows.append([name, f"{value:.1f}"])
        else:
            rows.append([name, str(value)])
    return rows


def _cmd_repack(args: argparse.Namespace) -> int:
    if _is_remote(args.repository):
        from .server.remote import ServiceClient

        options: dict = {
            "problem": args.problem,
            "hop_limit": args.hop_limit,
            "workload": args.workload or args.half_life is not None,
            "dry_run": args.dry_run,
        }
        if args.threshold is not None:
            options["threshold"] = args.threshold
        if args.threshold_factor is not None:
            options["threshold_factor"] = args.threshold_factor
        if args.half_life is not None:
            options["half_life"] = args.half_life
        report = ServiceClient(args.repository).repack(**options)
        print(format_table(["metric", "value"], _flatten_report(report)))
        return 0

    repo = load_repository(args.repository)
    frequencies: dict = {}
    if args.workload or args.half_life is not None:
        log = open_workload_log(args.repository, half_life=args.half_life, repo=repo)
        if args.half_life is not None:
            # The decaying view: recent traffic outweighs all-time counts.
            frequencies = log.decayed_frequencies(repo.graph.version_ids)
        else:
            frequencies = log.frequencies(repo.graph.version_ids)
        if not frequencies:
            print("workload log is empty; planning against a uniform workload")
    instance = repo.problem_instance(
        access_frequencies=frequencies or None, hop_limit=args.hop_limit
    )
    threshold = _resolve_threshold(args, instance)
    result = solve(instance, args.problem, threshold=threshold)
    if args.dry_run:
        metrics = result.metrics
        print(
            format_table(
                ["metric", "value"],
                [
                    ["problem", args.problem],
                    ["algorithm", result.algorithm],
                    ["workload aware", str(bool(frequencies))],
                    ["storage cost", f"{metrics.storage_cost:.1f}"],
                    ["sum recreation", f"{metrics.sum_recreation:.1f}"],
                    ["weighted recreation", f"{metrics.weighted_recreation:.1f}"],
                    ["materialized versions", metrics.num_materialized],
                ],
            )
        )
        print("dry run: plan not applied")
        return 0
    from .storage.repack import OnlineRepacker, expected_workload_cost

    expected_before = expected_workload_cost(repo, frequencies or None)
    report = OnlineRepacker(repo).repack(result.plan)
    expected_after = expected_workload_cost(repo, frequencies or None)
    save_repository(repo, args.repository)
    report["expected_cost_before"] = expected_before["per_request"]
    report["expected_cost_after"] = expected_after["per_request"]
    print(
        format_table(
            ["metric", "value"],
            [[key, f"{value:.1f}"] for key, value in report.items()],
        )
    )
    return 0


def _frontend_backend_spec(directory: str) -> str:
    """The repository's backend spec, read without opening the repository.

    The multi-process front-end must validate (and fork) *before* any
    sqlite connection or thread exists, so it peeks at the state file
    directly instead of calling :func:`load_repository`.
    """
    state_path = os.path.join(directory, _STATE_FILE)
    if not os.path.exists(state_path):
        raise ReproError(
            f"{directory!r} is not a repro repository (missing {_STATE_FILE}); "
            "run 'repro init' first"
        )
    with open(state_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    return str(state.get("backend", _DEFAULT_BACKEND))


def _pick_reuseport_port(host: str) -> int:
    """Resolve ``--port 0`` to a concrete port for an SO_REUSEPORT group.

    Every acceptor process must bind the *same* number, so an ephemeral
    port has to be chosen once up front.  The probe socket is closed again
    before the acceptors bind — a tiny window in which another process
    could take the port, acceptable for the ephemeral-port convenience
    path (deployments pass an explicit --port).
    """
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        return int(probe.getsockname()[1])


def _raise_keyboard_interrupt(signum, frame) -> None:
    """SIGTERM handler for forked acceptors: reuse the ctrl-c path."""
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a repository as an HTTP version-store service.

    With ``--frontend-procs N > 1`` (and SO_REUSEPORT available), forks N
    acceptor processes that each bind the same port; the kernel balances
    connections across them.  Every acceptor builds its *own* repository
    handle, service, caches and worker pools — the ``sqlite://`` catalog
    is the single source of truth they share, exactly like N independent
    ``repro serve`` processes on one store.  The fork happens before any
    repository (and hence sqlite connection or thread) exists, so nothing
    unsafe crosses it.
    """
    procs = max(1, int(getattr(args, "frontend_procs", 1) or 1))
    if procs == 1:
        return _serve_once(args)
    from .server.httpd import reuse_port_supported

    if not reuse_port_supported():
        print(
            "warning: SO_REUSEPORT is unavailable on this platform; "
            f"--frontend-procs {procs} falls back to one acceptor process",
            file=sys.stderr,
        )
        return _serve_once(args)
    backend_spec = _frontend_backend_spec(args.repository)
    if not backend_spec.startswith("sqlite://"):
        raise ReproError(
            f"--frontend-procs {procs} requires a sqlite:// metadata catalog "
            f"(this repository uses {backend_spec!r}): only the catalog lets "
            "several processes share commits, workload counters and epoch "
            "swaps safely; re-init with "
            "'repro init REPO --backend sqlite://catalog.db'"
        )
    if args.port == 0:
        args.port = _pick_reuseport_port(args.host)

    import signal

    children: list[int] = []
    for index in range(1, procs):
        pid = os.fork()
        if pid == 0:
            signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
            code = 1
            try:
                code = _serve_once(args, reuse_port=True, proc_index=index)
            except KeyboardInterrupt:
                code = 0
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        children.append(pid)
    # The parent is acceptor 0; route SIGTERM through the ctrl-c path so
    # `kill` on it still reaches the child-cleanup block below.
    signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        return _serve_once(args, reuse_port=True, proc_index=0)
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _cache_tier_dir(args: argparse.Namespace, acceptor: int | None) -> str | None:
    """Where this serving process spills its warm cache (``None``: nowhere).

    A spill tier scrubs its directory on open and unlinks what it evicts,
    so ``--frontend-procs`` acceptors, which share nothing else, each get
    their own ``fe<i>`` subdirectory.
    """
    directory = args.cache_tier_dir
    if directory is None and args.cache_tier_bytes > 0:
        directory = os.path.join(args.repository, "cache-tier")
    if directory is not None and acceptor is not None:
        directory = os.path.join(directory, f"fe{acceptor}")
    return directory


def _serve_once(
    args: argparse.Namespace, *, reuse_port: bool = False, proc_index: int = 0
) -> int:
    """Run one acceptor process of the version-store service."""
    from .server.httpd import serve
    from .server.service import VersionStoreService

    if args.adaptive_repack and args.repack_budget is not None:
        raise ReproError(
            "--adaptive-repack replaces --repack-budget; arm one policy, not both"
        )
    repo = load_repository(args.repository)
    log_sink = None
    if getattr(args, "log_json", None):
        from .obs import JsonLogSink

        log_sink = JsonLogSink(args.log_json)
    replica_id = None
    if getattr(args, "join", False):
        if repo.catalog is None:
            raise ReproError(
                "--join needs a shared metadata catalog: initialise the "
                "store with --backend sqlite://PATH (peers then serve the "
                "same catalog and elect one repack planner)"
            )
        replica_id = getattr(args, "replica_id", None) or (
            f"replica-{socket.gethostname()}-{os.getpid()}"
        )
        if reuse_port and proc_index:
            # Each --frontend-procs acceptor is its own lease competitor.
            replica_id = f"{replica_id}-fe{proc_index}"
    service = VersionStoreService(
        repo,
        cache_size=args.cache_size,
        cache_tier_dir=_cache_tier_dir(args, proc_index if reuse_port else None),
        cache_tier_bytes=args.cache_tier_bytes,
        # Persist the state file after every commit so a crash never loses
        # acknowledged versions (objects are already on disk by then).
        on_commit=lambda repository: save_repository(repository, args.repository),
        # Persist observed access frequencies inside the repository, so the
        # workload survives restarts and feeds `repro repack --workload`.
        workload_log=open_workload_log(args.repository, repo=repo),
        max_workers=args.workers,
        repack_budget=args.repack_budget,
        auto_repack_interval=args.repack_interval,
        adaptive_repack=args.adaptive_repack,
        repack_horizon=args.repack_horizon,
        log_sink=log_sink,
        replica_id=replica_id,
        lease_ttl=getattr(args, "lease_ttl", 10.0),
        lease_renew=getattr(args, "lease_renew", None),
    )
    server = serve(service, host=args.host, port=args.port, reuse_port=reuse_port)
    host, port = server.server_address[:2]
    acceptor = f"; acceptor {proc_index}" if reuse_port else ""
    replica = f"; replica {replica_id}" if replica_id else ""
    print(
        f"serving {args.repository} on http://{host}:{port} "
        f"({service.max_workers} workers"
        f"{acceptor}{replica}; ctrl-c to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        if service.close():
            save_repository(repo, args.repository)
        else:
            # A repack is still swapping on a background thread; writing
            # the state file now could name objects its GC is deleting.
            # The repack's own on_commit hook persists consistent state.
            print(
                "warning: a repack was still in flight; skipping the final "
                "state save (the repack persists its own)",
                file=sys.stderr,
            )
    return 0


def _resolve_threshold(args: argparse.Namespace, instance) -> float | None:
    """Turn --threshold / --threshold-factor into an absolute bound."""
    return default_threshold(
        instance,
        args.problem,
        threshold=getattr(args, "threshold", None),
        factor=getattr(args, "threshold_factor", None),
    )


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dataset versioning prototype (VLDB 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create a new repository")
    init.add_argument("repository")
    init.add_argument(
        "--backend",
        default=_DEFAULT_BACKEND,
        help="storage backend spec: file://PATH, zip://PATH, or "
        "sqlite://PATH for a transactional metadata catalog that multiple "
        "processes can share (relative paths live inside the repository "
        "directory)",
    )
    init.set_defaults(handler=_cmd_init)

    commit = sub.add_parser("commit", help="commit a text/CSV file as a new version")
    commit.add_argument("repository")
    commit.add_argument("file")
    commit.add_argument("-m", "--message", default="")
    commit.add_argument("--branch", default=None, help="commit on this branch")
    commit.add_argument(
        "--parent", action="append", default=None, help="explicit parent version id"
    )
    commit.set_defaults(handler=_cmd_commit)

    checkout = sub.add_parser("checkout", help="reconstruct one or more versions")
    checkout.add_argument(
        "repository",
        help="repository directory, or http://HOST:PORT of a running "
        "'repro serve' process",
    )
    checkout.add_argument("versions", nargs="+", metavar="version")
    checkout.add_argument(
        "-o",
        "--output",
        default=None,
        help="output file (single version) or directory (--batch; also "
        "enables the per-version cost report — without it payloads are "
        "printed to stdout)",
    )
    checkout.add_argument(
        "--batch",
        action="store_true",
        help="serve all requested versions through the batch engine, "
        "replaying shared delta-chain prefixes once",
    )
    checkout.set_defaults(handler=_cmd_checkout)

    log = sub.add_parser("log", help="show the history of a version/branch head")
    log.add_argument("repository")
    log.add_argument("version", nargs="?", default=None)
    log.set_defaults(handler=_cmd_log)

    branch = sub.add_parser("branch", help="list or create branches")
    branch.add_argument("repository")
    branch.add_argument("name", nargs="?", default=None)
    branch.add_argument("--at", default=None, help="branch from this version")
    branch.set_defaults(handler=_cmd_branch)

    switch = sub.add_parser("switch", help="make another branch the current one")
    switch.add_argument("repository")
    switch.add_argument("name")
    switch.set_defaults(handler=_cmd_switch)

    merge = sub.add_parser("merge", help="record a user-performed merge")
    merge.add_argument("repository")
    merge.add_argument("other", help="the other parent's version id")
    merge.add_argument("file", help="file containing the merged payload")
    merge.add_argument("-m", "--message", default="merge")
    merge.set_defaults(handler=_cmd_merge)

    stats = sub.add_parser("stats", help="show storage statistics")
    stats.add_argument(
        "repository",
        help="repository directory, or http://HOST:PORT of a running "
        "'repro serve' process",
    )
    stats.add_argument(
        "--metrics",
        action="store_true",
        help="print the raw Prometheus text from the server's GET /metrics "
        "(remote repositories only)",
    )
    stats.set_defaults(handler=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the repository as a long-lived HTTP service"
    )
    serve.add_argument("repository")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="payloads kept in the warm materialization cache",
    )
    serve.add_argument(
        "--cache-tier-bytes",
        type=int,
        default=0,
        metavar="N",
        help="enable a compressed on-disk second cache tier of up to N "
        "bytes; evicted-from-memory payloads spill there and are promoted "
        "back on hit (default 0 = disabled)",
    )
    serve.add_argument(
        "--cache-tier-dir",
        metavar="PATH",
        default=None,
        help="directory for the on-disk cache tier (default: "
        "REPOSITORY/cache-tier when --cache-tier-bytes is set); scrubbed "
        "on startup, safe to delete at rest",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads for replaying the independent root trees of "
        "one batch in parallel (default: the cores this process may use)",
    )
    serve.add_argument(
        "--frontend-procs",
        type=int,
        default=1,
        metavar="N",
        help="fork N acceptor processes sharing the port via SO_REUSEPORT "
        "(requires a sqlite:// catalog backend; each acceptor keeps its "
        "own caches and worker pool; default: 1)",
    )
    serve.add_argument(
        "--repack-budget",
        type=float,
        default=None,
        help="auto-repack when the expected recreation cost per request "
        "(priced from the incremental cost index) exceeds this budget",
    )
    serve.add_argument(
        "--adaptive-repack",
        action="store_true",
        help="replace the fixed budget with the adaptive controller: "
        "repack when the warm decayed expected cost leaves the hysteresis "
        "band around the learned baseline AND the staging cost is recouped "
        "within --repack-horizon requests",
    )
    serve.add_argument(
        "--repack-horizon",
        type=float,
        default=1000.0,
        metavar="N",
        help="amortization horizon of the adaptive controller, in requests "
        "(a repack fires only if its estimated staging cost is recouped "
        "within N requests of per-request gain; default 1000)",
    )
    serve.add_argument(
        "--repack-interval",
        type=int,
        default=32,
        metavar="N",
        help="evaluate the armed auto-repack policy every N served "
        "requests (default 32)",
    )
    serve.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="append structured JSON-lines events (requests, repack "
        "decisions) to PATH; set REPRO_METRICS=off to disable the "
        "/metrics registry instead",
    )
    serve.add_argument(
        "--join",
        action="store_true",
        help="join a replica group over this store's sqlite:// catalog: "
        "compete for the repack-planner lease so exactly one replica "
        "plans and stages repacks (everyone adopts the swap via the "
        "catalog poll); repack/prune on non-holders return 409",
    )
    serve.add_argument(
        "--replica-id",
        default=None,
        metavar="ID",
        help="this replica's id in the group (default: "
        "replica-<hostname>-<pid>); shown as the lease holder in /stats",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="planner-lease time-to-live: a holder paused longer than "
        "this loses the lease to the first peer that retries "
        "(default 10.0)",
    )
    serve.add_argument(
        "--lease-renew",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between lease renewal attempts (default: ttl/3, "
        "so a holder gets two retries before peers may steal)",
    )
    serve.set_defaults(handler=_cmd_serve)

    for name, handler in (("solve", _cmd_solve), ("repack", _cmd_repack)):
        command = sub.add_parser(
            name,
            help=(
                "compute an optimized storage plan"
                if name == "solve"
                else "re-encode the repository according to an optimized plan"
            ),
        )
        command.add_argument(
            "repository",
            help="repository directory"
            + (
                ", or http://HOST:PORT of a running 'repro serve' process "
                "(triggers an online repack there)"
                if name == "repack"
                else ""
            ),
        )
        command.add_argument("--problem", type=int, default=3, choices=range(1, 7))
        command.add_argument("--threshold", type=float, default=None)
        command.add_argument(
            "--threshold-factor",
            type=float,
            default=None,
            help="threshold as a multiple of the natural reference "
            "(MCA storage for problems 3/4, total/max recreation for 5/6)",
        )
        command.add_argument("--hop-limit", type=int, default=2)
        if name == "solve":
            command.add_argument("--plan-output", default=None)
        else:
            command.add_argument(
                "--workload",
                action="store_true",
                help="plan against the observed access frequencies in the "
                "repository's workload log (Figure 16 workload-aware "
                "optimization) instead of a uniform workload",
            )
            command.add_argument(
                "--half-life",
                type=float,
                default=None,
                metavar="N",
                help="use the workload log's decaying frequencies with this "
                "half-life (in accesses), so recent traffic outweighs "
                "all-time popularity; implies --workload",
            )
            command.add_argument(
                "--dry-run",
                action="store_true",
                help="compute and report the plan without applying it",
            )
        command.set_defaults(handler=handler)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped to `head`); silence the flush on
        # interpreter shutdown and exit like a well-behaved pipe citizen.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised through __main__.py
    raise SystemExit(main())
