"""A miniature DataHub-style version-controlled repository.

The paper's prototype exposes "a subset of Git/SVN-like interface for
dataset versioning": users commit new versions of a dataset, check out any
version, create branches and record merges (merges are performed by the user
and registered with more than one parent).  :class:`Repository` provides the
same surface on top of the object store, delta encoders and storage plans of
this package:

* ``commit(payload, parents=...)`` registers a new version.  The payload
  is stored as a delta against its first parent (if that delta is smaller
  than the full payload);
* ``checkout(version_id)`` reconstructs any version and reports the
  recreation cost actually paid;
* ``branch``/``merge`` manipulate named branch heads;
* ``repack(plan)`` re-encodes the whole repository according to a
  :class:`~repro.core.storage_plan.StoragePlan` produced by any of the
  optimization algorithms — this is the bridge between the optimization
  layer and the bytes on disk.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from ..core.instance import ProblemInstance
from ..core.matrices import CostModel
from ..core.storage_plan import StoragePlan
from ..core.version import Version, VersionID
from ..core.version_graph import VersionGraph
from ..delta.base import DeltaEncoder, payload_size
from ..delta.line_diff import LineDiffEncoder
from ..exceptions import (
    DuplicateVersionError,
    MergeError,
    RepositoryError,
    StaleEpochError,
    VersionNotFoundError,
)
from .backends import StorageBackend
from .batch import BatchItem, BatchMaterializer, BatchResult
from .objects import ObjectStore

__all__ = ["Repository"]


class Repository:
    """Commit/checkout/branch/merge on top of delta-compressed storage.

    One :class:`~repro.storage.batch.BatchMaterializer` (``materializer``,
    ``cache_size`` payloads warm) serves :meth:`checkout`,
    :meth:`checkout_many` and the parent read of :meth:`commit`.  An item's
    ``recreation_cost`` is what that request paid given the warm cache; its
    ``predicted_cost`` is the cold chain sum the paper's Φ matrix models.
    """

    DEFAULT_BRANCH = "main"

    def __init__(
        self,
        encoder: DeltaEncoder | None = None,
        *,
        backend: str | StorageBackend | None = None,
        cache_size: int = 64,
    ) -> None:
        self.encoder = encoder if encoder is not None else LineDiffEncoder()
        self.store = ObjectStore(backend=backend)
        self.materializer = BatchMaterializer(
            self.store, self.encoder, cache_size=cache_size
        )
        self.graph = VersionGraph()
        self._object_of: dict[VersionID, str] = {}
        self._branches: dict[str, VersionID | None] = {self.DEFAULT_BRANCH: None}
        self._current_branch = self.DEFAULT_BRANCH
        self._counter = 0
        # Active repack epoch.  Plain repositories count it in memory (the
        # CLI persists it in the JSON state file); a catalog-backed
        # repository reads it from the database, where it is monotonic
        # across restarts and shared between processes.
        self.epoch = 0
        # A sqlite:// backend carries a transactional metadata catalog.
        # When present, the catalog is the source of truth for the version
        # graph, branch heads, id allocation and the epoch pointer; this
        # object is a cache kept current by :meth:`sync`.
        self._catalog = getattr(self.store.backend, "catalog", None)
        self._change_seq = -1
        self._sync_lock = threading.Lock()
        self.sync(force=True)

    # ------------------------------------------------------------------ #
    # the metadata catalog
    # ------------------------------------------------------------------ #
    @property
    def catalog(self) -> Any:
        """The transactional metadata catalog, or ``None`` when file-backed."""
        return self._catalog

    def sync(self, *, force: bool = False) -> bool:
        """Adopt catalog state written since the last sync (peer processes).

        Cheap when nothing changed: one read of the catalog's change
        counter.  On a change, unseen versions are added to the graph, the
        version→object mapping and branch heads are replaced wholesale,
        and — when the active epoch moved (a peer repacked) — the payload
        cache is dropped, since it describes the dead encoding.
        Returns ``True`` when state was adopted.
        """
        if self._catalog is None:
            return False
        with self._sync_lock:
            seq = self._catalog.change_seq()
            if not force and seq == self._change_seq:
                return False
            state = self._catalog.state()
            epoch_changed = int(state["epoch"]) != self.epoch
            for row in state["versions"]:
                if row["id"] in self.graph:
                    continue
                self.graph.add_version(
                    Version(
                        version_id=row["id"],
                        size=row["size"],
                        name=row["name"],
                        parents=tuple(row["parents"]),
                        created_at=row["created_at"],
                        metadata=dict(row["metadata"]),
                    )
                )
            self._object_of = dict(state["objects"])
            branches = dict(state["branches"])
            if not branches:
                branches = {self.DEFAULT_BRANCH: None}
            self._branches = branches
            if self._change_seq < 0 or self._current_branch not in branches:
                # First load adopts the catalog's current branch (a fresh
                # process resumes where the last `switch` left off); after
                # that the current branch is session-local, and only a
                # peer *deleting* it forces a fallback.
                fallback = state["current_branch"]
                self._current_branch = (
                    fallback if fallback in branches else next(iter(branches))
                )
            self._counter = max(self._counter, int(state["counter"]))
            self.epoch = int(state["epoch"])
            self._change_seq = int(state["change_seq"])
            if epoch_changed:
                self.materializer.clear_cache()
            return True

    # ------------------------------------------------------------------ #
    # branching
    # ------------------------------------------------------------------ #
    @property
    def current_branch(self) -> str:
        """Name of the branch new commits go to."""
        return self._current_branch

    @property
    def branches(self) -> dict[str, VersionID | None]:
        """Mapping of branch name to its head version (None for empty)."""
        return dict(self._branches)

    def branch(self, name: str, at: VersionID | None = None) -> None:
        """Create branch ``name`` pointing at ``at`` (default: current head)."""
        if name in self._branches:
            raise RepositoryError(f"branch {name!r} already exists")
        head = at if at is not None else self._branches[self._current_branch]
        if head is not None and head not in self.graph:
            raise VersionNotFoundError(head)
        self._branches[name] = head
        if self._catalog is not None:
            self._catalog.save_branch(name, head)

    def switch(self, name: str) -> None:
        """Make ``name`` the current branch."""
        if name not in self._branches:
            raise RepositoryError(f"branch {name!r} does not exist")
        self._current_branch = name
        if self._catalog is not None:
            self._catalog.save_current_branch(name)

    def head(self, branch: str | None = None) -> VersionID | None:
        """Head version of ``branch`` (default: the current branch)."""
        name = branch or self._current_branch
        if name not in self._branches:
            raise RepositoryError(f"branch {name!r} does not exist")
        return self._branches[name]

    # ------------------------------------------------------------------ #
    # committing
    # ------------------------------------------------------------------ #
    def commit(
        self,
        payload: Any,
        *,
        parents: Iterable[VersionID] | None = None,
        message: str = "",
        version_id: VersionID | None = None,
        branch: str | None = None,
    ) -> VersionID:
        """Register a new version of the dataset.

        The commit lands on ``branch`` (default: the current branch); a new
        name starts at the current head.  The branch is created and made
        current only once the commit has succeeded, so a failed commit
        leaves the branches as they were.  When ``parents`` is omitted the
        branch head is used (a root commit when the branch is empty).  The
        payload is stored as a delta against the first parent whenever
        that delta is smaller than the payload itself; otherwise it is
        stored in full.
        """
        target = self._current_branch if branch is None else branch
        parent_ids = tuple(parents) if parents is not None else ()
        if not parent_ids:
            head = self._branches.get(target, self._branches[self._current_branch])
            parent_ids = (head,) if head is not None else ()
        for parent in parent_ids:
            if parent not in self.graph:
                # A peer process may have committed the parent since the
                # last sync; adopt the catalog state before giving up.
                if not self.sync() or parent not in self.graph:
                    raise VersionNotFoundError(parent)

        if version_id is not None and version_id in self.graph:
            raise DuplicateVersionError(version_id)
        size = payload_size(payload)
        for attempt in range(3):
            # Store the object first: a failed commit must leave the graph,
            # the branch heads and the id counter exactly as they were.
            base_vid: VersionID | None = None
            base_object: str | None = None
            if parent_ids and attempt < 2:
                base_payload = self.checkout(parent_ids[0]).payload
                delta = self.encoder.diff(base_payload, payload)
                if delta.storage_cost < size:
                    base_vid = parent_ids[0]
                    base_object = self._object_of[base_vid]
                    object_id = self.store.put_delta(base_object, delta)
            if base_object is None:
                object_id = self.store.put_full(payload)
            if self._catalog is None:
                vid = version_id if version_id is not None else self._next_id()
                created_at = self._counter
                break
            # The catalog's transaction validates the delta base against
            # the *current* active mapping.  A StaleEpochError means a peer
            # repacked between encoding and the transaction: re-sync and
            # re-encode against the new mapping; as a last resort store the
            # payload in full (a full object has no base to go stale).
            # Objects orphaned by a lost race are content-addressed
            # leftovers swept by the next epoch prune.
            try:
                vid, created_at = self._catalog.record_commit(
                    version_id=version_id,
                    size=size,
                    name=message,
                    parents=parent_ids,
                    metadata={"message": message},
                    object_id=object_id,
                    branch=target,
                    base_version=base_vid,
                    base_object_id=base_object,
                )
            except StaleEpochError:
                if attempt == 2:  # pragma: no cover - full commits never stale
                    raise
                self.sync(force=True)
                continue
            if version_id is None:
                self._counter = max(self._counter, created_at + 1)
            break
        # A concurrent sync may already have adopted the catalog's row.
        if self._catalog is None or vid not in self.graph:
            self.graph.add_version(
                Version(
                    version_id=vid,
                    size=size,
                    name=message or str(vid),
                    parents=parent_ids,
                    created_at=created_at,
                    metadata={"message": message},
                )
            )
        self._object_of[vid] = object_id
        self._branches[target] = vid
        if branch is not None:
            self.switch(branch)
        return vid

    def merge(
        self,
        other_head: VersionID,
        merged_payload: Any,
        *,
        message: str = "merge",
    ) -> VersionID:
        """Record a merge of the current branch head with ``other_head``.

        As in the paper's prototype, the *user* performs the merge and hands
        the system the merged payload; the system records a version with two
        parents.
        """
        current_head = self._branches[self._current_branch]
        if current_head is None:
            raise MergeError("cannot merge into an empty branch")
        if other_head not in self.graph:
            raise VersionNotFoundError(other_head)
        if other_head == current_head:
            raise MergeError("cannot merge a branch head with itself")
        return self.commit(
            merged_payload, parents=(current_head, other_head), message=message
        )

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def checkout(self, version_id: VersionID) -> BatchItem:
        """Reconstruct the payload of ``version_id`` (a batch of one)."""
        if version_id not in self._object_of:
            # The version may have been committed by a peer process since
            # the last sync; adopt the catalog state before giving up.
            self.sync()
            if version_id not in self._object_of:
                raise VersionNotFoundError(version_id)
        return self.materializer.materialize(self._object_of[version_id])

    def checkout_many(self, version_ids: Iterable[VersionID]) -> BatchResult:
        """Reconstruct many versions at once, amortizing shared chain prefixes.

        Returns a :class:`~repro.storage.batch.BatchResult` keyed by version
        id: per-version payloads, the recreation cost actually paid, and the
        Φ chain cost the storage plan predicts for each.  Duplicate ids are
        served from a single materialization.
        """
        requests: list[tuple[VersionID, str]] = []
        for vid in version_ids:
            if vid not in self._object_of:
                self.sync()  # a peer process may have committed it
                if vid not in self._object_of:
                    raise VersionNotFoundError(vid)
            requests.append((vid, self._object_of[vid]))
        return self.materializer.materialize_many(requests)

    def log(self, version_id: VersionID | None = None) -> list[Version]:
        """History of ``version_id`` (default: current head), newest first."""
        head = version_id if version_id is not None else self._branches[self._current_branch]
        if head is None:
            return []
        ancestors = self.graph.ancestors(head) | {head}
        versions = [self.graph.version(vid) for vid in ancestors]
        return sorted(versions, key=lambda v: v.created_at, reverse=True)

    def __len__(self) -> int:
        return len(self.graph)

    def total_storage_cost(self) -> float:
        """Storage cost of every object currently in the store."""
        return self.store.total_storage_cost()

    def chain_stats(self, version_id: VersionID):
        """Chain pricing of ``version_id`` from the store's cost index.

        Returns the store's :class:`~repro.storage.objects.ChainStats` —
        Φ chain total, delta count, chain length and root object — without
        replaying any payload.  The index is maintained incrementally at
        commit time (:meth:`commit` writes the entry as a side effect of
        storing the object) and across repacks (staged objects are indexed
        when written, dead ones evicted when collected), so this is cheap
        enough for per-request policy decisions.
        """
        return self.store.chain_stats(self.object_id_of(version_id))

    # ------------------------------------------------------------------ #
    # bridging to the optimization layer
    # ------------------------------------------------------------------ #
    def build_cost_model(
        self,
        *,
        pairs: Iterable[tuple[VersionID, VersionID]] | None = None,
        hop_limit: int | None = 2,
    ) -> CostModel:
        """Measure a Δ/Φ cost model from the repository's actual payloads.

        Deltas are computed with the repository's encoder between the pairs
        given (default: all ordered pairs within ``hop_limit`` undirected
        hops in the version graph).

        Symmetric encoders (``cell``, ``two-way-line``) produce one delta
        usable in both directions, yet their measured costs can still depend
        on which endpoint was diffed against which — while the undirected
        cost model collapses both directions into a single entry.  To keep
        the model independent of pair iteration order, each unordered pair
        is canonicalized to the *max* of both directions (the conservative
        bound: a plan priced with it never under-states storage or
        recreation whichever way the delta is replayed).
        """
        model = CostModel(directed=not self.encoder.symmetric, phi_equals_delta=False)
        # One consistent snapshot of the version set: a peer commit (or a
        # concurrent sync adopting one) can grow the graph while the model
        # is being measured, and pair selection must not name a version the
        # payload pass never saw.  Versions landing mid-measurement are
        # simply absent from this model — the activation transaction
        # carries them forward unchanged.
        version_ids = list(self.graph.version_ids)
        payloads: dict[VersionID, Any] = {}
        for vid in version_ids:
            payloads[vid] = self.checkout(vid).payload
            size = payload_size(payloads[vid])
            model.set_materialization(vid, size, size)
        if pairs is None:
            selected: list[tuple[VersionID, VersionID]] = []
            for source in version_ids:
                distances = self.graph.undirected_hop_distance(source, max_hops=hop_limit)
                selected.extend(
                    (source, target)
                    for target in distances
                    if target != source and target in payloads
                )
        else:
            selected = [
                (source, target)
                for source, target in pairs
                if source in payloads and target in payloads
            ]
        if model.directed:
            for source, target in selected:
                delta = self.encoder.diff(payloads[source], payloads[target])
                model.set_delta(source, target, delta.storage_cost, delta.recreation_cost)
        else:
            measured: set[frozenset] = set()
            for source, target in selected:
                pair_key = frozenset((source, target))
                if pair_key in measured:
                    continue
                measured.add(pair_key)
                forward = self.encoder.diff(payloads[source], payloads[target])
                backward = self.encoder.diff(payloads[target], payloads[source])
                model.set_delta(
                    source,
                    target,
                    max(forward.storage_cost, backward.storage_cost),
                    max(forward.recreation_cost, backward.recreation_cost),
                )
        return model

    def problem_instance(
        self,
        *,
        access_frequencies: Mapping[VersionID, float] | None = None,
        hop_limit: int | None = 2,
    ) -> ProblemInstance:
        """The repository as a :class:`~repro.core.instance.ProblemInstance`."""
        model = self.build_cost_model(hop_limit=hop_limit)
        return ProblemInstance.from_version_graph(self.graph, model, access_frequencies)

    def repack(self, plan: StoragePlan) -> dict[str, float]:
        """Re-encode every version according to ``plan``.

        Versions the plan materializes are stored in full; versions stored
        as deltas are re-diffed against their plan parent.  Returns a small
        report with the storage cost before and after.  Objects no longer
        referenced are removed from the store.  Online (concurrent-reader)
        repacking is the job of :class:`~repro.storage.repack.OnlineRepacker`,
        which this method delegates to in its offline one-shot form.
        """
        from .repack import OnlineRepacker  # local import to avoid a cycle

        return OnlineRepacker(self).repack(plan)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _next_id(self) -> str:
        vid = f"v{self._counter}"
        self._counter += 1
        return vid

    def object_id_of(self, version_id: VersionID) -> str:
        """Object id currently backing ``version_id`` (used by the planner)."""
        try:
            return self._object_of[version_id]
        except KeyError:
            self.sync()  # a peer process may have committed it
            try:
                return self._object_of[version_id]
            except KeyError:
                raise VersionNotFoundError(version_id) from None

    def _set_object(self, version_id: VersionID, object_id: str) -> None:
        """Repoint ``version_id`` at a different object (used by the planner)."""
        if version_id not in self.graph:
            raise VersionNotFoundError(version_id)
        self._object_of[version_id] = object_id
