"""Delta (differencing) abstractions.

The paper treats the Δ/Φ matrices as given, produced by some *differencing
algorithm*.  This subpackage supplies several concrete differencing
mechanisms so the rest of the system can work with real payloads end to end:

* line-based diffs for text files (directed and undirected variants);
* cell-level diffs for tabular (CSV-like) data;
* XOR deltas for fixed-width binary payloads (inherently symmetric);
* edit-command ("script") deltas with asymmetric storage/recreation costs.

:class:`DeltaEncoder` is the protocol each mechanism implements:
``diff(source, target)`` produces a :class:`Delta`, and ``apply(source,
delta)`` reconstructs the target.  Every delta reports a ``storage_cost``
(bytes needed to persist it) and a ``recreation_cost`` (an abstract count of
work units needed to replay it), which is exactly what populates the Δ and Φ
matrices.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

from ..exceptions import DeltaApplicationError

__all__ = ["Delta", "DeltaEncoder", "MaterializedPayload", "payload_size"]

Payload = TypeVar("Payload")


def payload_size(payload: Any) -> float:
    """A uniform size measure for the payload types used in this package.

    * ``bytes``/``bytearray`` — number of bytes;
    * ``str`` — length of its UTF-8 encoding;
    * sequences of rows (lists/tuples) — the sum of the sizes of the string
      representation of every cell plus one separator per cell;
    * anything else — the length of its ``repr``.
    """
    if isinstance(payload, (bytes, bytearray)):
        return float(len(payload))
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if isinstance(payload, (list, tuple)):
        total = 0.0
        for row in payload:
            if isinstance(row, (list, tuple)):
                total += sum(len(str(cell)) + 1 for cell in row)
            else:
                total += len(str(row)) + 1
        return total
    return float(len(repr(payload)))


@dataclass(frozen=True)
class Delta(Generic[Payload]):
    """The information needed to turn one payload into another.

    Attributes
    ----------
    operations:
        Encoder-specific description of the transformation (opaque to
        callers; only the producing encoder knows how to apply it).
    storage_cost:
        How much space persisting this delta takes (the Δ entry).
    recreation_cost:
        How much work applying this delta takes (the Φ entry).
    symmetric:
        True when the delta can be applied in either direction (undirected
        case of the paper).
    encoder_name:
        Name of the encoder that produced the delta, used for sanity checks
        when applying.
    """

    operations: Any
    storage_cost: float
    recreation_cost: float
    symmetric: bool = False
    encoder_name: str = "delta"
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.storage_cost < 0 or self.recreation_cost < 0:
            raise DeltaApplicationError("delta costs must be non-negative")


@dataclass(frozen=True)
class MaterializedPayload(Generic[Payload]):
    """A fully materialized payload plus its storage/recreation costs."""

    payload: Payload
    storage_cost: float
    recreation_cost: float


class DeltaEncoder(abc.ABC, Generic[Payload]):
    """Protocol implemented by every differencing mechanism."""

    #: Human-readable encoder name (also stamped on produced deltas).
    name: str = "delta"

    #: Whether deltas produced by this encoder are symmetric (undirected).
    symmetric: bool = False

    @abc.abstractmethod
    def diff(self, source: Payload, target: Payload) -> Delta[Payload]:
        """Compute the delta that transforms ``source`` into ``target``."""

    @abc.abstractmethod
    def apply(self, source: Payload, delta: Delta[Payload]) -> Payload:
        """Apply ``delta`` to ``source`` and return the reconstructed target."""

    def materialize(self, payload: Payload) -> MaterializedPayload[Payload]:
        """Wrap a payload with its full storage/recreation costs.

        By default both costs equal :func:`payload_size`; encoders that
        model slower or faster full reads can override this.
        """
        size = payload_size(payload)
        return MaterializedPayload(payload=payload, storage_cost=size, recreation_cost=size)

    def _check_encoder(self, delta: Delta[Payload]) -> None:
        """Raise when a delta produced by a different encoder is applied."""
        if delta.encoder_name != self.name:
            raise DeltaApplicationError(
                f"delta produced by encoder {delta.encoder_name!r} cannot be "
                f"applied by encoder {self.name!r}"
            )
