"""Structured JSON-lines event sink for ``repro serve --log-json PATH``.

One JSON object per line, flushed per event so a crash loses at most the
line being written.  Events carry a ``ts`` (epoch seconds), an ``event``
kind (``request``, ``repack_decision``, ``backend_error``, ...) and
whatever fields the caller supplies.  Writes are serialized by a lock;
a failing sink disables itself after logging once rather than taking the
serving path down with it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional, TextIO

from .metrics import log_once


class JsonLogSink:
    """Append-only JSON-lines writer, safe to share across request threads."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._created = not os.path.exists(path)
        self._fh: Optional[TextIO] = open(path, "a", encoding="utf-8")

    def emit(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        try:
            line = json.dumps(record, default=str, sort_keys=True)
        except Exception:
            log_once("logsink:encode", "could not encode a log event for %s", self.path)
            return
        with self._lock:
            fh = self._fh
            if fh is None:
                return
            try:
                fh.write(line + "\n")
                fh.flush()
            except Exception:
                self._fh = None
                log_once(
                    "logsink:write",
                    "writing to --log-json sink %s failed; disabling the sink",
                    self.path,
                )

    def close(self) -> None:
        with self._lock:
            fh = self._fh
            self._fh = None
        if fh is not None:
            try:
                fh.close()
            except Exception:
                pass

    def discard(self) -> None:
        """Close, and remove the file if this sink created it and it is
        still empty: a server that refused to start leaves nothing behind."""
        self.close()
        if self._created:
            try:
                if os.path.getsize(self.path) == 0:
                    os.remove(self.path)
            except OSError:
                pass

    def __enter__(self) -> "JsonLogSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
