"""Names left behind by the deleted shared-memory data plane.

Nothing in the package creates shared-memory segments: scans and kernels run
on the driver's threads, and the sandbox speaks pickle frames over a pipe.
"""

from __future__ import annotations

from typing import Any

# Kept only because benchmarks/e2e/probes.py pins the five functions below
# and benchmarks/e2e/child.py calls live_segment_names() at teardown.

_GONE = "shared-memory batches were removed"


def encode_columns(*args: Any, **kwargs: Any) -> Any:
    raise NotImplementedError(_GONE)


def decode_columns(*args: Any, **kwargs: Any) -> Any:
    raise NotImplementedError(_GONE)


def create_segment(*args: Any, **kwargs: Any) -> Any:
    raise NotImplementedError(_GONE)


def adopt_segment(*args: Any, **kwargs: Any) -> Any:
    raise NotImplementedError(_GONE)


def release_segment(*args: Any, **kwargs: Any) -> Any:
    raise NotImplementedError(_GONE)


def live_segment_names() -> list[str]:
    """Always empty: no module under ``repro`` imports ``multiprocessing``."""
    return []
