"""A name left behind by the deleted persistence tier.

Nothing in the package persists analysed plans, kernels, credentials or
query results: every cache lives and dies with its cluster, so there is no
spill directory whose bytes could be unpickled or executed.
"""

from __future__ import annotations

from typing import Any

# Kept only because benchmarks/e2e/probes.py pins TieredStore.get / put, and
# its probe test asserts that every pinned target resolves.

_GONE = "the persistence tier was removed"


class TieredStore:
    """Never constructed; its methods exist only to be resolvable."""

    def get(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError(_GONE)

    def put(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError(_GONE)
