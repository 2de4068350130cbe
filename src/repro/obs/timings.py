"""A Mapping facade over per-phase timing dataclasses.

``CompilationTimings`` and ``UpdateTimings`` are dataclasses with one float
field per phase, each filled from that phase's span duration.  Mixing this
class in derives everything else from the fields: ``total`` (their sum),
``as_dict()`` (one entry per phase plus ``"total"`` — the shape the ledger
probes read), and a read-only mapping over the *components* (iteration
skips ``"total"`` so ``sum(t.values())`` never double-counts).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields
from typing import Any, ClassVar, Iterator

__all__ = ["TimingsMapping"]


class TimingsMapping(Mapping[str, float]):
    """Read-only mapping over a timing dataclass's phase components."""

    # Mixed into dataclasses only; declared so ``fields(self)`` type-checks.
    __dataclass_fields__: ClassVar[dict[str, Any]]

    def components(self) -> dict[str, float]:
        """Phase -> seconds, excluding the aggregate ``total`` entry."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @property
    def total(self) -> float:
        """The phases summed (``t_c`` for a compilation, ``t_u`` for an update)."""
        return sum(self.components().values())

    def as_dict(self) -> dict[str, float]:
        """Component name to seconds, plus the total."""
        components = self.components()
        return {**components, "total": sum(components.values())}

    def __getitem__(self, key: str) -> float:
        # Consistent with iteration: only the components are mapping keys;
        # the aggregate stays on ``total`` / ``total_seconds``.
        return self.components()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.components())

    def __len__(self) -> int:
        return len(self.components())

    @property
    def total_seconds(self) -> float:
        return self.total
