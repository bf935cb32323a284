"""Deterministic, splittable random streams.

All randomness in the package flows through :class:`RngStream`, a thin
wrapper around numpy's ``SeedSequence`` + ``Philox``. A stream is identified
by a 64-bit seed and an integer path; ``child(i, j, ...)`` extends the path.
Philox is counter-based, so identical (seed, path) pairs produce identical
sequences on every platform, and any work unit (trial, grid cell, fold) can
be given its own stream and scheduled in any order without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible random stream."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")

    def child(self, *indices: int) -> "RngStream":
        """Derive the sub-stream at ``indices`` below this stream."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def as_stream(seed: "int | RngStream") -> RngStream:
    """Coerce a bare integer seed to a root stream."""
    if isinstance(seed, RngStream):
        return seed
    try:
        return RngStream(int(seed))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"seed must be an integer or a stream, got {seed!r}") from exc
