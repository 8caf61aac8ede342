"""The :class:`Stage` abstraction: one phase of the compilation pipeline.

A stage is a named, versioned pure function from declared input artifacts to
one output artifact, plus the static parameters that influence the result
(grid size, seeds, partitioning knobs, …).  The cache key of a stage
application is derived from the stage identity, its parameters and the keys
of its inputs.  The pipeline hashes its initial inputs by content and
names a derived artifact by the key of the stage that produced it (only
outputs of stages with parameters may keep a content hash, see
:mod:`repro.pipeline.pipeline`), so keys chain from the program through
every stage: changing any upstream parameter or version changes the key of
every downstream artifact, which is the invalidation rule the whole
subsystem rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro.pipeline.hashing import hash_parts

__all__ = ["Stage"]


@dataclass(frozen=True)
class Stage:
    """One declarative phase of a compilation pipeline.

    Attributes:
        name: Stable stage identifier (used for telemetry and manifests).
        fn: The stage body; called as ``fn(**inputs)`` and must return the
            output artifact (never ``None``).
        inputs: Names of the state entries the stage consumes.
        output: Name of the state entry the stage produces.
        params: Static parameters that influence the output, as sorted
            ``(name, value)`` pairs; part of the cache key.
        version: Bump to invalidate previously cached artifacts after a
            semantic change to ``fn``.
        cacheable: Stages doing trivial work can opt out of caching.
    """

    name: str
    fn: Callable[..., object]
    inputs: Tuple[str, ...]
    output: str
    params: Tuple[Tuple[str, object], ...] = ()
    version: str = "1"
    cacheable: bool = True

    def __init__(
        self,
        name: str,
        fn: Callable[..., object],
        inputs: Sequence[str],
        output: str,
        params: Optional[Mapping[str, object]] = None,
        version: str = "1",
        cacheable: bool = True,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "params", tuple(sorted((params or {}).items())))
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "cacheable", cacheable)

    def key(self, input_hashes: Sequence[str]) -> str:
        """Cache key of one application of this stage to keyed inputs.

        For a parameter-free stage this key also names the output.
        """
        return hash_parts(
            "stage",
            self.name,
            self.version,
            list(self.params),
            list(input_hashes),
        )

    def run(self, state: Mapping[str, object]) -> object:
        """Execute the stage body against ``state``."""
        return self.fn(**{name: state[name] for name in self.inputs})
