"""Objective functions over discrete configuration vectors.

A configuration is a tuple of integer levels, each in ``[0, L)``.  Objectives
are pure and deterministic; higher values are better.  The shipped objective
scores a one-dimensional discrete phase mask by the fraction of incident
power it diffracts into a chosen far-field order:

    a_m  = exp(2*pi*i * c_m / L)
    eta_k = | sum_m a_m * exp(-2*pi*i * k * m / n) |^2 / n^2

``sum_k eta_k == 1`` over all n orders, so eta_k is a proper efficiency.

The sum runs over numpy tables, and numpy is imported with the first
tables a process builds, not with this module: a command that evaluates
nothing (``master start``, ``stop`` and ``status``, ``worker tick`` and
``probe``) never loads it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Protocol

from .coordination import FormatError, build_record

if TYPE_CHECKING:
    import numpy as np

Config = tuple[int, ...]

# The most phase levels: at about 100 bytes of tables a level, more could exhaust memory.
MAX_LEVELS = 2**16

# Asked by an objective between slices of its work: True to continue, False
# to abandon the evaluation.  An objective that works in one step never asks.
Checkpoint = Callable[[], bool]


class EvaluationAborted(Exception):
    """An in-flight evaluation stopped at a checkpoint; its result is void."""


class Objective(Protocol):
    length: int
    level_count: int
    cost_hint: float

    def evaluate(self, config: Config, checkpoint: Checkpoint | None = None) -> float: ...


@functools.lru_cache(maxsize=64)
def _levels(level_count: int) -> frozenset[int]:
    return frozenset(range(level_count))


def validate_config(config: Config, length: int, level_count: int) -> None:
    """Raise FormatError unless ``config`` has ``length`` elements, each in
    ``[0, level_count)``.  A valid configuration passes in one set check;
    only one that fails it is walked element by element, to name the first
    bad element (or to raise the TypeError of a non-numeric one)."""
    try:
        if len(config) == length and _levels(level_count).issuperset(config):
            return
    except TypeError:  # an unhashable element; the walk below names it
        pass
    if len(config) != length:
        raise FormatError(f"config has {len(config)} elements, expected {length}")
    for i, v in enumerate(config):
        if not 0 <= v < level_count:
            raise FormatError(f"config[{i}]={v} outside [0, {level_count})")


_MANIFEST_KEYS = {"n": ("length", int), "levels": ("level_count", int),
                  "target_order": ("target_order", int)}


@dataclass(frozen=True)
class PhaseMaskObjective:
    """Diffraction efficiency of an n-element, L-level phase mask into order k.

    Only the single target-order Fourier coefficient is computed, as a
    direct O(n) sum.
    """

    length: int
    level_count: int
    target_order: int
    cost_hint: float = 1.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("mask length must be >= 1")
        if not 2 <= self.level_count <= MAX_LEVELS:
            raise ValueError(f"phase levels must lie in [2, {MAX_LEVELS}]")
        if not 0 <= self.target_order < self.length:
            raise ValueError("target order must lie in [0, length)")

    def evaluate(self, config: Config, checkpoint: Checkpoint | None = None) -> float:
        validate_config(config, self.length, self.level_count)
        return efficiency(config, self.level_count, self.target_order)

    def manifest_params(self) -> dict[str, str]:
        """The manifest keys :func:`from_manifest` reads back."""
        fields = {key: str(getattr(self, name)) for key, (name, _kind) in _MANIFEST_KEYS.items()}
        return {"objective": "phase_mask", **fields}


def efficiency(config: Config, level_count: int, order: int) -> float:
    """Diffraction efficiency of ``config`` into ``order``.  Every level must
    lie in ``[0, level_count)``: they index a table, so a level outside it is
    not checked here (:meth:`PhaseMaskObjective.evaluate` validates first)."""
    n = len(config)
    levels, phasor = _tables(n, level_count, order)
    coeff = levels.take(config).dot(phasor)
    return float(abs(coeff) ** 2) / n**2


@functools.lru_cache(maxsize=64)
def _tables(n: int, level_count: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The L level phasors exp(2*pi*i*c/L) and the order's DFT row, computed
    once per (n, L, order) with the same numpy expressions a direct
    evaluation would use, so a sum over them is bit-identical to one."""
    import numpy as np  # at the first evaluation; see the module docstring

    levels = np.exp(2j * np.pi * np.arange(level_count, dtype=np.float64) / level_count)
    phasor = np.exp(-2j * np.pi * order * np.arange(n) / n)
    levels.flags.writeable = phasor.flags.writeable = False
    return levels, phasor


def initial_config(obj: Objective, kind: str, seed: int) -> Config:
    """A job's starting configuration: all zeros when ``kind`` is "zero",
    uniformly random levels drawn from ``random.Random(seed)`` when it is
    "random".  Any other kind is a ValueError."""
    if kind == "zero":
        return (0,) * obj.length
    if kind != "random":
        raise ValueError(f"unknown initial configuration {kind!r} (expected zero or random)")
    rng = random.Random(seed)
    return tuple(rng.randrange(obj.level_count) for _ in range(obj.length))


def neighbors(obj: Objective, config: Config) -> Iterator[tuple[int, int]]:
    """All n*(L-1) single-element changes, each exactly once, in index order."""
    validate_config(config, obj.length, obj.level_count)
    for index in range(obj.length):
        for value in range(obj.level_count):
            if value != config[index]:
                yield index, value


def from_manifest(params: Mapping[str, str]) -> PhaseMaskObjective:
    """Build the objective described by a job manifest.  An unknown
    objective, a missing key or a malformed value is a :class:`FormatError`."""
    kind = params.get("objective", "")
    if kind != "phase_mask":
        raise FormatError(f"unknown objective {kind!r}")
    return build_record(PhaseMaskObjective, params, _MANIFEST_KEYS, "objective")
