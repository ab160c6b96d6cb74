"""Objective functions over discrete configuration vectors.

A configuration is a tuple of integer levels, each in ``[0, L)``.  Objectives
are pure and deterministic; higher values are better.  The shipped objective
scores a one-dimensional discrete phase mask by the fraction of incident
power it diffracts into a chosen far-field order:

    a_m  = exp(2*pi*i * c_m / L)
    eta_k = | sum_m a_m * exp(-2*pi*i * k * m / n) |^2 / n^2

``sum_k eta_k == 1`` over all n orders, so eta_k is a proper efficiency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Protocol

import numpy as np

Config = tuple[int, ...]

# Returns True to continue, False to abandon the evaluation.  The argument is
# the estimated fraction of work done so far.
Checkpoint = Callable[[float], bool]

BRUTE_FORCE_LIMIT = 2**20


class EvaluationAborted(Exception):
    """An in-flight evaluation stopped at a checkpoint; its result is void."""


class Objective(Protocol):
    length: int
    level_count: int
    cost_hint: float

    def evaluate(self, config: Config, checkpoint: Checkpoint | None = None) -> float: ...


def validate_config(config: Config, length: int, level_count: int) -> None:
    if len(config) != length:
        raise ValueError(f"config has {len(config)} elements, expected {length}")
    for i, v in enumerate(config):
        if not 0 <= v < level_count:
            raise ValueError(f"config[{i}]={v} outside [0, {level_count})")


@dataclass(frozen=True)
class PhaseMaskObjective:
    """Diffraction efficiency of an n-element, L-level phase mask into order k.

    Only the single target-order Fourier coefficient is computed (a direct
    O(n) sum); the full spectrum is available via :func:`spectrum`.
    """

    length: int
    level_count: int
    target_order: int
    cost_hint: float = 1.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("mask length must be >= 1")
        if self.level_count < 2:
            raise ValueError("need at least two phase levels")
        if not 0 <= self.target_order < self.length:
            raise ValueError("target order must lie in [0, length)")

    def evaluate(self, config: Config, checkpoint: Checkpoint | None = None) -> float:
        validate_config(config, self.length, self.level_count)
        if checkpoint is not None and not checkpoint(0.0):
            raise EvaluationAborted("stop requested before evaluation")
        return efficiency(config, self.level_count, self.target_order)


def efficiency(config: Config, level_count: int, order: int) -> float:
    n = len(config)
    amplitudes = np.exp(2j * np.pi * np.asarray(config, dtype=np.float64) / level_count)
    phasor = np.exp(-2j * np.pi * order * np.arange(n) / n)
    coeff = np.dot(amplitudes, phasor)
    return float(abs(coeff) ** 2) / n**2


def spectrum(config: Config, level_count: int) -> np.ndarray:
    """Efficiencies of all n orders, computed with the same direct sum."""
    n = len(config)
    amplitudes = np.exp(2j * np.pi * np.asarray(config, dtype=np.float64) / level_count)
    orders = np.arange(n)
    phasors = np.exp(-2j * np.pi * np.outer(orders, orders) / n)
    coeffs = phasors @ amplitudes
    return np.abs(coeffs) ** 2 / n**2


def initial_config(obj: Objective, kind: str, seed: int) -> Config:
    """A job's starting configuration: all zeros when ``kind`` is "zero",
    otherwise uniformly random levels drawn from ``random.Random(seed)``."""
    if kind == "zero":
        return (0,) * obj.length
    rng = random.Random(seed)
    return tuple(rng.randrange(obj.level_count) for _ in range(obj.length))


def neighbors(obj: Objective, config: Config) -> Iterator[tuple[int, int]]:
    """All n*(L-1) single-element changes, each exactly once, in index order."""
    validate_config(config, obj.length, obj.level_count)
    for index in range(obj.length):
        for value in range(obj.level_count):
            if value != config[index]:
                yield index, value


def brute_force_optimum(obj: PhaseMaskObjective) -> tuple[Config, float]:
    """Exhaustive maximizer; ties broken by lexicographically smallest config.

    Refuses search spaces larger than 2**20 configurations.
    """
    n, level_count = obj.length, obj.level_count
    total = level_count**n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"search space {level_count}^{n} = {total} exceeds the "
            f"enumeration limit of {BRUTE_FORCE_LIMIT}"
        )
    phasor = np.exp(-2j * np.pi * obj.target_order * np.arange(n) / n)
    best_value = -math.inf
    best_index = -1
    chunk = 1 << 14
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        # Enumerate configs as base-L digit strings, most significant digit
        # first, so chunk order is lexicographic order.
        idx = np.arange(start, start + count)[:, None]
        digits = (idx // level_count ** np.arange(n - 1, -1, -1)) % level_count
        amplitudes = np.exp(2j * np.pi * digits / level_count)
        values = np.abs(amplitudes @ phasor) ** 2 / n**2
        arg = int(np.argmax(values))
        # Strict > keeps the earliest (lexicographically smallest) maximizer.
        if values[arg] > best_value:
            best_value = float(values[arg])
            best_index = start + arg
    digits = []
    rem = best_index
    for _ in range(n):
        digits.append(rem % level_count)
        rem //= level_count
    config = tuple(reversed(digits))
    # Report the exact evaluate() value so the two paths agree bit for bit.
    return config, efficiency(config, level_count, obj.target_order)


def from_manifest(params: Mapping[str, str]) -> PhaseMaskObjective:
    """Build the objective described by a job manifest."""
    kind = params.get("objective", "")
    if kind != "phase_mask":
        raise ValueError(f"unknown objective {kind!r} in manifest")
    try:
        return PhaseMaskObjective(
            length=int(params["n"]),
            level_count=int(params["levels"]),
            target_order=int(params["target_order"]),
        )
    except KeyError as exc:
        raise ValueError(f"manifest missing objective key {exc}") from exc
