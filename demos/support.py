"""Study helpers shared by the demos and the tests.

None of this is part of the protocol: :func:`naive_replace` is the unsafe
update the double-read merge exists to prevent, and :func:`spectrum` and
:func:`brute_force_optimum` are exact references for the phase-mask
objective.  Demos import this module from their own directory; the tests
find it through the ``pythonpath`` setting in ``pyproject.toml``.
"""

from __future__ import annotations

import math

import numpy as np

from idleclimb.coordination import (
    BEST_FILE,
    CHANGES_FILE,
    BestState,
    ChangeProposal,
    JobDirectory,
    commit_line,
    read_best,
    serialize_best,
)
from idleclimb.objective import Config, Objective, PhaseMaskObjective, efficiency

BRUTE_FORCE_LIMIT = 2**20


def spectrum(config: Config, level_count: int) -> np.ndarray:
    """Efficiencies of all n orders, computed with the same direct sum."""
    n = len(config)
    amplitudes = np.exp(2j * np.pi * np.asarray(config, dtype=np.float64) / level_count)
    orders = np.arange(n)
    phasors = np.exp(-2j * np.pi * np.outer(orders, orders) / n)
    coeffs = phasors @ amplitudes
    return np.abs(coeffs) ** 2 / n**2


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


def naive_replace(
    job: JobDirectory,
    base: BestState,
    change: tuple[int, int],
    objective: Objective,
    *,
    proposer: str = "worker",
) -> BestState | None:
    """The no-second-read update: evaluate against ``base`` and, if better,
    overwrite whatever is stored with base-plus-change and append its commit
    line.  It takes no lock and checks no version: the lost update it shows
    comes from the missing second read, not from a race on the write.

    Kept only to demonstrate the lost-update failure the double-read merge
    prevents.  Never used by :func:`idleclimb.optimizer.work_loop`.
    """
    index, new_value = change
    candidate = base.config[:index] + (new_value,) + base.config[index + 1 :]
    measured = objective.evaluate(candidate)
    if measured <= base.performance:
        return None
    proposal = ChangeProposal(
        index=index, new_value=new_value, delta=measured - base.performance, proposer=proposer
    )
    state = BestState(
        version=read_best(job).version + 1,
        config=candidate,
        performance=measured,
        estimated=False,
        updated_by=proposer,
        updated_at=job.clock.now(),
    )
    job.backend.write_atomic(BEST_FILE, serialize_best(state))
    job.backend.append_line(CHANGES_FILE, commit_line(state.version, proposal))
    return state
