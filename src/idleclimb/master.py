"""Operator commands for preparing and controlling a job directory.

The coordinator role is deliberately thin: every command is a short-lived
process whose state lives entirely in the job directory, so the same machine
can coordinate one job and contribute idle cycles to another.

Commands print line-oriented ``key=value`` output.  Exit codes: 0 success,
2 invalid parameters, 3 wrong job state (not initialized, already
initialized, or still running), 4 any other protocol failure (an
unreachable share, an unreadable protocol file).  Failures print one
``error=`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from . import coordination as coord
from . import objective as objmod
from . import optimizer
from .cli import parse_command

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STATE = 3
EXIT_IO = 4


def _print(key: str, value) -> None:
    print(f"{key}={value}")


def cmd_init(args) -> int:
    # The objective and stop options are manifest keys, read as a manifest's.
    params = {"objective": "phase_mask", **vars(args)}
    job_id = args.job_id or os.path.basename(os.path.abspath(args.dir))
    try:
        objective, stop = optimizer.job_from_manifest(params)
        config = objmod.initial_config(objective, args.init_config, args.seed)
        if job_id != job_id.strip() or len(job_id.splitlines()) != 1:  # as the manifest reads it
            raise ValueError(f"job_id={job_id!r}: must be one non-empty line, not space-padded")
    except ValueError as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_USAGE
    job = coord.JobDirectory.create(args.dir, job_id)
    if coord.signal_exists(job):
        print("error=job still running (stop it before re-initializing)", file=sys.stderr)
        return EXIT_STATE
    # The manifest follows version 0, so an init that is refused writes nothing.
    state = optimizer.initialize(job, config, objective, force=args.force)
    coord.write_manifest(job, {**objective.manifest_params(), **stop.manifest_params()})
    _print("job_id", job.job_id)
    _print("version", state.version)
    _print("performance", f"{state.performance:.17g}")
    _print("config", " ".join(str(v) for v in state.config))
    return EXIT_OK


def cmd_start(args) -> int:
    job = coord.JobDirectory.open(args.dir)
    coord.read_best(job)  # refuse to wave workers at an uninitialized job
    coord.signal_set(job)
    _print("signal", "set")
    return EXIT_OK


def cmd_stop(args) -> int:
    coord.signal_clear(coord.JobDirectory.open(args.dir))
    _print("signal", "cleared")
    return EXIT_OK


def cmd_status(args) -> int:
    # Everything is read before anything is printed, so a failure leaves
    # stdout empty.
    job = coord.JobDirectory.open(args.dir)
    present = coord.signal_exists(job)
    state = coord.read_best(job)
    commits = len(coord.read_commit_log(job))
    _print("job_id", job.job_id)
    _print("signal", "present" if present else "absent")
    _print("version", state.version)
    _print("performance", f"{state.performance:.17g}")
    _print("estimated", int(state.estimated))
    _print("updated_by", state.updated_by)
    _print("updated_at", f"{state.updated_at:.6f}")
    _print("commits", commits)
    return EXIT_OK


def cmd_report(args) -> int:
    job = coord.JobDirectory.open(args.dir)
    if coord.signal_exists(job):
        print("error=job still running (stop it before reporting)", file=sys.stderr)
        return EXIT_STATE
    objective = objmod.from_manifest(coord.read_manifest(job))
    state = coord.read_best(job)
    # The recorded performance may be an additive estimate; a fresh
    # evaluation of the stored configuration shows how far it drifted.
    exact = objective.evaluate(state.config)
    fleet = coord.WorkerTally.total(coord.read_fleet_tally(job).values())
    commits = len(coord.read_commit_log(job))
    _print("job_id", job.job_id)
    _print("version", state.version)
    _print("config", " ".join(str(v) for v in state.config))
    _print("recorded_performance", f"{state.performance:.17g}")
    _print("exact_performance", f"{exact:.17g}")
    _print("estimated", int(state.estimated))
    _print("estimate_drift", f"{abs(state.performance - exact):.17g}")
    _print("commits", commits)
    _print("evaluations", fleet.evaluations)
    _print("rejected_not_better", fleet.rejects_not_better)
    _print("rejected_conflict", fleet.rejects_conflict)
    _print("rejected_stale", fleet.rejects_stale)
    return EXIT_OK


def _init_parser(make) -> argparse.ArgumentParser:
    p_init = make(help="write the manifest and version-0 record")
    p_init.add_argument("dir")
    p_init.add_argument("--n", default="8", help="mask length")
    p_init.add_argument("--levels", default="2", help="number of phase levels")
    p_init.add_argument("--target-order", default="1", dest="target_order")
    p_init.add_argument("--init-config", default="zero", dest="init_config")
    p_init.add_argument("--seed", type=int, default=0)
    # A stop option left out is left out of the manifest too.
    p_init.add_argument("--stop-max-evals", default=argparse.SUPPRESS)
    p_init.add_argument("--stop-target", default=argparse.SUPPRESS)
    p_init.add_argument("--stop-stagnation", default=argparse.SUPPRESS)
    p_init.add_argument("--job-id", default=None, dest="job_id")
    p_init.add_argument("--force", action="store_true")
    p_init.set_defaults(func=cmd_init)
    return p_init


def _dir_parser(func, make) -> argparse.ArgumentParser:
    p = make()
    p.add_argument("dir")
    p.set_defaults(func=func)
    return p


_COMMANDS = {"init": _init_parser} | {
    name: functools.partial(_dir_parser, func)
    for name, func in (("start", cmd_start), ("stop", cmd_stop),
                       ("status", cmd_status), ("report", cmd_report))
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Commands raise protocol errors; this is the one
    place that maps them to an ``error=`` line and an exit code."""
    args = parse_command("idleclimb master", __doc__, _COMMANDS, argv)
    try:
        return args.func(args)
    except coord.CoordinationError as exc:
        print(f"error={exc}", file=sys.stderr)
        if isinstance(exc, (coord.NotInitializedError, coord.AlreadyInitializedError)):
            return EXIT_STATE
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
