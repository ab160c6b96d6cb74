"""idleclimb: distributed hill-climbing on scavenged desktop idle time.

Workers coordinate exclusively through files in a shared directory: a
presence-signal file gates start/stop, and a versioned, checksummed best
record is updated with an optimistic read-evaluate-reread-merge protocol.
The package also ships a portable idle-scheduler daemon, an operator command
set, and a deterministic fleet simulator.
"""

from .clock import VirtualClock, WallClock
from .coordination import (
    BestState,
    ChangeProposal,
    Committed,
    CoordinationError,
    FsBackend,
    JobDirectory,
    MemBackend,
    VersionConflict,
    acquire_lock,
    commit_update,
    read_best,
    release_lock,
    signal_clear,
    signal_exists,
    signal_set,
)
from .objective import PhaseMaskObjective, brute_force_optimum, neighbors, spectrum
from .optimizer import (
    MergeOutcome,
    OptimizerMode,
    Outcome,
    StopCondition,
    evaluate_and_merge,
    initialize,
    propose,
    work_loop,
)
from .simharness import (
    JobSetup,
    SimConfig,
    SimWorker,
    SpeedupReport,
    ideal_speedup,
    interruption_test,
    run_sim,
    sweep_fleet_size,
)
from .worker import (
    DaemonReport,
    TraceProbe,
    WorkerConfig,
    run_daemon,
    scheduler_tick,
)

__version__ = "0.1.0"

__all__ = [
    "BestState",
    "ChangeProposal",
    "Committed",
    "CoordinationError",
    "DaemonReport",
    "FsBackend",
    "JobDirectory",
    "JobSetup",
    "MemBackend",
    "MergeOutcome",
    "OptimizerMode",
    "Outcome",
    "PhaseMaskObjective",
    "SimConfig",
    "SimWorker",
    "SpeedupReport",
    "StopCondition",
    "TraceProbe",
    "VersionConflict",
    "VirtualClock",
    "WallClock",
    "WorkerConfig",
    "acquire_lock",
    "brute_force_optimum",
    "commit_update",
    "evaluate_and_merge",
    "ideal_speedup",
    "initialize",
    "interruption_test",
    "neighbors",
    "propose",
    "read_best",
    "release_lock",
    "run_daemon",
    "run_sim",
    "scheduler_tick",
    "signal_clear",
    "signal_exists",
    "signal_set",
    "spectrum",
    "sweep_fleet_size",
    "work_loop",
]
