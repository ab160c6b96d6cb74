"""Benchmark-side tracing: spans and counts recorded around calls into each
idleclimb layer, installed only for the traced run (``--trace 1``).

Nothing under ``src/`` is changed.  Each public name is wrapped where its
caller looks it up (for instance ``optimizer.read_best``, which
``work_loop`` and ``evaluate_and_merge`` call), the job directory handed to
``work_loop`` gets a counting backend and clock, and the objective is
wrapped.  Every span carries a name, start, end, its parent's name and the
id of the proposal it belongs to.  Spans stay in memory and are written out
as JSON lines when the run ends.

Simulator threads park inside ``VirtualKernel.advance`` while other
simulated workers run, so every span also tracks the wall time its thread
spent parked; per-layer times are reported *active*, i.e. without it.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace

from idleclimb import coordination, optimizer, simharness
from idleclimb.coordination import SIGNAL_FILE, LOCK_FILE, Committed, VersionConflict

# Spans stored individually; backend operations and simulator advances are
# only counted and timed (there are several per proposal), but their time
# still counts as child time of the span that made them.
ADVANCE = "simharness.advance"
OP_PREFIX = "op."


class Tracer:
    """Per-process span recorder.  One stack per thread: simulated workers
    interleave their calls on different OS threads."""

    def __init__(self):
        self._local = threading.local()
        self.spans: list[tuple] = []
        self.active_ns: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.ops: Counter = Counter()
        self.counts: Counter = Counter()
        self.sums_ns: Counter = Counter()
        self.proposal_seq = 0
        self.current_job: str | None = None
        self.clear_ns: dict[str, int] = {}
        self.return_ns: dict[str, list[int]] = defaultdict(list)
        self.threads_peak = threading.active_count()

    # -- stack -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_loop(self) -> bool:
        return bool(self._stack())

    def enter(self, name: str) -> None:
        # frame: name, start, child time, parked time, proposal id
        self._stack().append([name, time.perf_counter_ns(), 0, 0, self._proposal()])

    def exit(self, name: str, *, keep: bool = True) -> None:
        """Close the innermost span, which must be ``name``."""
        end = time.perf_counter_ns()
        stack = self._stack()
        frame = stack.pop()
        assert frame[0] == name, (frame[0], name)
        duration = end - frame[1]
        parked = duration if name == ADVANCE else frame[3]
        active = duration - parked
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent[3] += parked
        if name.startswith(OP_PREFIX):
            self.ops[name[len(OP_PREFIX):]] += 1
            self.sums_ns["op"] += active
        elif name != ADVANCE and keep:
            self.active_ns[name].append(active)
            self.self_ns[name].append(duration - frame[2])
            self.spans.append(
                (frame[4], name, stack[-1][0] if stack else None, frame[1], end)
            )

    def _proposal(self) -> int:
        return getattr(self._local, "proposal", 0)

    def next_proposal(self) -> None:
        self.proposal_seq += 1
        self._local.proposal = self.proposal_seq

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(name)

    def within(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def summary(self) -> dict:
        """Picklable aggregate, merged across worker processes."""
        return {
            "active_ns": dict(self.active_ns),
            "self_ns": dict(self.self_ns),
            "ops": dict(self.ops),
            "counts": dict(self.counts),
            "sums_ns": dict(self.sums_ns),
            "clear_ns": dict(self.clear_ns),
            "return_ns": dict(self.return_ns),
            "threads_peak": self.threads_peak,
        }


def merge_summaries(parts: list[dict]) -> dict:
    out = {
        "active_ns": defaultdict(list), "self_ns": defaultdict(list), "ops": Counter(),
        "counts": Counter(), "sums_ns": Counter(), "clear_ns": {},
        "return_ns": defaultdict(list), "threads_peak": 0,
    }
    for part in parts:
        for key in ("active_ns", "self_ns", "return_ns"):
            for name, values in part[key].items():
                out[key][name].extend(values)
        for key in ("ops", "counts", "sums_ns"):
            out[key].update(part[key])
        for job, at in part["clear_ns"].items():
            out["clear_ns"][job] = min(at, out["clear_ns"].get(job, at))
        out["threads_peak"] = max(out["threads_peak"], part["threads_peak"])
    return out


# ---------------------------------------------------------------------------
# Wrappers handed to the program


class TracingBackend:
    """Counts and times every primitive directory operation; notes when the
    signal file is removed (the start of a job's stop) and when a lock
    create fails (a lock backoff or break follows)."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def _op(self, op: str, fn, *args):
        tracer = self._tracer
        if not tracer.in_loop():
            return fn(*args)
        if tracer.within("coordination.commit_update"):
            tracer.counts["commit_ops"] += 1
        return tracer.span(OP_PREFIX + op, fn, *args)

    def exists(self, name):
        return self._op("exists", self._inner.exists, name)

    def read_text(self, name):
        return self._op("read_text", self._inner.read_text, name)

    def read_tail(self, name, offset):
        text, new_offset = self._op("read_tail", self._inner.read_tail, name, offset)
        if self._tracer.in_loop():
            self._tracer.counts["tally_bytes"] += new_offset - offset
        return text, new_offset

    def write_atomic(self, name, data):
        return self._op("write_atomic", self._inner.write_atomic, name, data)

    def create_exclusive(self, name, data):
        created = self._op("create_exclusive", self._inner.create_exclusive, name, data)
        if name == LOCK_FILE and not created:
            self._tracer.counts["lock_busy"] += 1
        return created

    def append_line(self, name, line):
        return self._op("append_line", self._inner.append_line, name, line)

    def remove(self, name):
        result = self._op("remove", self._inner.remove, name)
        tracer = self._tracer
        if name == SIGNAL_FILE:
            tracer.clear_ns.setdefault(tracer.current_job or self.describe(), time.perf_counter_ns())
        return result

    def describe(self):
        return self._inner.describe()


class TracingClock:
    """Times sleeps; those taken inside ``acquire_lock`` are lock backoffs."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def now(self):
        return self._inner.now()

    def time_of_day(self, timestamp):
        return self._inner.time_of_day(timestamp)

    def sleep(self, duration):
        start = time.perf_counter_ns()
        self._inner.sleep(duration)
        if self._tracer.within("coordination.acquire_lock"):
            self._tracer.sums_ns["lock_backoff"] += time.perf_counter_ns() - start


class TracingObjective:
    """Times each evaluation made inside a worker loop."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.length = inner.length
        self.level_count = inner.level_count
        self.cost_hint = inner.cost_hint

    def evaluate(self, config, checkpoint=None):
        if not self._tracer.in_loop():
            return self._inner.evaluate(config, checkpoint)
        return self._tracer.span("objective.evaluate", self._inner.evaluate, config, checkpoint)


def traced_job(job, tracer: Tracer):
    """The job handle a traced worker loop runs on."""
    return replace(
        job,
        backend=TracingBackend(job.backend, tracer),
        clock=TracingClock(job.clock, tracer),
    )


def traced_work_loop(tracer: Tracer, work_loop):
    """Wraps ``work_loop``: one span for the loop, and one "proposal" span
    per completed proposal, closed by the observer call that ends it."""

    def run(job, worker_id, objective, mode, stop, cancel=None, *, rng=None, observer=None):
        outcomes = tracer.counts

        def observe(record):
            tracer.exit("optimizer.proposal")
            outcomes["proposals"] += 1
            outcomes["outcome." + record.outcome.value] += 1
            tracer.threads_peak = max(tracer.threads_peak, threading.active_count())
            if observer is not None:
                observer(record)
            tracer.next_proposal()
            tracer.enter("optimizer.proposal")

        key = tracer.current_job or job.path
        local = tracer._local
        local.resumed = time.perf_counter_ns()
        tracer.next_proposal()
        tracer.enter("optimizer.work_loop")
        tracer.enter("optimizer.proposal")
        try:
            report = work_loop(job, worker_id, objective, mode, stop, cancel,
                               rng=rng, observer=observe)
        finally:
            tracer.exit("optimizer.proposal", keep=False)  # the final loop-top checks
            tracer.exit("optimizer.work_loop")
            end = time.perf_counter_ns()
            tracer.sums_ns["sim_task_run"] += end - local.resumed
            tracer.return_ns[key].append(end)
        outcomes["aborted"] += report.aborted
        return report

    return run


# Every name the traced run patches, as (module, attribute path).
HOOKS = (
    (optimizer, "read_best"),
    (optimizer, "evaluate_and_merge"),
    (optimizer, "commit_update"),
    (coordination, "parse_best"),
    (coordination, "serialize_best"),
    (coordination, "acquire_lock"),
    (coordination, "TallyReader.refresh"),
    (simharness, "work_loop"),
    (simharness, "VirtualKernel.advance"),
    (simharness, "VirtualKernel._grant"),
)


def missing_hooks() -> list[str]:
    """Patched names this version of the program no longer has.  A traced
    run must not start with any: the layer metrics it feeds would read 0,
    which looks like a gain."""
    missing = []
    for module, path in HOOKS:
        obj = module
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module.__name__}.{path}")
    return missing


def install(tracer: Tracer) -> None:
    """Patch the looked-up names for this process.  Raises AttributeError
    when one is missing; ``run.py`` checks :func:`missing_hooks` first."""

    def wrap(module, attr, name, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not tracer.in_loop():
                return original(*args, **kwargs)
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(module, attr, wrapper)

    def after_commit(result):
        tracer.counts["commit_calls"] += 1
        if isinstance(result, VersionConflict):
            tracer.counts["cas_conflicts"] += 1
        elif isinstance(result, Committed):
            tracer.counts["commits"] += 1
            tracer.counts["estimated_commits"] += bool(result.state.estimated)

    wrap(optimizer, "read_best", "coordination.read_best")
    wrap(optimizer, "evaluate_and_merge", "optimizer.evaluate_and_merge")
    wrap(optimizer, "commit_update", "coordination.commit_update", after_commit)
    wrap(coordination, "parse_best", "coordination.parse_best")
    wrap(coordination, "serialize_best", "coordination.serialize_best")
    wrap(coordination, "acquire_lock", "coordination.acquire_lock")
    refresh = coordination.TallyReader.refresh
    coordination.TallyReader.refresh = lambda self: (
        tracer.span("coordination.tally_refresh", refresh, self)
        if tracer.in_loop() else refresh(self)
    )
    simharness.work_loop = traced_work_loop(tracer, simharness.work_loop)
    _install_kernel(simharness.VirtualKernel, tracer)


def _install_kernel(kernel, tracer: Tracer) -> None:
    """Counts advance calls and baton grants.  A worker thread's run time is
    the wall time between resuming from a parked advance and parking again;
    a grant's duration minus the run time it enabled is handoff wait."""
    advance = kernel.advance
    grant = kernel._grant

    def traced_advance(self, name, duration, kind):
        if not tracer.in_loop():
            return advance(self, name, duration, kind)
        before = self._seq
        entered = time.perf_counter_ns()
        tracer.counts["advance_calls"] += 1
        try:
            return tracer.span(ADVANCE, advance, self, name, duration, kind)
        finally:
            if self._seq != before:  # parked: another task ran
                local = tracer._local
                tracer.sums_ns["sim_task_run"] += entered - local.resumed
                local.resumed = time.perf_counter_ns()

    def traced_grant(self, task):
        start = time.perf_counter_ns()
        grant(self, task)
        tracer.counts["handoffs"] += 1
        tracer.sums_ns["grant"] += time.perf_counter_ns() - start
        tracer.threads_peak = max(tracer.threads_peak, threading.active_count())

    kernel.advance = traced_advance
    kernel._grant = traced_grant


# Spans every traced workload must record, and the simulator's counts
# ``sim_p50`` must: a patched name its caller no longer looks up would
# otherwise leave its metrics at 0.
EXPECTED_SPANS = (
    "optimizer.work_loop", "optimizer.evaluate_and_merge", "coordination.read_best",
    "coordination.commit_update", "coordination.parse_best", "coordination.serialize_best",
    "coordination.acquire_lock", "coordination.tally_refresh", "objective.evaluate",
)
EXPECTED_SIM_COUNTS = ("advance_calls", "handoffs")


def unrecorded(agg: dict, sim: bool) -> list[str]:
    """Hooks a traced run never passed through."""
    names = [n for n in EXPECTED_SPANS if not agg["active_ns"].get(n)]
    if sim:
        names += [f"simharness.{n}" for n in EXPECTED_SIM_COUNTS if not agg["counts"].get(n)]
    elif not agg["active_ns"].get("worker.scheduler_tick"):
        names.append("worker.scheduler_tick")
    return names


# ---------------------------------------------------------------------------
# Per-layer metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def per_layer(agg: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Turn a merged trace summary into the per-layer metric table.

    ``extra`` carries what the workload measured itself: wall-clock totals,
    outcome figures and simulator reports.
    """
    act, self_ns, ops, counts, sums = (
        agg["active_ns"], agg["self_ns"], agg["ops"], agg["counts"], agg["sums_ns"]
    )
    us = 1e-3
    evals = counts["proposals"]
    per_eval = (lambda x: x / evals) if evals else (lambda x: 0.0)
    attempted = evals + counts["aborted"]
    per_attempt = (lambda x: x / attempted) if attempted else (lambda x: 0.0)
    loop_ns = sum(act.get("optimizer.work_loop", ()))
    share = (lambda x: x / loop_ns) if loop_ns else (lambda x: 0.0)
    commit_calls = counts["commit_calls"]
    per_commit = (lambda x: x / commit_calls) if commit_calls else (lambda x: 0.0)
    commits = counts["commits"]
    lags = [
        (max(agg["return_ns"][job]) - cleared) / 1e6
        for job, cleared in agg["clear_ns"].items()
        if agg["return_ns"].get(job)
    ]
    grant_ns = sums["grant"]
    handoffs = counts["handoffs"]
    m = {
        "coordination.ops_per_eval": (per_eval(sum(ops.values())), "count"),
        **{
            f"coordination.{op}_per_eval": (per_eval(ops.get(op, 0)), "count")
            for op in ("exists", "read_text", "read_tail", "append_line",
                       "write_atomic", "create_exclusive", "remove")
        },
        "coordination.op_busy_share": (share(sums["op"]), "share"),
        "coordination.read_best_us": (_median(act.get("coordination.read_best")) * us, "us"),
        "coordination.parse_best_us": (_median(act.get("coordination.parse_best")) * us, "us"),
        "coordination.serialize_best_us": (
            _median(act.get("coordination.serialize_best")) * us, "us"),
        "coordination.commit_us_p50": (_median(act.get("coordination.commit_update")) * us, "us"),
        "coordination.commit_us_p999": (
            _pct(act.get("coordination.commit_update"), 0.999) * us, "us"),
        "coordination.ops_per_commit": (per_commit(counts["commit_ops"]), "count"),
        "coordination.lock_wait_us_p50": (
            _median(act.get("coordination.acquire_lock")) * us, "us"),
        "coordination.lock_wait_us_p999": (
            _pct(act.get("coordination.acquire_lock"), 0.999) * us, "us"),
        "coordination.lock_backoffs_per_commit": (per_commit(counts["lock_busy"]), "count"),
        "coordination.lock_backoff_share": (share(sums["lock_backoff"]), "share"),
        "coordination.cas_conflicts_per_commit": (per_commit(counts["cas_conflicts"]), "count"),
        "coordination.lock_breaks": (extra["lock_breaks"], "count"),
        "coordination.tally_bytes_read_per_eval": (per_eval(counts["tally_bytes"]), "bytes"),
        "coordination.tally_refresh_us": (
            _median(act.get("coordination.tally_refresh")) * us, "us"),
        "master.changes_log_bytes": (extra["changes_log_bytes"], "bytes"),
        "master.report_ms": (extra["report_ms"], "ms"),
        "optimizer.committed_share": (per_attempt(counts["outcome.committed"]), "share"),
        "optimizer.not_better_share": (per_attempt(counts["outcome.not_better"]), "share"),
        "optimizer.conflict_share": (per_attempt(counts["outcome.conflict"]), "share"),
        "optimizer.stale_share": (per_attempt(counts["outcome.stale"]), "share"),
        "optimizer.aborted_share": (per_attempt(counts["aborted"]), "share"),
        "optimizer.estimated_commit_share": (
            counts["estimated_commits"] / commits if commits else 0.0, "share"),
        "optimizer.final_exact": (extra["final_exact"], "efficiency"),
        "optimizer.final_drift": (extra["final_drift"], "efficiency"),
        "optimizer.merge_us": (_median(self_ns.get("optimizer.evaluate_and_merge")) * us, "us"),
        "optimizer.loop_self_us": (_median(self_ns.get("optimizer.proposal")) * us, "us"),
        "optimizer.proposal_p50_us": (_median(act.get("optimizer.proposal")) * us, "us"),
        "optimizer.proposal_p999_us": (_pct(act.get("optimizer.proposal"), 0.999) * us, "us"),
        "optimizer.proposal_samples": (len(act.get("optimizer.proposal", ())), "count"),
        "optimizer.stop_lag_ms": (_median(lags), "ms"),
        "objective.evaluate_us_p50": (_median(act.get("objective.evaluate")) * us, "us"),
        "objective.busy_share": (share(sum(act.get("objective.evaluate", ()))), "share"),
        "objective.evaluations_per_proposal": (
            per_eval(len(act.get("objective.evaluate", ()))), "count"),
        "simharness.handoffs_per_eval": (per_eval(handoffs), "count"),
        "simharness.advance_calls_per_eval": (per_eval(counts["advance_calls"]), "count"),
        "simharness.handoff_wait_us": (
            max(0.0, grant_ns - sums["sim_task_run"]) / handoffs * us if handoffs else 0.0, "us"),
        "simharness.threads_peak": (agg["threads_peak"], "count"),
        "simharness.efficiency": (extra["sim_efficiency"], "ratio"),
        "simharness.quiesce_virtual": (extra["sim_quiesce"], "t_eval"),
        "worker.tick_us": (_median(act.get("worker.scheduler_tick")) * us, "us"),
        "worker.ticks_per_job": (
            len(act.get("worker.scheduler_tick", ())) / extra["jobs"], "count"),
        "trace.overhead_share": (extra["overhead_share"], "share"),
    }
    return m
