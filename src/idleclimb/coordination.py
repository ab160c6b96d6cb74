"""The shared-directory coordination protocol.

A job lives in one directory, usually a network share every participating
machine can reach.  Workers and the coordinating operator communicate only
through files in it:

``go.dat``
    Zero-byte presence signal.  Workers run while it exists; deleting it
    tells the whole fleet to stop.
``best.dat``
    The global best record: ``version=``, ``performance=``, ``estimated=``,
    ``updated_by=``, ``updated_at=``, ``n=``, ``config=`` (space-separated
    integers), ``checksum=`` (16 hex digits over all preceding bytes).
    Always replaced atomically, never edited in place.
``lock``
    Short-lived writer lock: ``owner=``, ``acquired_at=``, ``stale_after=``.
    Created exclusively; a lock older than :data:`STALE_AFTER`, or one
    that does not parse, is broken.
    The lock's timings are protocol constants; ``stale_after=`` is written
    from the constant for earlier versions, which judge a lock by it.
``manifest.dat``
    Immutable job description: ``job_id=``, objective parameters, stop
    parameters.
``changes.log``
    Append-only audit trail.  One ``version index new_value delta proposer``
    line per committed update, plus ``#tally`` progress lines from workers.
    Tallies are written per sync, not per evaluation: a worker syncs (writes
    its tally if it changed, then reads the others') at its first loop top,
    after a commit and at most once per ``optimizer.TALLY_SYNC_INTERVAL`` of
    the job's clock, and writes its tally once more when its loop exits.
    A tally line is exactly ``#tally <worker>`` and one ``key=N`` per
    :data:`TALLY_KEYS`, in order, with single spaces and non-negative
    decimal counts: a :class:`WorkerTally`, the one outcome-counts record
    that loop reports, simulator stats, exit lines and ``master report``
    share.  Any other line is ignored, and a half-written last line is
    never read (see :class:`Backend`).  Advisory: nothing reads it to
    decide correctness.  A :func:`publish_initial` over an existing
    changes.log, forced or not, appends one ``#init`` line, and every
    reader counts only the lines after the last one, so the file only grows
    (as :class:`TallyReader` relies on) and an old job's lines stay above
    that line as history.

Ordinary file shares offer no compare-and-swap, so updates go through the
lock plus a write-to-temp-then-atomic-rename discipline, and every record
carries a checksum so a torn write is rejected instead of parsed.  All
operations are safe to call concurrently from independent processes; the
lock file is the only mutual exclusion there is.

Every ``key=value`` file (best.dat, the lock, the manifest, and the
simulator's scenario and the daemon's configuration files) is read by one
codec, :func:`parse_fields`, and its values are converted by one rule,
:func:`convert_fields`.  best.dat's body, the lines before its first
``checksum=`` line, goes through the same codec, so blank and ``#`` lines
in it are skipped and its keys and values are stripped; the checksum still
covers the body's bytes exactly as written.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import logging
import math
import os
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, Iterable, Mapping, NamedTuple, Protocol, Union

from .clock import Clock, WallClock

log = logging.getLogger(__name__)

SIGNAL_FILE = "go.dat"
BEST_FILE = "best.dat"
LOCK_FILE = "lock"
MANIFEST_FILE = "manifest.dat"
CHANGES_FILE = "changes.log"

STALE_AFTER = 30.0
LOCK_DEADLINE = 30.0
LOCK_BACKOFF = 0.05

TALLY_PREFIX = "#tally"
INIT_LINE = "#init"
_INIT_TEXT = INIT_LINE + "\n"


class CoordinationError(Exception):
    """Base class for protocol failures."""


class ShareUnreachableError(CoordinationError):
    """The job directory cannot be reached or written."""


class NotInitializedError(CoordinationError):
    """best.dat does not exist; the job was never initialized."""


class AlreadyInitializedError(CoordinationError):
    """best.dat already exists and force was not requested."""


class FormatError(CoordinationError, ValueError):
    """A protocol file failed to parse; the message names the bad line."""


class LockContentionError(CoordinationError):
    """A live lock could not be acquired before the deadline."""


# ---------------------------------------------------------------------------
# Directory backends


class Backend(Protocol):
    """Primitive file operations inside one job directory.

    Implementations must make ``write_atomic`` all-or-nothing for readers
    and ``create_exclusive`` fail when the name exists.  ``read_tail``
    returns whole lines only: the text from ``offset`` through the last
    newline and the offset just after it, or ``""`` and ``offset`` when the
    file is missing or no newline follows.
    """

    def exists(self, name: str) -> bool: ...

    def read_text(self, name: str) -> str: ...

    def read_tail(self, name: str, offset: int) -> tuple[str, int]: ...

    def write_atomic(self, name: str, data: str) -> None: ...

    def create_exclusive(self, name: str, data: str) -> bool: ...

    def append_line(self, name: str, line: str) -> None: ...

    def remove(self, name: str) -> None: ...

    def describe(self) -> str: ...


_tmp_counter = itertools.count()

# The names a job directory holds; FsBackend joins each to its path once.
PROTOCOL_FILES = (SIGNAL_FILE, BEST_FILE, LOCK_FILE, MANIFEST_FILE, CHANGES_FILE)

# Bytes asked of each ``read`` call; a file is read until one returns none.
_READ_CHUNK = 1 << 16


def _link_once(tmp: str, path: str) -> bool:
    """Hardlink ``tmp`` to ``path`` unless ``path`` exists, then drop ``tmp``."""
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)


class FsBackend:
    """A real directory on a local disk or a mounted share."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._paths = {name: os.path.join(self.path, name) for name in PROTOCOL_FILES}

    def _tmp_name(self, name: str) -> str:
        # Unique per process, thread and call: concurrent writers must never
        # collide on scratch names, and a name used once is not kept.
        return os.path.join(
            self.path, f".{name}.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}.tmp"
        )

    def _check_dir(self, cause: Exception) -> Exception:
        if not os.path.isdir(self.path):
            return ShareUnreachableError(f"job directory unreachable: {self.path}")
        return ShareUnreachableError(f"I/O error in {self.path}: {cause}")

    def _full(self, name: str) -> str:
        return self._paths.get(name) or os.path.join(self.path, name)

    def exists(self, name: str) -> bool:
        """One ``stat`` when the file is there; only a failed one looks at the
        directory, to tell a missing file from an unreachable share."""
        try:
            os.stat(self._full(name))
            return True
        except (OSError, ValueError):
            if not os.path.isdir(self.path):
                raise ShareUnreachableError(f"job directory unreachable: {self.path}") from None
            return False

    def _read_raw(self, name: str, offset: int) -> bytes:
        """The file's bytes from ``offset`` to its end.  A missing file is a
        FileNotFoundError while the job directory is there; a missing
        directory or any other failure is a :class:`ShareUnreachableError`."""
        try:
            fd = os.open(self._full(name), os.O_RDONLY)
        except OSError as exc:
            if isinstance(exc, FileNotFoundError) and os.path.isdir(self.path):
                raise
            raise self._check_dir(exc) from exc
        try:
            if offset:
                os.lseek(fd, offset, os.SEEK_SET)
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        except OSError as exc:
            raise self._check_dir(exc) from exc
        finally:
            os.close(fd)
        return b"".join(chunks)

    def read_text(self, name: str) -> str:
        """The whole file, decoded as UTF-8 with bad bytes replaced and line
        endings kept as they are.  Read with one ``os.open``, ``os.read``
        until it returns nothing, and ``os.close``: no buffered file object."""
        return self._read_raw(name, 0).decode("utf-8", "replace")

    def read_tail(self, name: str, offset: int) -> tuple[str, int]:
        try:
            raw = self._read_raw(name, offset)
        except FileNotFoundError:
            return "", offset
        # A newline is one byte in UTF-8, so the cut never splits a character.
        raw = raw[: raw.rfind(b"\n") + 1]
        return raw.decode("utf-8", "replace"), offset + len(raw)

    def _place(self, name: str, data: str, place: Callable[[str, str], Any]) -> Any:
        """Write ``data`` to a fresh temp file and ``place(tmp, path)`` it at
        ``name``'s path, so a reader never sees a half-written file.  The
        temp file never outlives the call: ``place`` leaves none, and on any
        failure it is removed here."""
        tmp = self._tmp_name(name)
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            return place(tmp, self._full(name))
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if isinstance(exc, OSError):
                raise self._check_dir(exc) from exc
            raise

    def write_atomic(self, name: str, data: str) -> None:
        self._place(name, data, os.replace)

    def create_exclusive(self, name: str, data: str) -> bool:
        return self._place(name, data, _link_once)

    def append_line(self, name: str, line: str) -> None:
        try:
            with open(self._full(name), "a", encoding="utf-8", newline="") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise self._check_dir(exc) from exc

    def remove(self, name: str) -> None:
        try:
            os.unlink(self._full(name))
        except OSError as exc:
            if isinstance(exc, FileNotFoundError) and os.path.isdir(self.path):
                return  # already gone
            raise self._check_dir(exc) from exc

    def describe(self) -> str:
        return self.path


class MemBackend:
    """In-memory directory with the same semantics, for tests and simulation."""

    def __init__(self, name: str = "<memory>"):
        self.name = name
        self._files: dict[str, str] = {}
        self._mutex = threading.Lock()

    def exists(self, name: str) -> bool:
        with self._mutex:
            return name in self._files

    def read_text(self, name: str) -> str:
        with self._mutex:
            try:
                return self._files[name]
            except KeyError:
                raise FileNotFoundError(name) from None

    def read_tail(self, name: str, offset: int) -> tuple[str, int]:
        with self._mutex:
            data = self._files.get(name, "")
            # As on disk: whole lines only, so no newline after ``offset``
            # (or a missing file) reads nothing and keeps the offset.
            end = data.rfind("\n", offset) + 1 or offset
            return data[offset:end], end

    def write_atomic(self, name: str, data: str) -> None:
        with self._mutex:
            self._files[name] = data

    def create_exclusive(self, name: str, data: str) -> bool:
        with self._mutex:
            if name in self._files:
                return False
            self._files[name] = data
            return True

    def append_line(self, name: str, line: str) -> None:
        with self._mutex:
            # Popped, the text has no other reference (unless a reader still
            # holds it), so ``+=`` extends it in place instead of copying it.
            text = self._files.pop(name, "")
            text += line + "\n"
            self._files[name] = text

    def remove(self, name: str) -> None:
        with self._mutex:
            self._files.pop(name, None)

    def describe(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Records


@dataclass(frozen=True)
class BestState:
    """The versioned global best record stored in best.dat."""

    version: int
    config: tuple[int, ...]
    performance: float
    estimated: bool
    updated_by: str
    updated_at: float

    def __post_init__(self):
        if self.version < 0:
            raise ValueError("version must be non-negative")
        if not math.isfinite(self.performance):
            raise ValueError("performance must be finite")
        if self.version == 0 and self.estimated:
            raise ValueError("the initialization record cannot be estimated")


@dataclass(frozen=True)
class ChangeProposal:
    """A worker's candidate single-element change and its measured effect."""

    index: int
    new_value: int
    delta: float
    proposer: str


@dataclass(frozen=True)
class Committed:
    state: BestState


@dataclass(frozen=True)
class VersionConflict:
    current: BestState


CommitResult = Union[Committed, VersionConflict]


@dataclass(frozen=True)
class LockHandle:
    owner: str
    acquired_at: float


class _TallyFold:
    """changes.log's tally lines folded up to offset ``end``, which starts a
    line: what a reader that had read the log from its start to ``end``
    would hold, counting from the last ``#init`` line before ``end``.
    Updated under ``lock``; ``end`` only grows, so it is read without."""

    __slots__ = ("lock", "end", "tallies")

    def __init__(self):
        self.lock = threading.Lock()
        self.end = 0
        self.tallies = _NO_TALLIES


@dataclass(frozen=True)
class JobDirectory:
    """Handle on one job's directory, freely shareable across threads.

    The job's state lives in the files behind the backend.  The one piece of
    state a handle holds is its :class:`_TallyFold`, shared by every
    :class:`TallyReader` made from it.  The fold is no constructor argument
    and no part of equality; :func:`dataclasses.replace` makes a new one.
    """

    backend: Backend
    clock: Clock
    job_id: str
    _tally_fold: _TallyFold = field(default_factory=_TallyFold, init=False, compare=False,
                                    repr=False)

    @property
    def path(self) -> str:
        return self.backend.describe()

    @staticmethod
    def open(path: str, clock: Clock | None = None) -> "JobDirectory":
        """Open an existing job directory, reading job_id from the manifest."""
        backend = FsBackend(path)
        clock = clock or WallClock()
        job = JobDirectory(backend=backend, clock=clock, job_id="")
        manifest = read_manifest(job)
        job_id = manifest.get("job_id")
        if not job_id:
            raise FormatError(f"manifest in {path} has no job_id line")
        return replace(job, job_id=job_id)

    @staticmethod
    def create(path: str, job_id: str, clock: Clock | None = None) -> "JobDirectory":
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ShareUnreachableError(f"cannot create job directory {path}: {exc}") from exc
        return JobDirectory(backend=FsBackend(path), clock=clock or WallClock(), job_id=job_id)


# ---------------------------------------------------------------------------
# The key=value codec


def parse_fields(
    text: str, source: str, repeated: frozenset[str] = frozenset()
) -> dict[str, str | list[str]]:
    """Parse one ``key=value`` text.

    Blank lines and ``#`` comment lines are skipped, keys and values are
    stripped, and a later key replaces an earlier one.  Each key in
    ``repeated`` instead collects its values, in order, into a list (empty
    when the key never appears).  A line without ``=`` raises
    :class:`FormatError` naming ``source`` and the line number.
    """
    fields: dict[str, str | list[str]] = {key: [] for key in repeated}
    for i, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{source} line {i + 1}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key in repeated:
            fields[key].append(value)
        else:
            fields[key] = value
    return fields


# What a key=value front end converts: key -> (argument name, conversion).
Kinds = Mapping[str, tuple[str, Callable[[str], Any]]]


def convert_fields(fields: Mapping[str, Any], kinds: Kinds) -> dict[str, Any]:
    """Keyword arguments from the keys of ``kinds`` present in ``fields``:
    ``kinds`` maps a key to the argument it fills and the callable that
    converts its value.  An absent key is left out, so the callee's default
    applies; a ValueError names the key and the value in a :class:`FormatError`."""
    arguments = {}
    for key, (name, kind) in kinds.items():
        if key in fields:
            try:
                arguments[name] = kind(fields[key])
            except ValueError as exc:
                raise FormatError(f"{key}={fields[key]!r}: {exc}") from None
    return arguments


def build_record(cls: Callable[..., Any], fields: Mapping[str, Any], kinds: Kinds,
                 source: str, *, required: bool = True) -> Any:
    """``cls(**convert_fields(fields, kinds))``.  A key of ``kinds`` missing
    from ``fields`` (when ``required``), a value that does not convert and
    one ``cls`` rejects are each a :class:`FormatError` naming ``source``."""
    if required:
        for key in kinds:
            if key not in fields:
                raise FormatError(f"{source}: missing {key}= line")
    try:
        return cls(**convert_fields(fields, kinds))
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None


def reject_unknown(fields: Mapping[str, Any], known: Collection[str], source: str) -> None:
    """Raise :class:`FormatError` naming the first key of ``fields`` not in
    ``known``, and the keys that are: a misspelt key is an error, not a
    silently applied default."""
    for key in fields:
        if key not in known:
            raise FormatError(
                f"{source}: unknown key {key!r} (expected {', '.join(sorted(known))})"
            )


# ---------------------------------------------------------------------------
# Signal file


def signal_set(job: JobDirectory) -> None:
    """Create the presence signal.  Idempotent."""
    job.backend.create_exclusive(SIGNAL_FILE, "")


def signal_clear(job: JobDirectory) -> None:
    """Remove the presence signal.  Idempotent."""
    job.backend.remove(SIGNAL_FILE)


def signal_exists(job: JobDirectory) -> bool:
    """Presence of the signal right now.  An unreachable share raises instead
    of returning False, so callers can tell 'stop' from 'cannot tell'."""
    return job.backend.exists(SIGNAL_FILE)


# ---------------------------------------------------------------------------
# best.dat serialization


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def serialize_best(state: BestState) -> str:
    body = (
        f"version={state.version}\n"
        f"performance={state.performance:.17g}\n"
        f"estimated={1 if state.estimated else 0}\n"
        f"updated_by={state.updated_by}\n"
        f"updated_at={state.updated_at:.17g}\n"
        f"n={len(state.config)}\n"
        f"config={' '.join(str(v) for v in state.config)}\n"
    )
    return body + f"checksum={_checksum(body)}\n"


# best.dat's keys, as _best_state takes them.
_BEST_KEYS = {"version": ("version", int), "performance": ("performance", float),
              "estimated": ("estimated", lambda text: text == "1"),
              "updated_by": ("updated_by", str), "updated_at": ("updated_at", float),
              "n": ("n", int), "config": ("config", lambda text: tuple(map(int, text.split())))}


def _best_state(n: int, **fields) -> BestState:
    state = BestState(**fields)
    if len(state.config) != n:
        raise ValueError(f"config: expected {n} values, got {len(state.config)}")
    return state


@functools.lru_cache(maxsize=16)
def parse_best(text: str) -> BestState:
    """Parse and verify one best.dat text: the lines before the first
    ``checksum=`` line are read by :func:`parse_fields`, and that line must
    hold the checksum of their bytes.

    Memoised on the exact text: workers re-read an unchanged record at every
    proposal, and a byte-identical text needs no second check.  Any other
    text, torn or corrupted ones included, is checked in full; a rejected
    text raises every time, since failures are not cached.
    """
    lines = text.splitlines(keepends=True)
    end = next((i for i, line in enumerate(lines) if line.startswith("checksum=")), None)
    body = "".join(lines[:end])
    fields = parse_fields(body, BEST_FILE)
    if end is None:
        raise FormatError("best.dat: missing checksum line")
    found = lines[end].rstrip("\n").partition("=")[2]
    if found != _checksum(body):
        raise FormatError(f"best.dat line {end + 1}: checksum {found!r} does not match contents")
    return build_record(_best_state, fields, _BEST_KEYS, BEST_FILE)


def read_best(job: JobDirectory) -> BestState:
    """Read and verify the current global best record."""
    try:
        text = job.backend.read_text(BEST_FILE)
    except FileNotFoundError:
        raise NotInitializedError(
            f"{job.path}: not initialized (best.dat missing; run init first)"
        ) from None
    return parse_best(text)


def publish_initial(job: JobDirectory, state: BestState, force: bool = False) -> None:
    """Write the version-0 record.  Fails if one exists, unless forced; a
    forced one replaces it.  Then append an ``#init`` line to changes.log
    if it exists, after which no reader counts the earlier job's lines,
    whether that job was replaced or lost its best.dat."""
    data = serialize_best(state)
    if force:
        job.backend.write_atomic(BEST_FILE, data)
    elif not job.backend.create_exclusive(BEST_FILE, data):
        raise AlreadyInitializedError(
            f"{job.path}: already initialized (best.dat exists; force to overwrite)"
        )
    if job.backend.exists(CHANGES_FILE):
        job.backend.append_line(CHANGES_FILE, INIT_LINE)


# ---------------------------------------------------------------------------
# Lock file


def _serialize_lock(handle: LockHandle) -> str:
    return (
        f"owner={handle.owner}\n"
        f"acquired_at={handle.acquired_at:.17g}\n"
        f"stale_after={STALE_AFTER:.17g}\n"
    )


def _parse_lock(text: str) -> LockHandle | None:
    """The lock's holder, or None for a lock file that does not parse."""
    try:
        fields = parse_fields(text, LOCK_FILE)
        return LockHandle(owner=fields["owner"], acquired_at=float(fields["acquired_at"]))
    except (KeyError, ValueError):
        return None


def acquire_lock(job: JobDirectory, owner: str) -> LockHandle:
    """Take the job's writer lock, retrying a live one every
    :data:`LOCK_BACKOFF` seconds and raising :class:`LockContentionError`
    after :data:`LOCK_DEADLINE`.

    A lock older than :data:`STALE_AFTER`, whatever ``stale_after=`` it
    declares, is assumed to belong to a dead process (a worker killed
    mid-commit); so is one that does not parse, since only complete lock
    files are created.  Either is deleted and re-acquired, and the break
    is logged.
    """
    start = job.clock.now()
    while True:
        handle = LockHandle(owner=owner, acquired_at=job.clock.now())
        if job.backend.create_exclusive(LOCK_FILE, _serialize_lock(handle)):
            return handle
        try:
            existing = _parse_lock(job.backend.read_text(LOCK_FILE))
        except FileNotFoundError:
            continue  # released between our attempt and the read; retry now
        if existing is None:
            log.warning("%s: breaking stale lock held by <unknown> (unreadable)", job.path)
        elif job.clock.now() - existing.acquired_at > STALE_AFTER:
            log.warning("%s: breaking stale lock held by %s (age %.1fs > %.1fs)", job.path,
                        existing.owner, job.clock.now() - existing.acquired_at, STALE_AFTER)
        else:
            if job.clock.now() - start >= LOCK_DEADLINE:
                raise LockContentionError(
                    f"{job.path}: lock held by {existing.owner}, gave up after {LOCK_DEADLINE}s")
            job.clock.sleep(LOCK_BACKOFF)
            continue
        job.backend.remove(LOCK_FILE)


def release_lock(job: JobDirectory, handle: LockHandle) -> None:
    """Drop the lock if we still own it; a no-op (with a warning) otherwise."""
    try:
        existing = _parse_lock(job.backend.read_text(LOCK_FILE))
    except FileNotFoundError:
        log.warning("%s: lock already gone on release (broken as stale?)", job.path)
        return
    if existing is None or existing.owner != handle.owner or existing.acquired_at != handle.acquired_at:
        log.warning("%s: lock no longer ours on release; leaving it alone", job.path)
        return
    job.backend.remove(LOCK_FILE)


# ---------------------------------------------------------------------------
# Committing updates


def commit_line(version: int, change: ChangeProposal) -> str:
    """The changes.log line for one commit, as :func:`read_commit_log` parses it."""
    return (
        f"{version} {change.index} {change.new_value} "
        f"{change.delta:.17g} {change.proposer}"
    )


def commit_update(job: JobDirectory, new_state: BestState, *,
                  change: ChangeProposal) -> CommitResult:
    """Compare-and-swap on the best record, keyed by ``new_state.version``.

    Under the lock: if ``new_state`` follows the stored version, replace the
    record atomically and append ``change``'s audit line, which every commit
    has; otherwise write nothing and return the freshly read current record.
    """
    handle = acquire_lock(job, new_state.updated_by)
    try:
        current = read_best(job)
        if current.version + 1 != new_state.version:
            return VersionConflict(current=current)
        job.backend.write_atomic(BEST_FILE, serialize_best(new_state))
        job.backend.append_line(CHANGES_FILE, commit_line(new_state.version, change))
        return Committed(state=new_state)
    finally:
        release_lock(job, handle)


# ---------------------------------------------------------------------------
# Advisory tallies and audit trail


# A tally line's keys: the evaluations, then one per optimizer.Outcome, in order.
TALLY_KEYS = ("evals", "commits", "not_better", "conflict", "stale")


class WorkerTally(NamedTuple):
    """The outcome counts: evaluations, then one count per :data:`TALLY_KEYS`
    outcome.  As a worker's cumulative tally the work loop keeps it in
    memory and writes it to changes.log per sync (see the module docstring),
    not per evaluation.  Advisory: stop conditions tolerate slack."""

    evaluations: int = 0
    commits: int = 0
    rejects_not_better: int = 0
    rejects_conflict: int = 0
    rejects_stale: int = 0

    @classmethod
    def total(cls, tallies: Iterable[Iterable[int]]) -> "WorkerTally":
        """Each count summed over ``tallies``: records, or sequences laid out as one."""
        return cls(*map(sum, zip(*tallies)))

    def text(self) -> str:
        """The counts as ``key=N`` pairs, one per :data:`TALLY_KEYS`."""
        return " ".join(map("{}={}".format, TALLY_KEYS, self))


def append_tally(job: JobDirectory, worker_id: str, tally: WorkerTally) -> None:
    job.backend.append_line(CHANGES_FILE, f"{TALLY_PREFIX} {worker_id} {tally.text()}")


# Exactly the line append_tally writes; anything else (a torn line, a
# missing or reordered key, a negative count) is not a tally.
_TALLY_LINE = re.compile(
    rf"^{re.escape(TALLY_PREFIX)} (\S+) " + " ".join(f"{k}=([0-9]+)" for k in TALLY_KEYS) + "$",
    re.MULTILINE,
)


# One fold's tallies: each worker's latest matched fields as text, each
# worker's ``evals`` and their sum.  A fold replaces these dicts rather than
# mutating them, so a reader holding them keeps its snapshot.
_Tallies = tuple[dict[str, tuple[str, ...]], dict[str, int], int]
_NO_TALLIES: _Tallies = ({}, {}, 0)


def _job_start(text: str) -> int:
    """The offset of the current job's first line in ``text``, whole lines
    from a line start: just past its last ``#init`` line, or 0 if it has none."""
    at = text.rfind(_INIT_TEXT)
    while at > 0 and text[at - 1] != "\n":  # inside a line, as a proposer id may be
        at = text.rfind(_INIT_TEXT, 0, at)
    return at + len(_INIT_TEXT) if at >= 0 else 0


def _fold_lines(tallies: _Tallies, text: str) -> _Tallies:
    """``tallies`` with the tally lines of ``text``, whole lines from a line
    start, folded in, as new dicts; an ``#init`` line in ``text`` drops what
    precedes it, ``tallies`` included.  Refolding a line already folded
    changes nothing, since only each worker's last line counts."""
    start = _job_start(text)
    tallies = _NO_TALLIES if start else tallies
    latest = {m[0]: m for m in _TALLY_LINE.findall(text, start)}
    if not latest:
        return tallies
    fields, evals, total = tallies
    evals = evals.copy()
    for worker_id, m in latest.items():
        count = int(m[1])
        total += count - evals.get(worker_id, 0)
        evals[worker_id] = count
    return {**fields, **latest}, evals, total


class TallyReader:
    """Folds changes.log's tally lines into per-worker totals.

    Tally counters are cumulative per worker, so only each worker's last
    line counts, and refolding a line changes nothing.  The readers made
    from one :class:`JobDirectory` share its fold and keep no offset of
    their own; another handle, even on the same backend object, folds
    alone.  A refresh reads the log on from the fold's end, folds that tail
    in if its read ends past the fold's end by then, and takes the fold's
    tallies as its snapshot.  So readers of one handle that refresh in turn
    (a simulated fleet's p readers) read and parse each line once between
    them; readers whose refreshes overlap may read the same tail.  The log
    only grows, and a fold starts again from no tallies after an ``#init``
    line: a reader on any handle reports a re-initialized job from its
    first refresh whose read ends past that line, and the old job before.

    A fold keeps each worker's latest matched fields as text and a running
    sum of their ``evals``: it converts only the ``evals`` of the workers
    whose line changed, :meth:`evaluations_excluding` is one subtraction,
    and :class:`WorkerTally` objects are built only when :attr:`per_worker`
    is read.  Memory is one entry per worker, whatever the log's length.
    """

    def __init__(self, job: JobDirectory):
        self._job = job
        self._fold = job._tally_fold
        self._tallies = _NO_TALLIES

    def refresh(self) -> None:
        fold = self._fold
        tail, end = self._job.backend.read_tail(CHANGES_FILE, fold.end)
        with fold.lock:
            if end > fold.end:
                fold.tallies = _fold_lines(fold.tallies, tail)
                fold.end = end
            self._tallies = fold.tallies

    @property
    def per_worker(self) -> dict[str, WorkerTally]:
        """Each worker's latest tally, as of this reader's last refresh."""
        return {w: WorkerTally(*map(int, m[1:])) for w, m in self._tallies[0].items()}

    def evaluations_excluding(self, worker_id: str) -> int:
        """The other workers' evaluations, as of this reader's last refresh."""
        _, evals, total = self._tallies
        return total - evals.get(worker_id, 0)


def read_fleet_tally(job: JobDirectory) -> dict[str, WorkerTally]:
    """One-shot scan of all tally lines (for status/report commands)."""
    reader = TallyReader(job)
    reader.refresh()
    return reader.per_worker


def read_commit_log(job: JobDirectory) -> list[tuple[int, int, int, float, str]]:
    """The current job's commit lines, those after the last ``#init`` line,
    parsed: (version, index, new_value, delta, proposer).

    Read through :meth:`Backend.read_tail`, which never returns a torn
    last line, and split at newline characters only.  Tally lines and
    lines of another field count are skipped; a five-field line whose
    numbers do not parse raises :class:`FormatError`."""
    text, _ = job.backend.read_tail(CHANGES_FILE, 0)
    start = _job_start(text)
    first = text.count("\n", 0, start) + 1  # the file's number of the job's first line
    out = []
    for number, line in enumerate(text[start:].split("\n")[:-1], first):
        parts = line.split()
        if len(parts) != 5 or line.startswith("#"):
            continue
        try:
            out.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]), parts[4]))
        except ValueError:
            raise FormatError(
                f"{job.path}: {CHANGES_FILE} line {number} is not a commit line: {line!r}"
            ) from None
    return out


# ---------------------------------------------------------------------------
# Manifest


def write_manifest(job: JobDirectory, params: Mapping[str, str]) -> None:
    lines = [f"job_id={job.job_id}"]
    lines += [f"{k}={v}" for k, v in params.items() if k != "job_id"]
    job.backend.write_atomic(MANIFEST_FILE, "\n".join(lines) + "\n")


def read_manifest(job: JobDirectory) -> dict[str, str]:
    try:
        text = job.backend.read_text(MANIFEST_FILE)
    except FileNotFoundError:
        raise FormatError(f"{job.path}: manifest.dat missing") from None
    return parse_fields(text, MANIFEST_FILE)
