from collections import Counter

import pytest

from idleclimb.clock import VirtualClock
from idleclimb.coordination import JobDirectory, MemBackend


class CrashInjected(BaseException):
    """Simulated mid-operation process death (BaseException so ordinary
    error handling cannot swallow it)."""


class CrashInjectionBackend:
    """Backend wrapper that dies after a chosen number of primitive ops.

    The crash fires *before* the Nth mutation lands, which models a process
    killed between any two filesystem system calls.
    """

    MUTATING = {"write_atomic", "create_exclusive", "append_line", "remove"}

    def __init__(self, inner, fail_after: int):
        self._inner = inner
        self.fail_after = fail_after
        self.ops = 0

    def _step(self):
        self.ops += 1
        if self.ops > self.fail_after:
            raise CrashInjected(f"injected crash at op {self.ops}")

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name == "describe" or not callable(attr):
            return attr

        def wrapped(*args, **kwargs):
            self._step()
            return attr(*args, **kwargs)

        return wrapped


class CountingBackend:
    """Backend wrapper that counts primitive operations by name, and the
    characters its tail reads return."""

    def __init__(self, inner):
        self._inner = inner
        self.ops = Counter()
        self.tail_chars = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name == "describe" or not callable(attr):
            return attr

        def wrapped(*args, **kwargs):
            self.ops[name] += 1
            result = attr(*args, **kwargs)
            if name == "read_tail":
                self.tail_chars += len(result[0])
            return result

        return wrapped


@pytest.fixture
def mem_job():
    def make(job_id: str = "test", start: float = 0.0) -> JobDirectory:
        return JobDirectory(backend=MemBackend(), clock=VirtualClock(start), job_id=job_id)

    return make


@pytest.fixture
def fs_job(tmp_path):
    def make(job_id: str = "test", name: str = "job") -> JobDirectory:
        return JobDirectory.create(str(tmp_path / name), job_id, clock=VirtualClock())

    return make
