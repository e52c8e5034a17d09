"""Work split across forked processes, each handing back its result or its
exception through shared memory.

Shared memory, not a pipe: a pipe read would count in the caller's
``/proc/self/io`` read counters, which then would no longer be those of
the work alone (a reaped child's own I/O is added to its parent's)."""

from __future__ import annotations

import os
import pickle
import signal
from mmap import mmap
from typing import Callable, NoReturn, TypeVar

T = TypeVar("T")
_RESULT_BYTES = 1 << 16  # each child's slot for its pickled result


def run_forked(work: Callable[[int], T], count: int) -> list[T]:
    """[work(0), ..., work(count - 1)]: work(0) runs in this process and each
    other one in a forked child, all at once.

    It returns only once every child has been reaped and has succeeded.
    Otherwise it raises the first failure, its own before any child's and a
    child's in index order, once every child still running has been killed
    and every child reaped."""
    children: list[tuple[int, int]] = []  # (pid, index) of each child not yet reaped
    with mmap(-1, _RESULT_BYTES * count) as shared:
        try:
            for i in range(1, count):
                pid = os.fork()
                if pid == 0:
                    _child(shared, i, work)
                children.append((pid, i))
            results = [work(0)]
            while children:
                pid, i = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                results.append(_child_result(pid, status, shared, i))
        finally:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
            for pid, _ in children:
                os.waitpid(pid, 0)
    return results


def _child(shared: mmap, i: int, work: Callable[[int], object]) -> NoReturn:
    """Run work(i) in a forked child, put (True, its result) or (False, its
    exception) into result slot i of shared as a length and a pickle, and
    leave by os._exit alone, so that none of the parent's cleanup (closing,
    renaming or removing its files) runs here."""
    status = 1
    try:
        try:
            result = (True, work(i))
        except BaseException as exc:  # handed to the parent, which raises it
            result = (False, exc)
        blob = _pickled(result)
        at = i * _RESULT_BYTES
        shared[at : at + 8 + len(blob)] = len(blob).to_bytes(8, "little") + blob
        status = 0
    finally:
        os._exit(status)


def _pickled(result: tuple) -> bytes:
    """result pickled, its exception replaced by a RuntimeError naming it when the
    pickle would not load again or not fit a result slot."""
    try:
        blob = pickle.dumps(result)
        pickle.loads(blob)
        if len(blob) <= _RESULT_BYTES - 8:
            return blob
    except Exception:  # noqa: BLE001 - any failure to round-trip falls back to the name
        pass
    return pickle.dumps((False, RuntimeError(repr(result[1])[:4096])))


def _child_result(pid: int, status: int, shared: mmap, i: int) -> object:
    """What reaped child i handed back: its result, or its exception, raised here."""
    at = i * _RESULT_BYTES
    size = int.from_bytes(shared[at : at + 8], "little")
    if not size:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"forked process {pid} {how} before handing back a result")
    ok, value = pickle.loads(shared[at + 8 : at + 8 + size])
    if not ok:
        raise value
    return value
