"""Work split across forked processes that claim its tasks one at a time, each
process handing back its result or its exception through shared memory.

Shared memory, not a pipe: a pipe read would count in the caller's
``/proc/self/io`` read counters, which then would no longer be those of
the work alone (a reaped child's own I/O is added to its parent's).  The
claim counter lies in the same memory, guarded by a ``lockf`` lock on the
memfd it maps, which the kernel drops if its holder dies.  A shared file
offset is no counter: ``lseek(fd, 1, SEEK_CUR)`` on one memfd is not atomic
across processes, and two processes claiming 300,000 times each that way
got about 4,000 duplicates."""

from __future__ import annotations

import os
import pickle
import signal
from mmap import mmap
from typing import Callable, Iterator, NoReturn, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")
_RESULT_BYTES = 1 << 16  # each child's slot for its pickled result


def run_forked(work: Callable[[int, Iterator[U]], T], count: int, tasks: Sequence[U]) -> list[T]:
    """[work(0, claims), ..., work(count - 1, claims)]: work(0, ...) runs in this process
    and each other one in a forked child, all at once.  Each process's claims yields the
    tasks it claims, in their order in tasks: the next one that no process has claimed
    yet, until none is left, so each task is claimed by exactly one process.

    It returns only once every child has been reaped and has succeeded.
    Otherwise it raises the first failure, its own before any child's and a
    child's in index order, once every child still running has been killed
    and every child reaped."""
    children: list[tuple[int, int]] = []  # (pid, index) of each child not yet reaped
    fd = os.memfd_create("mdr6-claims")
    try:
        os.ftruncate(fd, _RESULT_BYTES * count)  # slot 0, the caller's, holds the claim counter
        with mmap(fd, _RESULT_BYTES * count) as shared:
            try:
                for i in range(1, count):
                    pid = os.fork()
                    if pid == 0:
                        _child(shared, i, work, _claims(fd, shared, tasks))
                    children.append((pid, i))
                results = [work(0, _claims(fd, shared, tasks))]
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
    finally:
        os.close(fd)
    return results


def _claims(fd: int, shared: mmap, tasks: Sequence[U]) -> Iterator[U]:
    """The tasks one process claims: each the one at the counter's value in shared, taken
    and stepped under a lock on the whole of fd, while tasks has one there."""
    lockf, lock, unlock = os.lockf, os.F_LOCK, os.F_ULOCK
    while True:
        lockf(fd, lock, 0)
        try:
            i = int.from_bytes(shared[:8], "little")
            shared[:8] = (i + 1).to_bytes(8, "little")
        finally:
            lockf(fd, unlock, 0)
        if i >= len(tasks):
            return
        yield tasks[i]


def _child(shared: mmap, i: int, work: Callable[[int, Iterator], object], claims: Iterator) -> NoReturn:
    """Run work(i, claims) in a forked child, put (True, its result) or (False, its
    exception) into result slot i of shared as a length and a pickle, and
    leave by os._exit alone, so that none of the parent's cleanup (closing,
    renaming or removing its files) runs here."""
    status = 1
    try:
        try:
            result = (True, work(i, claims))
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
