"""Work on forked children: a pool of calls (``pooled``) and a stream of
pieces that only the parent writes (``write_pieces``).

Both fork with os.fork, so the children inherit their work and nothing is
pickled on the way in.  Each child has its own pipe back, ends in
os._exit on every path (no atexit handler runs, and no stdio buffer
inherited from the parent is flushed), and sends an error as its
traceback text and the pickled error, which the parent raises chained to
that text.  Every child is reaped before the parent returns or raises;
on an error or an interrupt, the ones still running are killed first.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import traceback
from functools import partial
from typing import Callable, Iterable

import numpy as np

# A piece stream's child may run this many bytes ahead of the parent, held
# in its pipe (kernel memory, in no process's resident set): the most an
# unprivileged Linux process may set, about one 2**18-row JSON piece
# (1.2 to 1.4 MB at n = 22).  A child holds at most one buffer beside it.
_PIPE_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (taskset, cpusets)
    where the platform reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Children:
    """Children forked in a with block, each with the read end of its own
    pipe; any not reaped by the end of the block is killed and reaped."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inboxes: dict = {}  # pid -> the read end of its pipe, until reaped

    def __enter__(self) -> _Children:
        return self

    def fork(self, body: Callable[[int], None]) -> int:
        """Fork a child that runs body(write end of its pipe) and exits."""
        inbox, outbox = os.pipe()
        if (pid := os.fork()) == 0:
            try:
                body(outbox)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(outbox)
        self.inboxes[pid] = open(inbox, "rb")
        return pid

    def reap(self, pid: int) -> None:
        """Wait for the child; one that did not exit 0 is an error."""
        status = os.waitpid(pid, 0)[1]
        self.inboxes.pop(pid).close()
        if status:
            raise RuntimeError(f"{self.name} {pid} ended early, wait status {status} "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")

    def __exit__(self, *exc) -> None:
        for pid, inbox in self.inboxes.items():
            inbox.close()
            # an interrupt can land after a child is reaped and before it
            # leaves ``inboxes``; its pid is then no longer this process's
            # child, and is neither signalled nor waited on
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _attempt(what: str, fn, *args) -> tuple[bool, bytes]:
    """(raised, pickled (traceback, value)) of fn(*args), where the
    traceback text is None unless it raised ``value``; an outcome that
    does not pickle becomes a PicklingError naming ``what``."""
    try:
        outcome = None, fn(*args)
    except Exception as exc:
        outcome = traceback.format_exc(), exc
    try:
        return outcome[0] is not None, pickle.dumps(outcome)
    except Exception as exc:
        error = pickle.PicklingError(f"{what}: {exc!r}")
        return True, pickle.dumps((traceback.format_exc(), error))


def _value(what: str, pickled: bytes):
    """The value of an _attempt outcome, or its error raised from a
    RuntimeError holding the child's traceback (a pickled error loses its
    own)."""
    child_tb, value = pickle.loads(pickled)
    if child_tb is not None:
        raise value from RuntimeError(f"{what} raised in its child:\n{child_tb}")
    return value


def _serve(calls, tasks: int, feed: int, outbox: int) -> None:
    """A pool child: run the calls whose four-byte indices it reads from
    ``tasks`` until that pipe runs dry (once one raises, only drain it),
    then send ``outbox`` one pickled list of (index, _attempt outcome)."""
    os.close(feed)  # else the task pipe never runs dry
    sent, failed = [], False
    while index := os.read(tasks, 4):
        if failed:
            continue
        i = int.from_bytes(index, "little")
        fn, *args = calls[i]
        failed, outcome = _attempt(f"pool call {i} ({fn!r})", fn, *args)
        sent.append((i, outcome))
    with open(outbox, "wb") as pipe:
        pickle.dump(sent, pipe)


def pooled(calls, workers: int) -> list:
    """Results of ``calls``, tuples (function, *args), in call order, from
    at most ``workers`` forked children, never more than calls, that take
    the calls in the order given, one at a time (see _serve).  A call that
    raises stops the calls not yet started, and the error of the earliest
    failing call reaches the caller; a child that ends without its report
    is an error naming its wait status."""
    tasks, feed = os.pipe()
    with _Children("pool process") as children:
        with contextlib.suppress(BrokenPipeError), open(feed, "wb") as pipe:
            try:
                for _ in range(min(workers, len(calls))):
                    children.fork(partial(_serve, calls, tasks, feed))
            finally:
                os.close(tasks)
            # written once no child holds this end: a full pipe waits on the
            # children, and the write fails if every child is gone
            pipe.write(np.arange(len(calls), dtype="<u4").tobytes())
        outcomes: dict = {}
        for pid in list(children.inboxes):
            report = children.inboxes[pid].read()
            children.reap(pid)
            outcomes.update(pickle.loads(report))
        return [_value(f"pool call {i}", outcomes[i]) for i in range(len(calls))]


# A piece stream's frames: an 8-byte signed little-endian length, then that
# many bytes of the piece; 0 ends a piece, and -m is m bytes of a pickled
# _attempt outcome, the piece's error.
def _frame(size: int) -> bytes:
    return size.to_bytes(8, "little", signed=True)


def _send_pieces(pieces: range, render, outbox: int) -> None:
    """A stream child: each of ``pieces`` in turn as frames on ``outbox``,
    up to the first that raises, whose error ends the stream."""
    import fcntl

    with contextlib.suppress(OSError, AttributeError):  # a small pipe only slows the child
        fcntl.fcntl(outbox, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    with open(outbox, "wb") as pipe:

        def send(i: int) -> None:
            for buf in render(i):
                if len(buf):
                    pipe.write(_frame(len(buf)))
                    pipe.write(buf)
            pipe.write(_frame(0))
            pipe.flush()

        for i in pieces:
            failed, outcome = _attempt(f"piece {i}", send, i)
            if failed:
                pipe.write(_frame(-len(outcome)))
                pipe.write(outcome)
                return


def _copy_piece(children: _Children, pid: int, i: int, sink) -> None:
    """Copy piece i from the pipe of child ``pid`` to ``sink``, frame by
    frame, or raise its error."""
    inbox = children.inboxes[pid]

    def read(size: int) -> bytes:
        data = inbox.read(size)
        if len(data) < size:
            children.reap(pid)  # raises unless it exited 0
            raise RuntimeError(f"{children.name} {pid} ended in piece {i}")
        return data

    while (size := int.from_bytes(read(8), "little", signed=True)) > 0:
        sink.write(read(size))
    if size < 0:
        _value(f"piece {i}", read(-size))


def write_pieces(count: int, workers: int, render: Callable[[int], Iterable], sink) -> None:
    """Write pieces 0 .. count - 1 to ``sink`` in order, where render(i)
    yields the bytes of piece i as bytes-like buffers of one byte an item.

    Piece i is rendered by process i mod W, W = min(workers, count): the
    parent is process 0, and W - 1 children, forked here once, render
    the others, each sending its bytes on its own pipe (see _PIPE_BYTES),
    which the parent copies to ``sink`` in turn.  Only the parent writes,
    so the bytes do not depend on W, and W = 1 forks nothing.  The first
    piece in order whose render raises stops the stream: ``sink`` holds
    the bytes before its failing buffer, and its error is raised, a
    child's chained to the child's traceback; a child that dies is an
    error naming its wait status.
    """
    workers = min(workers, count)
    with _Children("piece process") as children:
        pids = [children.fork(partial(_send_pieces, range(k, count, workers), render))
                for k in range(1, workers)]
        for i in range(count):
            if i % workers:
                _copy_piece(children, pids[i % workers - 1], i, sink)
            else:
                for buf in render(i):
                    sink.write(buf)
        for pid in pids:
            children.reap(pid)
