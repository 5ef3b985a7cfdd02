"""Process parallelism: the program's own processes, and BLAS on one thread.

The program's only parallelism is its own processes, one per usable CPU
(:func:`processes`).  :func:`deal` runs a list of work items on them, the
studies' march chunks among them, and :func:`drawn_in_turn` runs the audits'
sample blocks, each process drawing only its own blocks
(:func:`levypme.operators.by_sample_blocks`).  Each caller decides for itself
from how many modes on it deals.  Importing this module pins numpy's OpenBLAS
to one thread (:func:`pin_blas_threads`): a gemm's bits do not depend on
``OPENBLAS_NUM_THREADS``, and threaded gemms would contend with the processes
for the cores.
"""
from __future__ import annotations

import ctypes
import os
import pickle
import signal

import numpy  # noqa: F401  (maps its OpenBLAS before the pin below runs)

__all__ = ["WorkerError", "deal", "drawn_in_turn", "pin_blas_threads", "processes"]


class WorkerError(RuntimeError):
    """A :func:`deal` worker died, or failed with an exception that does not
    survive pickling (sent as its class name and message)."""


def processes(items: int) -> int:
    """How many processes to deal ``items`` items to, asked once a dealt job
    (the affinity may change): one per usable CPU (``os.sched_getaffinity``),
    but no more than there are items, and one where there is no ``os.fork``.

    The items are dealt only while BLAS is pinned to one thread: a threaded
    gemm in each of several processes would contend for the cores (four
    march chunks at 97 modes took 3-4 times as long).  Without a loaded
    OpenBLAS this process runs them all."""
    spread = (pin_blas_threads() is not None and hasattr(os, "sched_getaffinity")
              and hasattr(os, "fork"))
    cpus = len(os.sched_getaffinity(0)) if spread else 1
    return max(1, min(cpus, items))


def deal(work, items, workers):
    """``[work(item) for item in items]`` on ``workers`` processes (a
    :func:`processes` answer): this one and ``os.fork``ed children, dealt the
    items round-robin.  Each stops at its first failure; the lowest
    item's is raised, as the plain loop would.  A child sends a byte as it
    ends each item and its outcomes when it ends its share, so one that dies
    fails, with a :class:`WorkerError` naming its signal or exit status, at
    the first of its items it did not end.  Every child is reaped."""

    def share(start):  # (index, result or exception) of each item, up to the first failure
        for index in range(start, len(items), workers):
            try:
                yield index, work(items[index])
            except Exception as exc:
                yield index, exc
                return

    def sendable(index, value):  # a failure as one that unpickles
        if isinstance(value, Exception):
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                value = WorkerError(f"{type(value).__name__}: {value}")
        return index, value

    def received(start, data, status):  # the outcomes a child sent, and how it ended
        ended = len(data) - len(data.lstrip(b"+"))  # items it ended; a pickle starts b"\x80"
        if status == 0:
            return pickle.loads(data[ended:])
        if os.WIFSIGNALED(status):
            how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        index = start + ended * workers
        where = f"at item {items[index]!r}" if index < len(items) else "after its last item"
        return [(index, WorkerError(f"a worker process {how} {where}"))]

    pipes = {}  # unreaped child pid -> (its first index, read end of its pipe)
    try:
        for start in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child sends its share and leaves
                status = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        # a byte as each item ends, the outcomes at the end: sent
                        # one by one they would fill the pipe while this process
                        # waits for its parent to read, which it does last
                        done = []
                        for outcome in share(start):
                            done.append(sendable(*outcome))
                            pipe.write(b"+")
                            pipe.flush()
                        pickle.dump(done, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            pipes[pid] = (start, os.fdopen(read, "rb"))
        done = list(share(0))
        for pid, (start, pipe) in list(pipes.items()):
            with pipe:
                data = pipe.read()
            del pipes[pid]
            done += received(start, data, os.waitpid(pid, 0)[1])
    finally:
        for pid, (_, pipe) in pipes.items():  # a child blocked on a full pipe ends now
            pipe.close()
            os.waitpid(pid, 0)
    done.sort(key=lambda outcome: outcome[0])
    for _, value in done:
        if isinstance(value, Exception):
            raise value
    return [value for _, value in done]


def drawn_in_turn(draw, rows_of, rng, blocks) -> tuple:
    """``[rows_of(draw(index)) for index in blocks]`` and the number of
    processes that ran it (one :func:`processes` answer, which sizes both the
    ring and :func:`deal`), with ``rng`` at the state the plain loop leaves.

    Process p draws blocks p, p + workers, ...  Pipe p of the ring carries
    the state left after each of them to process p + 1 (mod workers), which
    draws the next block.  Each process closes the ends of the pipes that are
    not its own, and its sending end as soon as it fails (a child's closes as
    it exits), so the next process reads an end of file instead of waiting
    for ever; that one fails too, at a later block than the failure
    :func:`deal` raises.  Each also keeps the reading end of its own pipe
    open, so that a send never meets a closed pipe.  On one process the ring
    is one pipe, which the process sends to and reads from itself.
    """
    workers = processes(len(blocks))
    ring = [(os.fdopen(read, "rb"), os.fdopen(write, "wb"))
            for read, write in (os.pipe() for _ in range(workers))]
    held = {end for pipe in ring for end in pipe}  # this process's open ends
    last = len(blocks) - 1

    def evaluate(index):
        inbox, (unread, outbox) = ring[index % workers - 1][0], ring[index % workers]
        for end in held - {inbox, unread, outbox}:  # on the first call in each process
            end.close()
        held.intersection_update((inbox, unread, outbox))
        try:
            if index > 0:
                rng.bit_generator.state = pickle.load(inbox)
            block = draw(index)
            if index < last:
                pickle.dump(rng.bit_generator.state, outbox)
                outbox.flush()
            final = rng.bit_generator.state if index == last else None
            return rows_of(block), final
        except BaseException:
            outbox.close()
            raise

    try:
        parts = deal(evaluate, blocks, workers)
    finally:
        for end in held:
            end.close()
    rng.bit_generator.state = parts[-1][1]
    return [outputs for outputs, _ in parts], workers


# The thread-count entry points of the OpenBLAS builds numpy links: the
# scipy-openblas of numpy 2.x wheels, the OpenBLAS of numpy 1.x wheels (both
# with 64-bit integers) and a system OpenBLAS.
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


def _loaded_openblas() -> list:
    """(file name, set_num_threads, get_num_threads) of every OpenBLAS mapped
    into this process, as ``/proc/self/maps`` lists them; empty where no
    mapped file named OpenBLAS exports those entry points, or where the maps
    cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol.format("set")) and hasattr(lib, symbol.format("get")):
                set_threads, get_threads = lib[symbol.format("set")], lib[symbol.format("get")]
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append((os.path.basename(path), set_threads, get_threads))
                break
    return found


def pin_blas_threads():
    """Set every loaded OpenBLAS to one thread; return ``{file name: thread
    count read back}``, or None when no OpenBLAS is loaded and BLAS is left
    as configured.

    Runs when this module is imported, after numpy has loaded its BLAS, and
    again in :func:`processes` and when a run records its environment.
    Forked processes inherit the setting.
    """
    found = _loaded_openblas()
    for _, set_threads, _ in found:
        set_threads(1)
    return {name: int(get_threads()) for name, _, get_threads in found} or None


pin_blas_threads()
