"""Process parallelism: the BLAS pin and dealing work to processes."""
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from levypme import parallel
from levypme.parallel import WorkerError

# Reads the thread count of every OpenBLAS mapped into the process, found
# without levypme's help, before and after importing levypme.operators (which
# imports levypme.parallel, whose import sets the pin).
_THREADS_AROUND_IMPORT = """
import ctypes, json, sys
import numpy

def threads():
    fields = [line.split(None, 5) for line in open("/proc/self/maps")]
    out = {}
    for path in sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                out[path] = getattr(lib, name)()
                break
    return out

before = threads()
sys.path.insert(0, sys.argv[1])
import levypme.operators
print(json.dumps([before, threads()]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_import_pins_openblas_to_one_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", _THREADS_AROUND_IMPORT, str(src)],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.splitlines()[-1])
    if not before:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    if (os.cpu_count() or 1) >= 2:
        assert set(before.values()) == {2}
    assert after == dict.fromkeys(before, 1)


class _KeywordOnly(Exception):
    def __init__(self, *, why):
        super().__init__(why)


def _raise_keyword_only():
    raise _KeywordOnly(why="planted")


@pytest.mark.parametrize("planted, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "a worker process was killed by SIGKILL at item 3"),
    (lambda: os._exit(7), "a worker process exited with status 7 at item 3"),
    (_raise_keyword_only, "_KeywordOnly: planted"),
])
def test_deal_names_what_a_child_could_not_send(planted, message, monkeypatch):
    # on 2 CPUs the child works items 1, 3 and 5; after item 1 it dies at
    # item 3, or raises an exception that pickles but does not unpickle (its
    # constructor takes a keyword only); the caller gets a WorkerError that
    # says so at item 3, and no child is left
    parent = os.getpid()

    def work(item):
        if item == 3 and os.getpid() != parent:
            planted()
        return item

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(WorkerError, match=f"^{message}$"):
        parallel.deal(work, range(6))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_deal_places_a_dead_worker_after_its_last_item(monkeypatch):
    # the child finishes item 1 and is killed at item 3, the parent fails at
    # item 2: the plain loop would raise item 2's error, and so does deal;
    # with the parent well, the death is raised at item 3
    parent = os.getpid()

    def work(item, parent_fails):
        if item == 3 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if item == 2 and parent_fails:
            raise ValueError("item 2")
        return item

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="^item 2$"):
        parallel.deal(lambda item: work(item, True), range(6))
    with pytest.raises(WorkerError, match="at item 3$"):
        parallel.deal(lambda item: work(item, False), range(6))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

