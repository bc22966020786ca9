"""Make the source tree importable by the interpreters the CLI tests start,
run the session at one OpenBLAS thread, fail any test that leaves a child
process or a Python thread running, and let a test take the serial paths:
training without its batch-drawing thread, and the pipeline without its
worker pool.

`pythonpath = ["src"]` in pyproject.toml puts `src/` on this process's
`sys.path` only; the tests that run `python -m snapclust.cli` in a child
process find the package through the PYTHONPATH it inherits.
"""

import contextlib
import glob
import multiprocessing
import os
import signal
import threading

import pytest

from snapclust import pipeline

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + inherited if inherited else SRC


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every loaded OpenBLAS at one thread for the whole session.

    Tests that call `minibatch_kmeans` or the `distances` kernels directly
    run outside `run_model`, which pins the count itself; on a busy machine
    a second OpenBLAS thread made such calls up to ten times slower. The
    import above has loaded numpy's and `scipy.linalg`'s OpenBLAS. A test
    that sets its own count restores one thread; the CLI tests' child
    processes take theirs from the environment.
    """
    with pipeline._one_blas_thread():
        yield


def _running_children() -> list[int]:
    """Pids of this process's children that have not exited (Linux /proc)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except FileNotFoundError:
            # the thread exited after the glob; its children passed to
            # another thread of this process
            continue
    running = []
    for pid in sorted(pids):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            running.append(pid)
    return running


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    # active_children() also reaps the multiprocessing children that have exited
    leftover = multiprocessing.active_children()
    for process in leftover:
        process.kill()
        process.join()
    others = _running_children()
    for pid in others:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if leftover or others:
        pytest.fail(
            f"test left child processes running: {[p.pid for p in leftover] + others}"
        )


@pytest.fixture(autouse=True)
def no_thread_left():
    before = set(threading.enumerate())
    yield
    leftover = [thread for thread in threading.enumerate() if thread not in before]
    if leftover:
        pytest.fail(f"test left threads running: {[thread.name for thread in leftover]}")


@pytest.fixture
def one_cpu():
    """A context manager under which this process's CPU affinity mask holds one CPU.

    Training then draws its batches in the training loop, without a
    thread. The caller's mask is restored on leaving.
    """
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")

    @contextlib.contextmanager
    def one_cpu_mask():
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            yield
        finally:
            os.sched_setaffinity(0, mask)

    return one_cpu_mask


@pytest.fixture
def inline_training():
    """A context manager under which the pipeline's pool runs its calls in this process.

    It keeps one other Python thread alive, and this process does not fork
    while one is (`pipeline.pool_workers`).
    """

    @contextlib.contextmanager
    def live_thread():
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            yield
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    return live_thread
