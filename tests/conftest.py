"""Make the source tree importable by the interpreters the CLI tests start,
fail any test that leaves a child process running, and let a test run
training without its forked batch producer.

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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + inherited if inherited else SRC


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


@pytest.fixture
def inline_training():
    """A context manager under which training draws its batches in this process.

    It keeps one other Python thread alive, and this process does not fork
    while one is (`forking.pool_workers`).
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
