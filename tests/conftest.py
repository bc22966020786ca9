"""Make the source tree importable by the interpreters the CLI tests start.

`pythonpath = ["src"]` in pyproject.toml puts `src/` on this process's
`sys.path` only; the tests that run `python -m snapclust.cli` in a child
process find the package through the PYTHONPATH it inherits.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + inherited if inherited else SRC
