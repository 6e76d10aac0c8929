"""One workload run in a fresh interpreter; `run.py` starts it.

Set-up is `import cdslab.cli` plus one untimed warm-up request. The import
is timed here, first: before it, this script imports only clock.py and
modules the interpreter has already loaded, so every module cdslab needs is
loaded, and paid for, inside the timed step. The harness's own modules come
after it, in session.py, which finishes the run.

    python3 perfbench/worker.py --workload W --seed S --seconds T [--trace 1]
"""

import os
import sys

from clock import Clock


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    clock = Clock()
    clock.step(__import__, "cdslab.cli")
    import session  # after the timed import; see the docstring

    return session.main(sys.modules["cdslab.cli"], clock)


if __name__ == "__main__":
    sys.exit(main())
