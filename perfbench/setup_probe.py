"""Time one workload's program set-up in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>

Prints the seconds from before `import opcalc` until the workload's fixed
objects exist (see fixtures.program_setup).
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import fixtures  # the import of opcalc is part of what is timed
    from spans import Untraced

    fixtures.program_setup(sys.argv[1], Untraced())
    print(time.perf_counter() - start)
