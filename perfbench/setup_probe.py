"""Time one fresh-process set-up: ``import ddtr``, ``build_instance`` and
``draw_start`` for a workload's first configuration.

Usage: ``python3 perfbench/setup_probe.py <workload> <run seed>``; prints the
seconds taken.  ``run.py`` starts it several times and reports the median.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import ddtr
    from ddtr import cli

    instance = cli.build_instance(cli.parse_run_config(workload.docs[0]))
    instance.draw_start(ddtr.make_rng(seed))
    print(time.perf_counter() - start)
