"""Set-up probe of the darksector benchmark.

Times, in a fresh process, importing ``darksector.cli`` and then generating,
saving and loading one workload's scenes.  Prints the seconds, then the
median time of ``calibrate.kernel`` measured after the set-up, by which the
caller scales the seconds to the kernel's nominal speed.

    python3 perfbench/setup_probe.py <workload> <seed> <directory> <tiny 0|1>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    workload, seed, directory, tiny = sys.argv[1:5]
    t0 = time.perf_counter()
    import darksector.cli  # noqa: F401  (the import is part of what is timed)
    from bench_scenes import setup

    setup(workload, int(seed), Path(directory), tiny == "1")
    seconds = time.perf_counter() - t0
    from calibrate import kernel_median

    print(seconds, kernel_median())


if __name__ == "__main__":
    main()
