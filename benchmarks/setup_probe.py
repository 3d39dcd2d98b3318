"""Time one set-up of a benchmark workload in a fresh interpreter.

The time runs from the start of this script through the imports (numpy,
scipy, hapticbayes), the library load and the scenario generation or
loading, and is printed in seconds.

    python3 benchmarks/setup_probe.py WORKLOAD SEED OUT_DIR [smoke]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv) -> None:
    name, seed, out_dir = argv[:3]
    size = workloads.SMOKE if argv[3:] == ["smoke"] else workloads.FULL
    workloads.setup(name, int(seed), Path(out_dir), size)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
