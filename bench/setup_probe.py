"""Set-up cost of a fresh process: import ``nash_horizon.cli`` (through the
workload module) and build and write one workload's configs.

    python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR

bench/run.py times this process from start to exit.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.write_configs(workloads.build(workload, seed), out)
