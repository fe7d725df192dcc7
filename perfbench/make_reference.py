"""Write the default-seed reference final state of each workload, full and tiny.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Regenerate only when a change is meant to alter the solution, and say so.
"""

import sys

import swmoment.sim as sim

import gates
from workloads import DEFAULT_SEED, WORKLOADS, make_config


def main(names: list) -> int:
    for name in names or list(WORKLOADS):
        for tiny in (False, True):
            result = sim.run(make_config(name, DEFAULT_SEED, tiny))
            print(f"wrote {gates.save_reference(name, result, tiny)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
