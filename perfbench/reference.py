"""Compute a workload's oracle outputs and write them as JSON.

``run.py`` starts this in a separate process before it measures anything,
so the oracle (sqlite3, or the row engine for the stream) never adds to
the measured process's ``peak_rss_mb``:

    python3 perfbench/reference.py --workload tpch-warm --seed 1 --ops 224 --out FILE
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from measure import RunSpec, write_json_atomic
    from run import WORKLOADS

    module = importlib.import_module(WORKLOADS[args.workload])
    payload = module.reference(RunSpec(seed=args.seed, ops=args.ops, cache_dir=args.cache_dir))
    write_json_atomic(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
