"""One set-up sample: import hexgauge and generate a workload's inputs in
this fresh interpreter, then print the seconds it took.

    python3 perfbench/setup_probe.py --workload ground_state --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["HEXGAUGE_THREADS"] = "1"
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import workloads

    workloads.plan(args.workload, args.seed, args.size)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
