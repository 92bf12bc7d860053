"""Run one hexgauge benchmark workload and print its result.

    python3 perfbench/run.py --workload ground_state --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; hexgauge is imported from src/.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  See perfbench/README.md.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PR_SET_THP_DISABLE = 41


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="ground_state, sectors or cli_mix")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hexgauge", "__init__.py")):
        print(f"hexgauge sources not found under {SRC}", file=sys.stderr)
        return 2
    # Transparent huge pages make peak RSS depend on where the address-space
    # layout happens to align large arrays (+32 MiB in some runs of one seed);
    # turn them off for this process and its children so the RSS is repeatable.
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
    # One BLAS thread, set before numpy loads; override any inherited setting.
    os.environ["HEXGAUGE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
