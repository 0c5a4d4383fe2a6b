"""Benchmark entry point.

    python3 perfbench/run.py --workload svae-long --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Results, the
environment and (when traced) the spans are also written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# One BLAS thread: the benchmark is a single closed-loop client, and a fixed
# thread count keeps runs comparable. Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Freeing a block this large raises glibc's mmap threshold to its size (32
# MiB at most, on 64-bit) and its trim threshold to twice that, as a long run
# that frees a large array does sooner or later. The benchmark does so before
# anything is measured: without it, whether arrays of 0.1-31 MiB came from
# freshly mapped pages (some 6000 page faults per rvae epoch on svae-long,
# 12000 per svae epoch on catalog-wide) hung on which blocks a run happened to
# free first, and rvae.epoch_s on svae-long flipped between two levels 1.3x
# apart from run to run.
ALLOCATOR_WARM_UP_BYTES = 31 << 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vaerec", "__init__.py")):
        print(f"error: no vaerec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    bytearray(ALLOCATOR_WARM_UP_BYTES)  # freed at once

    from perfbench import environment, harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")

    tracer = None
    try:
        if args.trace:
            metrics, tally, tracer = harness.traced_run(wl, args.seed, data_dir)
        else:
            metrics, tally = harness.timed_run(wl, args.seed, args.seconds, ROOT, data_dir)
    except harness.NoSamples as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment.describe(ROOT, wl.name, args.seed, BLAS_THREADS)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "samples": tally.samples, **result}, fh, indent=2)
    if tracer is not None:
        tracer.write(os.path.join(work, "spans.jsonl"))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
