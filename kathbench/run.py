"""KathDB benchmark: one workload, one run, one result line.

Usage, from the repository root::

    python3 kathbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the workload
twice at half length (untraced, then traced, each on a freshly set-up
service) and prints every per-layer metric, writing the spans to
``kathbench/out/``.  Each metric is printed as ``name value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any answer is wrong.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kathbench import report  # noqa: E402
from kathbench.tracing import LayerTracer  # noqa: E402
from kathbench.workloads import WORKLOADS, end_to_end  # noqa: E402

SPANS_DIR = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    if args.trace:
        untraced = workload.run(args.seed, args.seconds / 2, repeats=1)
        tracer = LayerTracer().install()
        try:
            traced = workload.run(args.seed, args.seconds / 2, repeats=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        phases = [untraced, traced]
        metrics, catalogue = report.per_layer(untraced, traced), report.PER_LAYER
    else:
        phases = [workload.run(args.seed, args.seconds)]
        metrics, catalogue = end_to_end(phases[0]), report.END_TO_END

    correct, attempted, failed, failures = report.summary(phases)
    for message in failures:
        print(f"FAILED {message}")
    for name, (unit, _) in catalogue.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(report.result_line(correct, attempted, failed, metrics, catalogue))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
