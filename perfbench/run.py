"""Pipeline benchmark: fixed, seeded job lists through ``execute_job``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the closed loop for ``S`` seconds with nothing patched and
reports the end-to-end metrics; ``--trace 1`` runs the traced passes and
reports the per-layer metrics. Human-readable lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Without ``src/repro`` next to this directory the
program exits with code 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class SetupFailed(RuntimeError):
    pass


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p
    )
    values = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 workload, str(seed)],
                capture_output=True, text=True, env=env,
                timeout=PROBE_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise SetupFailed(f"set-up probe timed out after {exc.timeout} s")
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr.strip() or "set-up probe failed")
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(
    correct: bool, attempted: int, failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pipeline_bench as pb

    if args.workload not in pb.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(pb.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = None
    if not args.trace:
        try:
            setup_s = measure_setup(args.workload, args.seed)
        except SetupFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2

    workload = pb.WORKLOADS[args.workload]
    jobs = workload.job_list(args.seed, traced=bool(args.trace))
    pb.warm_up()
    if args.trace:
        metrics, outcome = pb.run_traced(jobs)
    else:
        outcome = pb.run_timed(jobs, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **pb.timed_metrics(outcome)}

    env = pb.environment()
    print(f"# workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        medians = [m for m in outcome.job_medians() if m is not None]
        print(f"#   wall: jobs_per_s={len(medians) / sum(medians):.4f} "
              f"calibration_s={statistics.median(outcome.calibrations):.5f}")
        for cls, (mean, count) in sorted(outcome.class_means().items()):
            print(f"#   job_s.{cls:<24} {mean:10.4f} s   jobs={count}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<30} {value:14.6g} {unit}")
    for note in outcome.notes:
        print(f"#   {note}")
    for failure in outcome.failures:
        print(f"# FAILED: {failure}")
    print(result_line(
        not outcome.failures, outcome.attempted, len(outcome.failures), metrics
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
