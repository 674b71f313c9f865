"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is what a ``repro sweep`` process pays before its first job: importing
``repro`` (networkx, the numpy-tier gate and every solver module) and
expanding the workload's job list into validated, content-keyed jobs.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED`` with ``src`` on
``PYTHONPATH``.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from repro.engine.jobs import Job
    import repro.engine.runner  # noqa: F401  (the import users pay)

    from pipeline_bench import WORKLOADS

    keys = [Job.from_dict(job).key for job in WORKLOADS[workload].job_list(seed)]
    elapsed = time.perf_counter() - _STARTED
    if not keys:
        raise SystemExit("empty job list")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
