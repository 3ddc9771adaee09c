"""Benchmark command for reed; see perfbench/README.md.

    python3 perfbench/run.py --workload backup-similarity --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a reed checkout: it imports the program from
``src/`` there and works in ``.perfbench/`` there. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics, each as ``{"value": ..., "unit": ...}``. With
``--trace 1`` the spans are also written to
``.perfbench/spans-<workload>-<seed>.tsv``.

``--smoke`` runs every workload once at tiny sizes, traced and untraced,
with every check, and exits non-zero if a check fails, if the failed
operations differ from the known fault's count, or if the metric names
differ from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ["backup-similarity", "backup-chunk-keyed", "revoke-rekey"]


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, spec=None):
    """One run in a scratch directory; returns (run, end-to-end, per-layer or None)."""
    import spans
    import workloads
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = workloads.run_workload(name, seed, seconds, trace, work, spec)
        e2e = run.end_to_end()
        layers = None
        if trace:
            layers = spans.layer_metrics(run.tracer, run.rounds)
            layers.update(run.caont_probe)
            layers.update({f"wall.{name}": value
                           for name, value in run.timings("wall").items()})
            run.tracer.write(os.path.join(OUT, f"spans-{name}-{seed}.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, e2e, layers


def smoke() -> int:
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layers = {m["name"] for m in bench["per_layer"]}
    bad = 0
    for name in WORKLOAD_NAMES:
        spec = workloads.SMOKE[name]
        run, e2e, layers = measure(name, 1, 0, True, spec)
        want_failed = workloads.expected_failures(spec) * len(run.rounds)
        problems = list(run.problems)
        if run.failed != want_failed:
            problems.append(f"{run.failed} failed operations, expected {want_failed}")
        if set(e2e) != want_e2e:
            problems.append(f"end-to-end metrics {sorted(set(e2e) ^ want_e2e)} "
                            "differ from BENCHMARK.json")
        if set(layers) != want_layers:
            problems.append(f"per-layer metrics {sorted(set(layers) ^ want_layers)} "
                            "differ from BENCHMARK.json")
        print(f"{name}: {len(run.rounds)} rounds, {run.attempted} attempted, "
              f"{run.failed} failed: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "reed")):
        print(f"perfbench: {src}/reed not found; run from the root of a reed checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        return smoke()
    run, e2e, layers = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.faults:
        print(f"perfbench: {run.failed} of {run.attempted} operations failed: "
              f"{dict(run.faults)}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": _metrics(layers if args.trace else e2e)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
