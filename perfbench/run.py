"""The repo's benchmark: one workload, measured end to end or by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tsv-serial-s16 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced runs (service rounds, on the service
workload) with runs that have every layer wrapped (see
``tracing.py``), reports the per-layer metrics and the tracing
overhead (the median traced-minus-untraced difference of neighbouring
runs), and writes the traced runs' spans as Chrome-trace JSON under
``.perfbench/traces/``.  Metric names, units
and directions come from ``BENCHMARK.json``; workloads from
``perfbench/workloads.json``.  Every metric is printed as
``name value unit``, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every measured operation succeeded with the
reference rank digest, 1 when one failed or differed, 2 when the
checkout or the arguments are unusable.

Every scratch file (pipeline directories, multiprocessing sockets,
the service's job store and artifact cache) goes into one per-run
directory under ``.perfbench/tmp/`` in the checkout, removed by the
time the run exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="graph seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _use_socket_dir(workdir: Path) -> None:
    """Make multiprocessing bind its AF_UNIX listeners (the forkserver's)
    in ``workdir``, named relative to the working directory.

    An AF_UNIX path is limited to 107 bytes, which an absolute path in a
    deep checkout exceeds.  Processes started through multiprocessing
    inherit both this setting and the working directory.
    """
    from multiprocessing import process

    process.current_process()._config["tempdir"] = os.path.relpath(workdir)


def _stop_helper_processes() -> None:
    """Stop multiprocessing's forkserver and resource tracker, if this
    run started them, and wait for both to exit (both otherwise outlive
    the last worker until the interpreter exits).  ``_stop`` is the
    standard library's own shutdown hook for them."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or (args.seed is not None and args.seed < 0):
        print("perfbench: --seconds must be positive and --seed "
              "non-negative", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT)]
    # Worker processes import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    from perfbench.workloads import RUNNERS, load_record

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = load_record()
    entry = record["workloads"].get(args.workload)
    if entry is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(record['workloads'])}", file=sys.stderr)
        return 2
    default_seed = int(record["default_seed"])
    seed = default_seed if args.seed is None else args.seed

    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    _use_socket_dir(workdir)
    trace_path = (ROOT / ".perfbench" / "traces"
                  / f"{args.workload}-seed{seed}.json")
    try:
        outcome = RUNNERS[entry["kind"]](
            entry, seed, default_seed, args.seconds, bool(args.trace),
            ROOT, workdir, trace_path,
        )
    finally:
        _stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(outcome.attempted, 1)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = outcome.layers if args.trace else {
        **outcome.metrics, "ok_ratio": 1.0 - outcome.failed / attempted}
    metrics = {}
    for metric in declared:
        # Layers a workload never runs in this process read 0.
        value = values.get(metric["name"], 0.0) if args.trace \
            else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {_format(value)} {metric['unit']}")
    if not args.trace:
        print(f"error_rate {_format(outcome.failed / attempted)} ratio")
    for note in outcome.notes:
        print(f"note: {note}")
    correct = outcome.mismatched == 0 and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
