#!/usr/bin/env python3
"""End-to-end benchmark of the PIMFlow reproduction (see README.md).

Run one workload in this process and print every metric by name and
unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/e2e/bench.py run --workload infer-mobilenet-b1 \\
        --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` (or
``--trace PATH``) runs with spans around every call into the program,
reports the per-layer metrics and writes a Chrome trace-event file.
Each run also writes a JSON record to ``--out`` (default
``benchmarks/e2e/results/``).  Compare two sets of records with::

    python3 benchmarks/e2e/bench.py compare A/ B/

The program is imported from the ``src/`` directory of the checkout
that holds this file, never from anywhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402  (path bootstrap above)
from tracing import NullTracer, Tracer  # noqa: E402

SCHEMA = compare.SCHEMA
WORKLOAD_NAMES = ("compile-cnn5", "infer-mobilenet-b1", "infer-resnet50-b4",
                  "serve-mix-open")


def import_program():
    """Import the workloads (and with them the program) from ``src/``;
    returns the module and the seconds the import took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (not part of the program's import time)

    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"bench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return workloads, import_s


def blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded;
    None where that library cannot be found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    """What must match for two runs to be comparable."""
    import numpy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def cmd_run(args) -> int:
    workloads, import_s = import_program()
    tracer = NullTracer() if args.trace == "0" else Tracer()
    result = workloads.run(args.workload, args.seed, args.seconds, tracer,
                           import_s)
    units = {**workloads.END_TO_END, **workloads.PER_LAYER}
    record = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": tracer.enabled,
        "fingerprint": fingerprint(),
        **{k: result[k] for k in ("correct", "attempted", "failed",
                                  "errors", "modelled")},
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in result["end_to_end"].items()},
        "per_layer": {k: {"value": v, "unit": units[k]}
                      for k, v in result["per_layer"].items()},
        "detail": {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(result["detail"].items())},
    }
    stem = (f"{args.workload}.seed{args.seed}."
            f"{'traced' if tracer.enabled else 'plain'}."
            f"{time.time_ns() // 1_000_000}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer.enabled:
        trace = out / f"{stem}.trace.json" if args.trace == "1" \
            else Path(args.trace)
        tracer.write(trace, {"workload": args.workload, "seed": args.seed,
                             "fingerprint": record["fingerprint"]})

    print(f"[{args.workload} seed {args.seed}] {record['attempted']} "
          f"operations, {record['failed']} failed, "
          f"{'correct' if record['correct'] else 'NOT CORRECT'}")
    for error in record["errors"]:
        print(f"  error: {error}")
    for section in ("end_to_end", "per_layer", "detail"):
        for name, m in record[section].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    metrics = record["per_layer" if tracer.enabled else "end_to_end"]
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


def cmd_compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, status = compare.compare(compare.load_records(args.a),
                                   compare.load_records(args.b), spec)
    print(compare.format_rows(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload")
    run.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, default=20.0,
                     help="measured wall-clock time (default %(default)s)")
    run.add_argument("--trace", default="0", metavar="0|1|PATH",
                     help="0: untraced; 1 or PATH: traced, trace written "
                          "next to the record or to PATH")
    run.add_argument("--out", default=str(RESULTS),
                     help="directory for the run record")
    cmp_ = sub.add_parser("compare", help="compare two sets of run records")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
