"""photonfusion benchmark: one workload per run, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload cli_default --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): cli_default, calibration,
multipair_hv. With --trace 0 the run repeats untraced passes for about
--seconds (stopping before a pass would overrun, after at least
MIN_PASSES passes), and reports the end-to-end metrics: setup_s, run_s
(the mean pass) and peak_rss_mb. With
--trace 1 it runs one untraced pass and TRACED_PASSES traced passes and
reports the per-layer metrics; counts must repeat exactly between the
traced passes. Every op's output is checked against the references in
refs/ (record them with record_refs.py).

Human-readable lines come first on standard output; the last line is one
JSON object with the keys correct, attempted, failed and metrics. The run
record (versions, machine, load) and the span file go to perfbench/out/.
The run exits non-zero without a result when the photonfusion source tree
is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

from tracing import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, load_refs, write_default_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
MIN_PASSES = 3
TRACED_PASSES = 2

# Fresh interpreter: import the package and load the default config file.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import photonfusion.cli
from photonfusion.config import load_config
load_config(sys.argv[2])
print("ready", flush=True)
"""


def pin_blas_threads() -> None:
    """One BLAS thread; numpy reads these when it is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """photonfusion's modules from this checkout's src/, never another copy."""
    package_dir = SRC / "photonfusion"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no photonfusion source tree at {package_dir}")
    sys.path.insert(0, str(SRC))
    pf = types.SimpleNamespace(
        **{name: importlib.import_module(f"photonfusion.{name}") for name in LAYERS}
    )
    loaded = Path(pf.cli.__file__).resolve().parent
    if loaded != package_dir.resolve():
        raise SystemExit(f"error: imported photonfusion from {loaded}, not {package_dir}")
    return pf


def measure_setup(config_path: Path) -> float:
    """Median time from process start to the first possible timed call."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), str(config_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def _git_sha():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "photonfusion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def untraced_metrics(workload, seconds: float, setup_s: float):
    """Passes until another one would overrun the time budget.

    run_s is the mean pass: all the timed work of the run over the number
    of passes. The host's CPU speed drifts over tens of seconds, and the
    mean over the whole run follows that drift less than the median of a
    handful of multi-second passes does.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.fmean(p.seconds for p in passes)
        <= seconds
    ):
        gc.collect()
        passes.append(workload.run_pass())
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.fmean(p.seconds for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics


def traced_metrics(workload, trace_path: Path):
    """Per-layer metrics from traced passes, after one untraced baseline.

    Counts are taken from the first traced pass and must repeat exactly
    in every later one; self times are medians over the traced passes.
    """
    baseline = workload.run_pass()
    tracer = Tracer()
    traced, per_pass = [], []
    for i in range(TRACED_PASSES):
        tracer.counts.clear()
        first = len(tracer.spans)

        def mark(op, i=i):
            tracer.op = f"pass{i}/{op}"

        with tracer:
            result = workload.run_pass(on_op=mark)
        traced.append(result)
        layer = layer_metrics(tracer.spans[first:], tracer.counts, first)
        layer["cli.bytes_written"] = result.bytes_written
        per_pass.append(layer)
    tracer.write(trace_path)

    metrics = {}
    repeated = True
    for name, value in per_pass[0].items():
        values = [layer[name] for layer in per_pass]
        if isinstance(value, int):
            if len(set(values)) != 1:
                print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
                repeated = False
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.seconds for p in traced) / baseline.seconds
    )
    return [baseline, *traced], metrics, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    pf = import_package()
    record = run_record(args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"work-{stem}-") as tmp:
        workdir = Path(tmp)
        workload = WORKLOADS[args.workload](pf, args.seed, workdir, load_refs(args.workload))
        if args.trace:
            listed = spec["per_layer"]
            passes, metrics, repeated = traced_metrics(workload, OUT_DIR / f"spans-{stem}.json.gz")
        else:
            listed = spec["end_to_end"]
            setup_s = measure_setup(write_default_config(pf, workdir))
            passes, metrics = untraced_metrics(workload, args.seconds, setup_s)
            repeated = True

    units = {m["name"]: m["unit"] for m in listed}
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json"
        )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(
        loadavg_end=os.getloadavg(),
        passes=len(passes),
        pass_seconds=[p.seconds for p in passes],
        attempted=attempted,
        failed=failed,
    )
    (OUT_DIR / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("record: " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(f"failed_ratio: {failed / attempted} (failed {failed} of {attempted} ops)")
    result = {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
