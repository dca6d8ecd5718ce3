#!/usr/bin/env python3
"""modeguide benchmark: time to solution, set-up time, memory and correctness.

    python3 perfbench/run.py --workload matching|oracle --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file sits in, never from an installed copy; without
``src/modeguide`` the run exits 2 and prints no result.

One run is one fresh process with a single closed-loop client: it makes
the workload's calls one after another, each when the previous one has
returned (see ``workloads.py``).  A pass is one sweep over the call list.
Passes repeat while the next one is expected to end within ``--seconds``
(at least one pass).  Every pass gets its own empty ``MODEGUIDE_CACHE``
directory, so no pass reads results from disk, and the caller's cache is
never inherited.  Every output of every pass is checked (``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: import of modeguide, numpy and scipy plus one small CLI
  call, in a fresh interpreter.  Five set-ups run per run, one before each
  of the first passes, so the samples spread over the run; the median.
* ``wall_s``: wall time of one pass, after set-up, as the sum over the
  calls of each call's fastest time in the run.  The report lines also
  give the median pass and the sample count.  Best times are reported
  because on a shared 2-vCPU virtual machine the speed of one thread
  changes by up to 2x for tens of seconds at a time (CPU time moves with
  wall time, so it is not stolen time): over nine 30 s runs of the
  ladder calls the median pass spread by 29% (quartile distance over
  median), the fastest pass by 10%.
* ``peak_rss_mb``: peak resident memory of the run's process.
* ``ok_frac``: operations that succeeded over operations attempted, that
  is 1 - failed_frac; failed_frac itself (0 on a correct run) is printed
  in the report lines.

With ``--trace 1`` the run records spans around the calls into each
module (``tracing.py``) and reports the per-layer metrics: medians over
passes for times, the first pass's value for counts (every pass must
give the same counts), and ``bench.traced_wall_s``, the traced
counterpart of ``wall_s`` (their difference is the tracing overhead).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit, the environment (nproc, BLAS and its threads, L3,
versions, commit) and the source lines of each module.  A record of the
run, and with tracing all spans, is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUPS = 5
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WARMUP = ["single", "--a", "1", "--modes", "8"]

SETUP_CHILD = f"""
import contextlib, io, time
t0 = time.perf_counter()
import numpy, scipy, scipy.linalg, scipy.sparse.linalg
from modeguide import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({WARMUP!r})
print(rc, time.perf_counter() - t0)
"""


def load_package():
    """Import modeguide from this checkout's src/, or exit 2.

    BLAS is pinned to one thread first: with OpenBLAS's default of one
    thread per CPU the second thread spins during the many small (40 to
    80 dimensional) factorizations of the scan, which made the pass
    slower and its time spread much wider on a 2-CPU machine.
    """
    init = SRC / "modeguide" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no package sources at {init.relative_to(ROOT)}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update({name: "1" for name in BLAS_THREADS})
    sys.path.insert(0, str(SRC))
    import modeguide
    if Path(modeguide.__file__).resolve() != init.resolve():
        print(f"perfbench: imported modeguide from {modeguide.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return modeguide


def _empty_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_setup(cache: Path) -> float:
    """Seconds of one set-up in a fresh interpreter with an empty cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC), MODEGUIDE_CACHE=str(_empty_dir(cache)))
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, seconds = proc.stdout.split()
    if rc != "0":
        raise RuntimeError(f"set-up call exited {rc}: {proc.stderr.strip()}")
    return float(seconds)


def _blas_threads() -> dict[str, int]:
    """Thread count of the OpenBLAS that numpy and scipy each load."""
    import numpy
    import scipy
    out = {}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        for lib in (Path(mod.__file__).parent.parent / f"{mod.__name__}.libs").glob("*openblas*"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                out[mod.__name__] = fn()
    return out


def _l3_bytes() -> int | None:
    try:
        proc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                              timeout=10, check=True)
        return int(proc.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep['name']} {dep['version']}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "modeguide").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def source_lines() -> dict[str, int]:
    """Lines of each src/modeguide module (informational; never gates a run)."""
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "modeguide").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def run_pass(ops, tracer) -> tuple[dict, float, dict]:
    """One closed-loop sweep over the call list: outputs, pass seconds, per-call seconds."""
    ctx: dict = {}
    outputs, op_seconds = {}, {}
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        with tracer.span(op.span) if tracer else contextlib.nullcontext():
            try:
                outputs[op.label] = op.call(ctx)
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs[op.label] = exc
        op_seconds[op.label] = time.perf_counter() - t0
    return outputs, time.perf_counter() - t_pass, op_seconds


def _digest(outputs: dict) -> str:
    blob = json.dumps({k: repr(v) if isinstance(v, Exception) else v
                       for k, v in outputs.items()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def measure(ops, seconds: float, tracer, work: Path) -> dict:
    """Passes until the next would end after ``seconds``; set-ups between passes when untraced."""
    import tracing
    runs: dict = {"outputs": [], "seconds": [], "op_seconds": [], "layers": [], "setup": []}
    t_begin = time.perf_counter()
    while True:
        if tracer is None and len(runs["setup"]) < SETUPS:
            runs["setup"].append(measure_setup(work / "setup-cache"))
        os.environ["MODEGUIDE_CACHE"] = str(_empty_dir(work / "cache"))
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        try:
            outputs, pass_seconds, op_seconds = run_pass(ops, tracer)
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            runs["layers"].append(tracing.layer_metrics(tracer.spans, first_span))
        runs["outputs"].append(outputs)
        runs["seconds"].append(pass_seconds)
        runs["op_seconds"].append(op_seconds)
        if time.perf_counter() - t_begin + pass_seconds > seconds:
            break
    while tracer is None and len(runs["setup"]) < SETUPS:
        runs["setup"].append(measure_setup(work / "setup-cache"))
    return runs


def check_outputs(ops, passes: list[dict]) -> tuple[int, dict[str, list[str]]]:
    """Failed operations over all passes, and the messages of each failing label."""
    import checks
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    by_digest: dict[str, dict] = {}
    failed, failures = 0, {}
    for outputs in passes:
        digest = _digest(outputs)
        if digest not in by_digest:
            by_digest[digest] = checks.check_pass(ops, outputs, reference)
        for label, msgs in by_digest[digest].items():
            if msgs:
                failed += 1
                failures.setdefault(label, msgs)
    return failed, failures


def best_pass(runs: dict) -> float:
    """Sum over the calls of each call's fastest time across the passes."""
    return sum(min(s[label] for s in runs["op_seconds"]) for label in runs["op_seconds"][0])


def per_layer(runs: dict) -> tuple[dict, dict, list[str]]:
    import tracing
    layers = runs["layers"]
    metrics, notes = {}, []
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in tracing.COUNTS:
            if len(set(values)) != 1:
                notes.append(f"WARNING: {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["bench.traced_wall_s"] = best_pass(runs)
    units = {name: "s" if name == "bench.traced_wall_s" else tracing.unit(name)
             for name in metrics}
    return metrics, units, notes


def end_to_end(runs: dict, attempted: int, failed: int) -> tuple[dict, dict, list[str]]:
    samples = runs["seconds"]
    metrics = {
        "setup_s": statistics.median(runs["setup"]),
        "wall_s": best_pass(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_frac": (attempted - failed) / attempted,
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    notes = [f"setup samples {runs['setup']}",
             f"pass samples {samples} (n={len(samples)}, median "
             f"{statistics.median(samples)!r} s; too few for a tail percentile)",
             f"failed_frac = {failed / attempted!r} ratio ({failed}/{attempted})"]
    return metrics, units, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("matching", "oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import tracing
    import workloads

    work = RUNS / f"work-{os.getpid()}"
    try:
        env = environment()
        ops = workloads.WORKLOADS[args.workload](args.seed)
        os.environ["MODEGUIDE_CACHE"] = str(_empty_dir(work / "cache"))
        workloads.run_cli(WARMUP)
        tracer = tracing.Tracer() if args.trace else None
        runs = measure(ops, args.seconds, tracer, work)
    finally:
        os.environ.pop("MODEGUIDE_CACHE", None)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) * len(runs["outputs"])
    failed, failures = check_outputs(ops, runs["outputs"])
    if tracer:
        metrics, units, notes = per_layer(runs)
        spans_path = RUNS / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        tracer.write(spans_path)
        notes.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, units, notes = end_to_end(runs, attempted, failed)

    digest = _digest(runs["outputs"][0])
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={len(runs['outputs'])} (closed loop, 1 client)",
             "env " + json.dumps(env, sort_keys=True),
             "source_lines " + json.dumps(source_lines())]
    for op in ops:
        times = [s[op.label] for s in runs["op_seconds"]]
        lines.append(f"  call best {min(times):8.4f} s, median {statistics.median(times):8.4f} s "
                     f"of {len(times)}: {op.label}")
    lines += notes
    lines += [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(f"outputs_sha256 {digest}")
    lines += [f"FAILED {label}: " + "; ".join(msgs[:5]) for label, msgs in failures.items()]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "source_lines": source_lines(),
              "pass_seconds": runs["seconds"], "setup_seconds": runs["setup"],
              "metrics": metrics, "failures": failures, "outputs_sha256": digest,
              "calls": [op.label for op in ops]}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
