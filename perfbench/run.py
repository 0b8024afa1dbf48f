"""Benchmark for the qks library: run one workload, check it, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frames-cnot2 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the fastest of
several fresh processes timed from start through ``import qks``, input
generation, machine sampling and one warm-up call; ``wall_s`` is the fastest
checked operation of the workload, repeated for at least one pass and while
another still fits in ``--seconds``; ``peak_rss_mb`` is this process's peak
resident set. The speed of a shared host swings by tens of per cent within
seconds, so the fastest of many short timings (best of N) is steadier from
run to run than their median.
``--trace 1`` makes a separate traced run: one untraced and one traced pass
over the workload's operations, whose spans give the per-layer metrics and
the tracing overhead, and whose output digests must agree.

Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Spans and the environment are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
# Units of the values printed for people but kept out of the JSON result.
EXTRA_UNITS = {"error_rate": "ratio", "test_error": "ratio",
               "kernel_gap_stderr": "stderr"}


def import_qks():
    """Import the library from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qks" / "__init__.py").is_file():
        sys.exit(f"error: no qks sources under {src}")
    sys.path.insert(0, str(src))
    qks = importlib.import_module("qks")
    importlib.import_module("qks.cli")
    if src.resolve() not in Path(qks.__file__).resolve().parents:
        sys.exit(f"error: imported qks from {qks.__file__}, not {src}")
    return qks


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print 'ready' and exit (internal)")
    return parser.parse_args(argv)


def _null_span(name, **counts):
    return contextlib.nullcontext()


def setup_probe(args) -> float:
    """Seconds from starting a fresh process until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"error: set-up probe failed ({proc.returncode}): {err}")
    return elapsed


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy as np

    from workloads import nproc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu": models[0] if models else platform.processor(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "commit": commit,
        "seed": seed,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_run(qks, workload_cls, args):
    workload = workload_cls(qks, args.seed, OUT_DIR, _null_span)
    workload.warm_up()
    setup, walls, outcomes = [], [], []
    begin = time.perf_counter()
    for part in itertools.cycle(workload.parts):
        # Set-up probes are spread over the run, so that they meet the
        # host's fast and slow phases alike.
        while (len(setup) < SETUP_PROBES and len(setup) * args.seconds
               <= SETUP_PROBES * (time.perf_counter() - begin)):
            setup.append(setup_probe(args))
        start = time.perf_counter()
        outcomes.append(workload.run(part))
        walls.append(time.perf_counter() - start)
        if (len(walls) >= len(workload.parts) and time.perf_counter() - begin
                + statistics.median(walls) > args.seconds):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    metrics = {
        "setup_s": min(setup),
        "wall_s": min(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    extra = {key: max(o.values[key] for o in outcomes)
             for key in outcomes[0].values}
    extra["error_rate"] = len(failures) / attempted
    record = {"setup_probes_s": setup, "walls_s": walls}
    return metrics, extra, attempted, failures, record


def traced_run(qks, workload_cls, args):
    from layers import WORKLOAD_METRICS, instrument, layer_metrics

    tracer = instrument(qks)
    tracer.install()
    workload = workload_cls(qks, args.seed, OUT_DIR, tracer.span)
    workload.warm_up()
    setup_spans = list(tracer.spans)
    tracer.uninstall()

    start = time.perf_counter()
    plain = [workload.run(part) for part in workload.parts]
    plain_wall = time.perf_counter() - start

    tracer.install()
    start = time.perf_counter()
    with tracer.span("workload.pass"):
        traced = [workload.run(part) for part in workload.parts]
    traced_wall = time.perf_counter() - start
    tracer.uninstall()

    spans = tracer.since(start)
    failures = [f for o in plain + traced for f in o.failures]
    if [o.digest for o in traced] != [o.digest for o in plain]:
        failures.append("tracing changed the output digest")
    attempted = sum(o.attempted for o in plain + traced) + 1

    metrics = layer_metrics(setup_spans, spans)
    metrics.update(dict.fromkeys(WORKLOAD_METRICS, 0))
    metrics.update(workload.diagnostics(traced, spans))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    extra = {"error_rate": len(failures) / attempted}
    record = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "digests": [o.digest for o in traced],
              "spans": [asdict(span) for span in tracer.spans]}
    return metrics, extra, attempted, failures, record


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    qks = import_qks()
    workload_cls = WORKLOADS[args.workload]

    if args.setup_probe:
        workload_cls(qks, args.seed, OUT_DIR, _null_span).warm_up()
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    measure = traced_run if args.trace else timed_run
    metrics, extra, attempted, failures, record = measure(qks, workload_cls, args)
    if set(metrics) != {m["name"] for m in declared}:
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")

    env = environment(args.seed)
    units = {m["name"]: m["unit"] for m in declared}
    shown = {**EXTRA_UNITS, **units}
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {shown[name]}")
    print("env " + json.dumps(env))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    payload = dict(result, workload=args.workload, env=env, extra=extra,
                   failures=failures, **record)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(payload) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
