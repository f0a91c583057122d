"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run repeats its set-up, measures for
``--seconds`` seconds with tracing off and prints the end-to-end
metrics. With ``--trace 1`` it sets up once under the tracer, runs a
fixed amount of work untraced, runs the same work traced, and prints
the per-layer metrics, including the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric as {"value", "unit"} with names
and units from BENCHMARK.json. The line before it is a JSON report with
the host record, every detailed metric with unit and sample count, and
the artifact digests. Exit status: 0 when every check passed, 1 when
one failed (the result then carries no metrics), 2 when the benchmark
cannot run here.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, so every run and both sides
# of any comparison use the same count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = pathlib.Path(".perfbench")
SETUP_REPEATS = 3
TRACE_UNITS = 2  # rounds (infer_stream) or passes (ingest) in a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_record() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def code_digest() -> str:
    """The benchmarked code: the package sources and the benchmark's own."""
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("src/emgtcn/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(out, key: str, digests: dict):
    """Repeated runs of one commit and seed must produce the same artifacts."""
    path = STATE_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        out.check(known[key] == digests, f"artifact digests differ from an earlier run ({key})")
    else:
        known[key] = digests
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_untraced(w, out, args, report) -> dict:
    clock = out.clock = w.clock()
    setup_s, wall_setup_s, setup_digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        t0, c0 = time.perf_counter(), clock.now()
        setup_digests.add(w.setup())
        setup_s.append((clock.now() - c0) * clock.factor())
        wall_setup_s.append(time.perf_counter() - t0)
    out.check(len(setup_digests) == 1, "repeated set-ups produced different inputs")
    rss = []
    # the peak is read once set-up and the first unit are done, so it does
    # not depend on how many units fit in the run
    out.after_first_unit = lambda: rss.append(peak_rss_mb())
    w.measure(out, time.perf_counter() + args.seconds)
    w.verify(out)
    report["setup_s"] = {"median": statistics.median(setup_s), "unit": "s", "n": len(setup_s)}
    report["setup_wall_s"] = {"median": statistics.median(wall_setup_s), "unit": "s",
                              "n": len(wall_setup_s)}
    report["peak_rss_mb"] = {"value": rss[0], "unit": "MB", "n": 1}
    report["digests"] = {"setup": setup_digests.pop(), "result": out.digest}
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss[0],
        "task_s": out.task_s,
        "items_per_s": out.items_per_s,
    }


def run_traced(w, out, args, report) -> dict:
    from clocks import ScaledClock, WallClock
    from tracer import Tracer, instrument, layer_metrics
    from workloads import Outcome

    # traced runs report unscaled times, on the workload's own kind of clock
    clock = WallClock if w.clock is ScaledClock else w.clock
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    with instrument(tracer):
        setup_digest = w.setup()

    results = set()

    def untraced() -> float:
        plain = Outcome()
        plain.clock = clock()
        t0 = clock.now()
        w.measure(plain, 0.0, TRACE_UNITS)
        elapsed = clock.now() - t0 - plain.checking_s
        out.check(not plain.problems, "; ".join(plain.problems[:3]))
        results.add(plain.digest)
        return elapsed

    # the traced work runs between two untraced runs of the same work, so
    # warm-up and drift fall on both sides of the overhead
    before = untraced()
    tracer.phase = "measure"
    out.clock = clock()
    with instrument(tracer):
        t0, w0 = clock.now(), time.perf_counter()
        w.measure(out, 0.0, TRACE_UNITS)
        traced_s = clock.now() - t0 - out.checking_s
        traced_wall_s = time.perf_counter() - w0 - out.checking_wall_s
    untraced_s = (before + untraced()) / 2
    results.add(out.digest)
    out.check(len(results) == 1, "tracing changed the results")
    w.verify(out)
    STATE_DIR.mkdir(exist_ok=True)
    tracer.write(STATE_DIR / f"trace-{args.workload}-{args.seed}.csv.gz")
    report["digests"] = {"setup": setup_digest, "result": out.digest}
    report["spans"] = len(tracer.spans)
    report["trace"] = {"untraced_s": untraced_s, "traced_s": traced_s, "unit": "s"}
    metrics = layer_metrics(tracer, out.unit_root, out.units, traced_wall_s,
                            traced_s - untraced_s)
    metrics.update(out.facts)
    return metrics


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process."""
    import subprocess

    status = 0
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emgtcn" / "__init__.py").is_file():
        print(f"error: no emgtcn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Outcome

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    out = Outcome()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host_record()}
    try:
        w = WORKLOADS[args.workload](args.workload, args.seed, str(workdir))
        runner = run_traced if args.trace else run_untraced
        values = runner(w, out, args, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_digests(out, f"{args.workload} seed={args.seed} code={code_digest()}",
                  report["digests"])

    report["detail"] = out.report
    report["problems"] = out.problems[:20]
    correct = not out.problems
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
    } if correct else {}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
