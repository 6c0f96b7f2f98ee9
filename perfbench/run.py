"""minit5 benchmark: run one workload, or all of them, and report.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a minit5 checkout; the program is imported from
./src. Untraced (--trace 0) runs print the end-to-end metrics; traced runs
(--trace 1) make the same operations twice, untraced then traced, and
print the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (machine facts, input properties, every named metric, digests,
checks and, when traced, all spans) go to .perfbench_out/. The exit code
is 1 when a correctness check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is first imported; the program's own
# MINIT5_THREADS is only read by its command line, after numpy is loaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from metrics import EXTRA_WORKLOADS, RUN_SECONDS, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
CHILD_TIMEOUT_S = 600


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def import_program():
    """Import minit5 from this checkout's src/, or explain why not."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import minit5
    except ImportError as e:
        problem = f"cannot import minit5 from {src}: {e}"
    else:
        if os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__))) == src:
            return
        problem = f"minit5 was imported from {minit5.__file__}, not from {src}"
    print(f"perfbench: {problem}", file=sys.stderr)
    raise SystemExit(2)


def run_workload(name, seed, seconds, trace):
    import layers
    import metrics
    import workloads
    from spans import NullTracer, Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(TMP_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    fn = workloads.WORKLOADS[name]
    try:
        if not trace:
            run = workloads.Run(name, seed, seconds, NullTracer(), workdir)
            fn(run)
            run.slots["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {n: (run.slots[n], u) for n, u, _, _ in metrics.END_TO_END}
            spans = None
        else:
            ops = workloads.TRACE_OPS[name]
            t = time.perf_counter()
            fn(workloads.Run(name, seed, seconds, NullTracer(), workdir, max_ops=ops))
            plain_s = time.perf_counter() - t
            tracer = Tracer(f"{name}-seed{seed}-{os.getpid()}")
            run = workloads.Run(name, seed, seconds, tracer, workdir, max_ops=ops)
            run.patches = layers.install(tracer)
            t = time.perf_counter()
            try:
                fn(run)
            finally:
                run.stop_tracing()
            traced_s = time.perf_counter() - t
            per_layer, spans = layers.per_layer_metrics(tracer, run.steps, run.pad)
            per_layer["trace.overhead_s"] = traced_s - plain_s
            per_layer["trace.overhead_share"] = (traced_s - plain_s) / plain_s
            run.props.update(untraced_wall_s=plain_s, traced_wall_s=traced_s,
                             tensor_ops_found=sorted(layers.tensor_ops()))
            values = {n: (per_layer[n], u) for n, u, _ in metrics.PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not ok for _, ok, _ in run.checks)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "inputs": run.props,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in run.named.items()},
        "digests": run.digests,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "ops": run.ops,
    }
    detail["named"].update(setup_s={"value": run.slots["setup_s"], "unit": "s"},
                           ops_attempted={"value": run.ops + len(run.checks), "unit": "count"},
                           ops_failed={"value": failed, "unit": "count"})
    if not trace:
        detail["named"]["peak_rss_mb"] = {"value": run.slots["peak_rss_mb"], "unit": "MB"}
    if spans is not None:
        detail["spans_by_name"] = {k: {"calls": c, "inclusive_s": i, "self_s": s}
                                   for k, (c, i, s) in sorted(spans.items())}
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    if trace:
        tracer.dump(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json"))

    report(detail, values, path)
    return {"correct": failed == 0, "attempted": run.ops + len(run.checks), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def report(detail, values, path):
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} ops={detail['ops']}")
    print("machine: " + json.dumps(detail["machine"]))
    print("inputs: " + json.dumps(detail["inputs"]))
    for name, m in detail["named"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if detail["trace"]:
        for name, (v, u) in values.items():
            print(f"layer {name} = {v:.6g} {u}")
        print("self time by span (s): " + ", ".join(
            f"{k}={v['self_s']:.4g}" for k, v in sorted(detail["spans_by_name"].items(),
                                                         key=lambda kv: -kv[1]["self_s"])[:12]))
    print("digests: " + json.dumps(detail["digests"]))
    for c in detail["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED ' + c['detail']}")
    print(f"details: {os.path.relpath(path, ROOT)}")


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS + EXTRA_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            raise SystemExit(2)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), encoding="utf-8") as f:
            named = json.load(f)["named"]
        for metric, m in named.items():
            summary["metrics"][f"{name}.{metric}"] = m
    print("# all workloads")
    for key, m in summary["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
