"""Benchmark of the ``offo`` toolkit: one workload per run, from one process.

    python3 perfbench/run.py --workload noisy-firstorder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run imports ``offo`` from the checkout's ``src``, builds the workload's
inputs from the seed (the set-up, repeated and timed), then repeats passes
over those inputs until ``--seconds`` have gone by and at least three passes
are done.  End-to-end metrics are medians over the passes.  With
``--trace 1`` one more pass runs with the program's public names rebound to
span recorders; its spans go to ``.perfbench-out/`` and the run prints the
per-layer metrics instead.  The last line of standard output is the result as
one JSON object.  ``--workload all`` runs each workload in turn, each in a
fresh child process so that its peak memory is its own.
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
import time
import traceback
from pathlib import Path

#: BLAS/OpenMP thread pools are pinned before NumPy is imported, so that a
#: dense norm (Eadagi1's cap) stays on the benchmark's one thread
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPS = 25
MIN_PASSES = 3
CHILD_TIMEOUT_S = 900

_now = time.perf_counter


class PassResult:
    """Wall time, operation counts and outcome digest of one pass."""

    def __init__(self, ctx, wall, expected_ops, error=None):
        self.ctx = ctx
        self.wall = wall
        self.error = error
        if error is None:
            self.attempted = ctx.attempted
            self.failed = len(ctx.failures)
        else:  # every op of a pass that raised counts as failed
            self.attempted = self.failed = expected_ops
        self.cell_digests = [r.digest() for r in ctx.runs]
        self.digest = hashlib.sha256(b"".join(self.cell_digests)).hexdigest()
        self.evals = sum(r.evals for r in ctx.runs)


def fresh_offo():
    """Import ``offo`` from the checkout as a first import would."""
    for name in [m for m in sys.modules if m == "offo" or m.startswith("offo.")]:
        del sys.modules[name]
    offo = importlib.import_module("offo")
    if Path(offo.__file__).resolve().parent != SRC / "offo":
        raise ImportError(f"offo was imported from {offo.__file__}, not from {SRC}")
    return offo


def setup(workload, seed):
    """Import, load the suite and build inputs ``SETUP_REPS`` times; the last
    import is the one the passes use.  Returns (median seconds, offo, inputs)."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = _now()
        offo = fresh_offo()
        inputs = workload.inputs(offo, seed)
        times.append(_now() - start)
    return statistics.median(times), offo, inputs


def one_pass(workload, offo, inputs, rec=None):
    from workloads import PassContext

    ctx = PassContext(offo, rec)
    gc.collect()  # the garbage of earlier passes is not this pass's cost
    start = _now()
    error = None
    try:
        workload.run(ctx, inputs)
    except Exception as exc:  # a failed pass is reported, not raised
        traceback.print_exc()
        error = type(exc).__name__
    return PassResult(ctx, _now() - start, workload.expected_ops(inputs), error)


def traced_pass(workload, offo, inputs, run_id):
    from spans import SpanRecorder, instrument, restored

    rec = SpanRecorder(run_id)
    with instrument(offo, rec):
        with rec.span("workload.pass"):
            result = one_pass(workload, offo, inputs, rec)
    return result, rec, restored(offo)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def stored_digest(workload, seed):
    """The seed commit's digest for this workload and seed, if recorded."""
    with open(HERE / "expected.json") as fh:
        table = json.load(fh)["digests"].get(workload.name, {})
    return table.get("any") or table.get(str(seed))


def compare_digest(result, workload, seed) -> list:
    """Lines reporting whether the outcome digest matches the stored one."""
    stored = stored_digest(workload, seed)
    if stored is None:
        return [f"outcome digest {result.digest} (none stored for seed {seed})"]
    if stored["digest"] == result.digest:
        return [f"outcome digest {result.digest} matches the seed commit"]
    short = [d.hex()[:8] for d in result.cell_digests]
    old = [stored["cells"][i:i + 8] for i in range(0, len(stored["cells"]), 8)]
    lines = [f"outcome digest {result.digest} DIFFERS from the seed commit's {stored['digest']}"]
    for i, run in enumerate(result.ctx.runs):
        if i >= len(old) or old[i] != short[i]:
            lines.append("  differs: " + "/".join(map(str, run.key))
                         + f" status={run.status} evals={run.evals}")
    if len(old) != len(short):
        lines.append(f"  cell count {len(short)} (seed commit: {len(old)})")
    return lines


def named(spec: list, values: dict) -> dict:
    """Values in the order and with the units ``BENCHMARK.json`` declares."""
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in spec})}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}


def measure(name, seed, seconds, trace) -> dict:
    """Run one workload; returns the result object and prints the report."""
    from layers import per_layer
    from spans import SpanSummary
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    env = environment()
    setup_s, offo, inputs = setup(workload, seed)

    passes = []
    deadline = _now() + seconds
    while True:
        passes.append(one_pass(workload, offo, inputs))
        if passes[-1].error or (len(passes) >= MIN_PASSES and _now() >= deadline):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for p in passes for f in p.ctx.failures]
    errors = [p.error for p in passes if p.error]
    digests = {p.digest for p in passes if not p.error}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    wall_s = statistics.median(p.wall for p in passes)
    end_to_end = named(spec["end_to_end"], {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "evals_per_s": statistics.median(p.evals / p.wall for p in passes),
        "rho_pct": 100.0 * first.ctx.successes / max(first.ctx.scored, 1),
        "ops_ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    })
    lines = [f"workload {name}  seed {seed}  trace {trace}  passes {len(passes)}",
             "environment " + json.dumps(env)]
    lines += [f"  {k:<16} {m['value']:.6g} {m['unit']}" for k, m in end_to_end.items()]
    lines.append(f"  ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    lines += [f"  FAILED {f}" for f in failures[:20]]
    lines += [f"  pass raised {e}" for e in errors]
    if len(digests) > 1:
        lines.append(f"  passes disagree on the outcome digest: {sorted(digests)}")
    lines += compare_digest(first, workload, seed)
    correct = failed == 0 and not errors and len(digests) == 1
    metrics = end_to_end

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "passes": [p.wall for p in passes],
              "digest": first.digest, "end_to_end": metrics,
              "failures": failures[:200], "errors": errors}
    if trace:
        run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
        traced, rec, still_bound = traced_pass(workload, offo, inputs, run_id)
        values, detail = per_layer(SpanSummary(rec), rec.counts, traced, passes)
        layer = named(spec["per_layer"], values)
        same = traced.digest == first.digest and not traced.error and not traced.failed
        lines.append(f"traced pass: {len(rec.start)} spans, outcome digest "
                     + ("equals the untraced one" if same else f"DIFFERS: {traced.digest}"))
        lines.append("rebindings restored" if not still_bound
                     else f"still rebound after the traced pass: {still_bound}")
        lines += [f"  {k:<34} {m['value']:.6g} {m['unit']}" for k, m in layer.items()]
        lines.append("workload-specific layer times (not in BENCHMARK.json):")
        lines += [f"  {k:<34} {v:.6g} {'us' if '.us_' in k else 's'}"
                  for k, v in detail.items()]
        correct = correct and same and not still_bound
        metrics = layer
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"spans-{name}.npz")
        report.update(run_id=run_id, per_layer=metrics, per_layer_detail=detail,
                      traced_digest=traced.digest)
        lines.append(f"spans -> {OUT.relative_to(ROOT) / f'spans-{name}.npz'}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{name}-trace{trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    print("\n".join(lines), flush=True)
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own child process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            print(f"workload {name} did not end within {CHILD_TIMEOUT_S} s")
            combined["correct"] = False
            continue
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(out[-1])
        except (IndexError, ValueError):
            print(f"workload {name} ended with code {proc.returncode} and no result")
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    from workloads import WORKLOADS  # NumPy loads here, after the pinning

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "offo" / "__init__.py").is_file():
        print(f"no offo package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
