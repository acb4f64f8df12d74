"""balance-forge benchmark: three seed-generated workloads, one fresh process per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

The op list is generated once from ``--workload`` and ``--seed``.  Each run
is a fresh ``worker.py`` process that imports ``balance_forge`` from
``src/``, runs the whole op list once (so the term caches, ``_alpha_cache``
and the ``lru_cache`` on representatives start cold, as for a CLI user, and
are shared across the ops, as in a library session) and checks every
output after the timed region.  Runs follow one another until ``--seconds``
have passed since the first run, which also runs the slow sympy oracle (at
least three runs).  ``batch_s``, ``op_p50_ms`` and ``op_tail_ms`` are taken
over each op's lowest latency across the runs (see ``op_figures``);
``setup_s`` and ``peak_rss_mib`` are medians over the runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
workers for half the time, then traced workers in their own processes for
the other half, and prints the per-layer metrics of the fastest traced run
and ``trace.overhead_ratio``, traced over untraced ``batch_s``.  The last
traced run writes its spans to ``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (over all runs) and ``metrics``.  ``correct`` is false when an
op fails other than by a recorded known defect, an output check fails, or
the stdout digest differs between runs.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# metric names and units, in the order BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MIN_RUNS = 3
WORKER_TIMEOUT_S = 55
# stop starting runs after this long, so one invocation ends within 180 s
WALL_LIMIT_S = 110


class BenchError(Exception):
    pass


def run_worker(job: bytes, trace: bool, oracle: bool) -> dict:
    # default output format, and bytecode cached as for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("BALANCE_FORGE_FORMAT", "PYTHONDONTWRITEBYTECODE")}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(int(trace)), str(int(oracle))],
            input=job, capture_output=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr.decode(errors="replace")[-2000:])
    return json.loads(proc.stdout.decode().splitlines()[-1])


def measure(job: bytes, trace: bool, seconds: float, min_runs: int, started: float):
    """Runs one after another for ``seconds`` after the first, which alone
    also runs the slow oracle checks (untraced only)."""
    runs = [run_worker(job, trace, oracle=not trace)]
    deadline = time.monotonic() + seconds
    while len(runs) < min_runs or time.monotonic() < deadline:
        if time.monotonic() - started > WALL_LIMIT_S:
            break
        runs.append(run_worker(job, trace, oracle=False))
    return runs


def op_figures(runs) -> dict:
    """``batch_s``, ``op_p50_ms`` and ``op_tail_ms`` over each op's lowest
    latency across ``runs``.

    Every run repeats the same ops from the same cold start, so an op's
    latency differs between runs only by what the host adds.  On a shared
    host, load from other tenants only ever slows an op, and it comes and
    goes within seconds: whole runs differ by up to 2x.  An op's lowest
    latency repeats; a run's total does not.
    """
    best = sorted(min(op) for op in zip(*(r["latencies"] for r in runs)))
    rank = len(best) - 10  # the highest rank with ten ops beyond it
    return {
        "batch_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": best[rank - 1] * 1e3,
        "tail_percentile": 100 * rank / len(best),
    }


def machine() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    started = time.monotonic()
    ops = workloads.build(workload, seed)
    spans_path = HERE / "out" / f"spans-{workload}-{seed}.jsonl"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    job = pickle.dumps({"workload": workload, "ops": ops, "spans_path": str(spans_path)})
    if trace:
        plain = measure(job, False, seconds / 2, 1, started)
        traced = measure(job, True, seconds / 2, 1, started)
    else:
        plain = measure(job, False, seconds, MIN_RUNS, started)
        traced = []
    runs = plain + traced

    problems = sorted({p for r in runs for p in r["problems"]})
    defects = runs[0]["defects"]
    unexpected = sorted({t for r in runs for t in r["defects"] if t.startswith("unexpected")})
    digests = {r["stdout_sha256"] for r in runs}
    if len(digests) > 1:
        problems.append("stdout digest differs between runs")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    figures = op_figures(plain)
    if trace:
        values = dict(min(traced, key=lambda r: sum(r["latencies"]))["layers"])
        values["trace.overhead_ratio"] = op_figures(traced)["batch_s"] / figures["batch_s"]
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "batch_s": figures["batch_s"],
            "op_p50_ms": figures["op_p50_ms"],
            "op_tail_ms": figures["op_tail_ms"],
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "success_ratio": 1 - failed / attempted,
        }
        units = END_TO_END
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "ops_sha256": workloads.digest(ops),
        "runs": len(plain),
        "traced_runs": len(traced),
        "fail_ratio": failed / attempted,
        "tail": {"percentile": figures["tail_percentile"], "ops": len(ops), "ops_beyond": 10},
        "defects_per_run": defects,
        "problems": problems + unexpected,
        "stdout_sha256": sorted(digests),
        "per_run": [{"setup_s": r["setup_s"], "peak_rss_mib": r["peak_rss_mib"],
                     **op_figures([r])} for r in plain],
        "machine": machine(),
    }
    if trace:
        record["spans"] = str(spans_path.relative_to(ROOT))
    return {
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def report(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  ops {rec['ops']}  "
          f"runs {rec['runs']} untraced, {rec['traced_runs']} traced")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':38s} {rec['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops over all runs)")
    print(f"  op_tail_ms is the p{rec['tail']['percentile']:.4g} of {rec['tail']['ops']} ops")
    for tag, n in rec["defects_per_run"].items():
        print(f"  failed per run: {n} x {tag}")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or all")
    if not (SRC / "balance_forge" / "__init__.py").is_file():
        print(f"perfbench: no balance_forge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    results = {}
    try:
        for name in names:
            results[name] = bench(name, args.seed, args.seconds, bool(args.trace))
            report(results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
