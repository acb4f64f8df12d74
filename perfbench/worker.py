"""One run of one workload in a fresh process.

Usage (``run.py`` does this): ``python perfbench/worker.py <trace 0|1>
<oracle 0|1>`` with a pickled job ``{"workload", "ops", "spans_path"}`` on
stdin.  The process imports ``balance_forge`` from ``src/`` (timed as
set-up), runs every op once with its own caches starting cold, reads its
peak RSS, then checks every output and prints one JSON object with the
run's figures.  ``oracle`` adds the slow sympy cross-check; one run per
invocation is enough, because every run must print the same stdout.

Only ``os``, ``sys`` and ``time``, which the interpreter loads at start-up
anyway, are imported before the set-up timer, so the import of
``balance_forge`` pays for the standard modules it pulls in.
"""

import os
import sys
import time


def main() -> int:
    trace, oracle = sys.argv[1] == "1", sys.argv[2] == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import balance_forge.cli
    setup_s = time.perf_counter() - start

    import contextlib
    import hashlib
    import io
    import json
    import pickle
    import resource

    import checks
    from tracer import ENTRY_POINTS, Tracer

    bf = balance_forge
    job = pickle.load(sys.stdin.buffer)
    workload, ops = job["workload"], job["ops"]

    functions = {
        "cli": bf.cli.main,
        "term": bf.term,
        "term_binet": bf.term_binet,
        "is_member": bf.is_member,
        "balancer": bf.balancer,
    }
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"cli": bf.cli, "verifier": bf.verifier, "sequences": bf.sequences,
                        "pellsolver": bf.pellsolver})
        functions = {name: tracer.wrap(ENTRY_POINTS[name], fn) for name, fn in functions.items()}

    calls = []
    for kind, call, _meta in ops:
        if kind == "cli":
            calls.append((functions["cli"], (call,), True))
            continue
        fname, name, *rest = call
        key = bf.BalancerKind(name) if fname == "balancer" else bf.KIND_BY_NAME[name]
        calls.append((functions[fname], (key, *rest), False))

    outcomes = []
    for fn, args, is_cli in calls:
        out, err = io.StringIO(), io.StringIO()
        value = code = exc = None
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            if is_cli:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = fn(*args)
            else:
                value = fn(*args)
        except SystemExit as e:  # argparse exits on a usage error
            code = e.code
        except Exception as e:  # recorded and classified after the timed region
            exc = (type(e).__name__, str(e)[:300])
        t1 = time.perf_counter()
        outcomes.append({"start": t0, "latency": t1 - t0, "value": value, "code": code,
                         "exc": exc, "out": out.getvalue(), "err": err.getvalue()})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, outcomes, bf)
        write_spans(job["spans_path"], outcomes, tracer.spans)

    for op, outcome in zip(ops, outcomes):
        outcome["tag"] = checks.classify(workload, op, outcome, bf)
    problems = checks.check_workload(workload, ops, outcomes, bf, oracle)

    stdout_hash = hashlib.sha256()
    for outcome in outcomes:
        stdout_hash.update(outcome["out"].encode())
        stdout_hash.update(b"\0")
    tags = [o["tag"] for o in outcomes if o["tag"] is not None]
    print(json.dumps({
        "setup_s": setup_s,
        "latencies": [o["latency"] for o in outcomes],
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(outcomes),
        "failed": len(tags),
        "defects": {t: tags.count(t) for t in sorted(set(tags))},
        "problems": problems,
        "stdout_sha256": stdout_hash.hexdigest(),
        "layers": layers,
    }))
    return 0


def write_spans(path, outcomes, layer_spans):
    """One JSON line per span: each op, then the layer calls it made directly."""
    import json

    origin = outcomes[0]["start"]
    children = {}
    for op, name, t_start, t_end in layer_spans:
        children.setdefault(op, []).append((name, t_start, t_end))
    with open(path, "w") as fh:
        span_id = 0
        for index, outcome in enumerate(outcomes):
            op_id = span_id
            rows = [("op", outcome["start"], outcome["start"] + outcome["latency"], None)]
            rows += [(name, s, e, op_id) for name, s, e in children.get(index, ())]
            for name, t_start, t_end, parent in rows:
                fh.write(json.dumps({"id": span_id, "op": index, "name": name,
                                     "start_s": t_start - origin, "end_s": t_end - origin,
                                     "parent": parent}) + "\n")
                span_id += 1


def layer_metrics(tracer, outcomes, bf) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    # computed outside the timed region from the recorded arguments
    scan_bound = sum(int(bf.rep_bound(form, m)) + 1 for form, m in tracer.rep_args)
    found = counts["pellsolver.representatives.found"]
    members = calls("sequences.is_member")
    return {
        "cli.calls": calls("cli"),
        "cli.self_s": own("cli"),
        "cli.out_bytes": sum(len(o["out"].encode()) for o in outcomes),
        "verifier.calls": calls("verifier"),
        "verifier.busy_s": busy("verifier"),
        "verifier.self_s": own("verifier"),
        "verifier.reports": counts["verifier.reports"],
        "verifier.reports_failed": counts["verifier.reports_failed"],
        "sequences.term.calls": calls("sequences.term"),
        "sequences.term.busy_s": busy("sequences.term"),
        "sequences.term.max_index": tracer.max_index,
        "sequences.self_s": sum(rec[2] for name, rec in totals.items()
                                if name.startswith("sequences.")),
        "sequences.term_binet.calls": calls("sequences.term_binet"),
        "sequences.term_binet.busy_s": busy("sequences.term_binet"),
        "quadarith.quad_pow.calls": calls("quadarith.quad_pow"),
        "quadarith.quad_pow.busy_s": busy("quadarith.quad_pow"),
        "sequences.is_member.calls": members,
        "sequences.is_member.busy_s": busy("sequences.is_member"),
        "sequences.is_member.hit_ratio":
            counts["sequences.is_member.hits"] / members if members else 0.0,
        "sequences.balancer.calls": calls("sequences.balancer"),
        "sequences.balancer.busy_s": busy("sequences.balancer"),
        "quadarith.is_perfect_square.calls": calls("quadarith.is_perfect_square"),
        "quadarith.is_perfect_square.busy_s": busy("quadarith.is_perfect_square"),
        "pellsolver.solutions.calls": calls("pellsolver.solutions"),
        "pellsolver.solutions.busy_s": busy("pellsolver.solutions"),
        "pellsolver.representatives.calls": calls("pellsolver.representatives"),
        "pellsolver.representatives.busy_s": busy("pellsolver.representatives"),
        "pellsolver.representatives.found": found,
        "pellsolver.scan_bound": scan_bound,
        "pellsolver.reps_per_bound": found / scan_bound if scan_bound else 0.0,
        "pellsolver.refused": tracer.errors[("pellsolver.solutions", "ValueError")],
        "pellsolver.orbit_matrix.busy_s": busy("pellsolver.orbit_matrix"),
        # the orbit sweep is what solutions does outside the wrapped callees
        "pellsolver.sweep_s": own("pellsolver.solutions"),
        "pellsolver.emitted": counts["pellsolver.emitted"],
        "quadarith.tau_rho_coords.calls": calls("quadarith.tau_rho_coords"),
        "quadarith.tau_rho_coords.busy_s": busy("quadarith.tau_rho_coords"),
    }


if __name__ == "__main__":
    sys.exit(main())
