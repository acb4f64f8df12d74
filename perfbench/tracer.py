"""Per-layer tracing for the traced benchmark run.

The tracer wraps the names that calling modules look up: a call from
``pellsolver.solutions`` to ``representatives`` resolves through
``pellsolver``'s module globals, so replacing ``pellsolver.representatives``
with a wrapper times exactly the calls that cross that boundary.  The
originals are put back by ``uninstall``.

Every wrapped call adds to a per-op record ``name -> [calls, busy_s,
self_s]``, where self time is busy time minus the time of wrapped calls
made inside it.  Calls made directly by an op (the top-level layer calls)
also leave a span ``(op, name, start, end)``; the many inner calls are kept
only as the per-op aggregates.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (module, global name) -> layer metric name of the wrapped callee
BOUNDARIES = (
    ("cli", "verify", "verifier"),
    ("cli", "verify_group", "verifier"),
    ("cli", "verify_all", "verifier"),
    ("cli", "solutions", "pellsolver.solutions"),
    ("cli", "term", "sequences.term"),
    ("verifier", "term", "sequences.term"),
    ("verifier", "term_binet", "sequences.term_binet"),
    ("verifier", "balancer", "sequences.balancer"),
    ("verifier", "solutions", "pellsolver.solutions"),
    ("verifier", "is_perfect_square", "quadarith.is_perfect_square"),
    ("sequences", "quad_pow", "quadarith.quad_pow"),
    ("sequences", "is_perfect_square", "quadarith.is_perfect_square"),
    ("pellsolver", "representatives", "pellsolver.representatives"),
    ("pellsolver", "orbit_matrix", "pellsolver.orbit_matrix"),
    ("pellsolver", "tau_rho_coords", "quadarith.tau_rho_coords"),
    ("pellsolver", "is_perfect_square", "quadarith.is_perfect_square"),
)

# entry points the benchmark calls itself: op function -> layer metric name
ENTRY_POINTS = {
    "cli": "cli",
    "term": "sequences.term",
    "term_binet": "sequences.term_binet",
    "is_member": "sequences.is_member",
    "balancer": "sequences.balancer",
}


class Tracer:
    def __init__(self):
        self.ops: list[dict[str, list]] = []
        self.spans: list[tuple[int, str, float, float]] = []
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.counts: Counter = Counter()  # counters fed by the observers
        self.max_index = 0
        self.rep_args: list[tuple] = []  # (form, m) of each representatives call
        self._stack: list[list[float]] = [[0.0]]
        self._op: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._observers = {
            "verifier": self._observe_reports,
            "sequences.term": self._observe_term,
            "sequences.is_member": self._observe_member,
            "pellsolver.representatives": self._observe_reps,
            "pellsolver.solutions": self._observe_solutions,
        }

    # -- observers: layer counts taken at the boundary -------------------------
    def _observe_reports(self, args, result):
        reports = result if isinstance(result, list) else [result]
        self.counts["verifier.reports"] += len(reports)
        self.counts["verifier.reports_failed"] += sum(not r.passed for r in reports)

    def _observe_term(self, args, result):
        self.max_index = max(self.max_index, args[1])

    def _observe_member(self, args, result):
        self.counts["sequences.is_member.hits"] += bool(result[0])

    def _observe_reps(self, args, result):
        self.counts["pellsolver.representatives.found"] += len(result)
        self.rep_args.append(args)

    def _observe_solutions(self, args, result):
        self.counts["pellsolver.emitted"] += len(result)

    # -- wrapping ----------------------------------------------------------------
    def wrap(self, name, fn):
        observe = self._observers.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                stack[-1][0] += busy
                rec = self._op.get(name)
                if rec is None:
                    rec = self._op[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy - frame[0]
                if len(stack) == 1:
                    self.spans.append((len(self.ops) - 1, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, modules):
        for module_name, attr, name in BOUNDARIES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def begin_op(self):
        self._op = {}
        self.ops.append(self._op)

    def totals(self) -> dict[str, list]:
        """``name -> [calls, busy_s, self_s]`` summed over all ops."""
        out: dict[str, list] = {}
        for op in self.ops:
            for name, (calls, busy, own) in op.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += own
        return out
