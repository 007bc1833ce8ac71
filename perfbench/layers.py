"""Per-layer tracing installed from outside the package.

A traced pass replaces the public functions of each layer with timing
wrappers, on the name the caller looks up: `runner` imports
`process_frame`, `segment_reset`, `compose_candidate`, `fuse_candidates`
and `solve` by name, and `stream` imports `compose_candidate` and
`fuse_candidates`, so those module attributes are the ones wrapped.
Spans nest on one stack; a span's self time is its duration minus the
time its child spans cover.

A hook whose target no longer exists is skipped, and every metric that
needs it is reported as absent, so the traced run keeps working when a
later change renames or removes a function.
"""

import time
from importlib import import_module


def _count_edges(tracer, args, kwargs, result):
    tracer.add("oracle.edges", len(result))


def _count_candidates(tracer, args, kwargs, result):
    candidates = args[0] if args else kwargs["candidates"]
    tracer.add("posegraph.candidates", len(candidates))


def _count_context(tracer, args, kwargs, result):
    edges = args[2] if len(args) > 2 else kwargs.get("edges", ())
    if edges:
        tracer.add("stream.context_frames", 1)
        tracer.add("stream.context_edges", len(edges))


def _count_solve(tracer, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    tracer.add("refine.edges", len(problem.edges))
    tracer.add("refine.iterations", result.iterations)
    tracer.add("refine.converged", int(result.converged))


# (target "module:attr.path", span name, counter, timed); the counter is
# called as counter(tracer, args, kwargs, result) after the wrapped call
# returns.  Untimed hooks only count calls.
HOOKS = (
    ("relpose.oracle:SyntheticScene.emit_edges", "oracle.emit_edges", _count_edges, True),
    ("relpose.oracle:SyntheticScene.emit_token", "oracle.emit_token", None, True),
    ("relpose.oracle:SyntheticScene.__init__", "oracle.generate_scene", None, True),
    ("relpose.runner:compose_candidate", "posegraph.compose_candidate", None, True),
    ("relpose.stream:compose_candidate", "posegraph.compose_candidate", None, True),
    ("relpose.runner:fuse_candidates", "posegraph.fuse_candidates", _count_candidates, True),
    ("relpose.stream:fuse_candidates", "posegraph.fuse_candidates", _count_candidates, True),
    ("relpose.runner:process_frame", "stream.process_frame", _count_context, True),
    ("relpose.runner:segment_reset", "stream.segment_reset", None, True),
    ("relpose.stream:gate_score", "stream.gate_score", None, True),
    ("relpose.stream:admit_check", "stream.admit_check", None, True),
    ("relpose.stream:cull", "stream.cull", None, True),
    ("relpose.stream:write_event_log", "stream.write_event_log", None, True),
    ("relpose.geom:UnitQuaternion.__post_init__", "geom.quat_objects", None, False),
    ("relpose.runner:solve", "refine.solve", _count_solve, True),
    ("relpose.refine:_Workspace.objective_and_gradient", "refine.eval", None, True),
    ("relpose.runner:stream_scene", "runner.stream_scene", None, True),
    ("relpose.runner:offline_trajectory", "runner.offline_trajectory", None, True),
    ("relpose.runner:refine_trajectory", "runner.refine_trajectory", None, True),
    ("relpose.runner:robustness_run", "runner.robustness_run", None, True),
    ("relpose.runner:all_pair_edges", "runner.all_pair_edges", None, True),
    ("relpose.io:write_tum", "io.write_tum", None, True),
)

RUNNER_SPANS = ("runner.stream_scene", "runner.offline_trajectory",
                "runner.refine_trajectory", "runner.robustness_run",
                "runner.all_pair_edges")


def _resolve(target):
    module_name, path = target.split(":")
    owner = import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.counts = {}
        self.missing = []             # hook targets that do not exist
        self.broken = set()           # spans whose counter no longer fits
        self._stack = []
        self._installed = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self):
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.counts.clear()

    def _wrap(self, name, fn, counter, timed):
        stack = self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        if not timed:
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] = calls.get(name, 0) + 1
                total_ns[name] = total_ns.get(name, 0) + dt
                self_ns[name] = self_ns.get(name, 0) + dt - child
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.broken.add(name)     # the call's shape changed
            return result
        return traced

    def install(self):
        self.missing = []
        for target, name, counter, timed in HOOKS:
            try:
                owner, attr, fn = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(owner, attr, self._wrap(name, fn, counter, timed))
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def ms(self, name, kind="self"):
        table = self.self_ns if kind == "self" else self.total_ns
        return table.get(name, 0) / 1e6


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, events, overhead):
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    `events` are the stream events the pass returned through the public
    API; event counts come from them, not from a hook.  A metric whose
    hook target is missing, or whose counter no longer fits the call, is
    left out.
    """
    missing_spans = {name for target, name, _, _ in HOOKS
                     if target in tracer.missing} | tracer.broken
    calls, counts = tracer.calls, tracer.counts

    def c(name):
        return calls.get(name, 0)

    kinds = {}
    for ev in events:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    accepted, rejected = kinds.get("Accepted", 0), kinds.get("Rejected", 0)
    admitted = kinds.get("AdmittedToBank", 0)

    table = [
        ("oracle.emit_edges.calls", "count", ("oracle.emit_edges",),
         lambda: c("oracle.emit_edges")),
        ("oracle.edges", "count", ("oracle.emit_edges",),
         lambda: counts.get("oracle.edges", 0)),
        ("oracle.emit_edges.self_ms", "ms", ("oracle.emit_edges",),
         lambda: tracer.ms("oracle.emit_edges")),
        ("oracle.us_per_edge", "us", ("oracle.emit_edges",),
         lambda: _ratio(tracer.ms("oracle.emit_edges") * 1e3,
                        counts.get("oracle.edges", 0))),
        ("oracle.emit_token.self_ms", "ms", ("oracle.emit_token",),
         lambda: tracer.ms("oracle.emit_token")),
        ("oracle.generate_scene_ms", "ms", ("oracle.generate_scene",),
         lambda: tracer.ms("oracle.generate_scene", "total")),
        ("posegraph.compose_candidate.calls", "count",
         ("posegraph.compose_candidate",), lambda: c("posegraph.compose_candidate")),
        ("posegraph.compose_candidate.self_ms", "ms",
         ("posegraph.compose_candidate",),
         lambda: tracer.ms("posegraph.compose_candidate")),
        ("posegraph.fuse_candidates.calls", "count", ("posegraph.fuse_candidates",),
         lambda: c("posegraph.fuse_candidates")),
        ("posegraph.fuse_candidates.self_ms", "ms", ("posegraph.fuse_candidates",),
         lambda: tracer.ms("posegraph.fuse_candidates")),
        ("posegraph.candidates", "count", ("posegraph.fuse_candidates",),
         lambda: counts.get("posegraph.candidates", 0)),
        ("stream.process_frame.self_ms", "ms", ("stream.process_frame",),
         lambda: tracer.ms("stream.process_frame")),
        ("stream.gate_score.self_ms", "ms", ("stream.gate_score",),
         lambda: tracer.ms("stream.gate_score")),
        ("stream.admit_check.self_ms", "ms", ("stream.admit_check",),
         lambda: tracer.ms("stream.admit_check")),
        ("stream.cull.calls", "count", ("stream.cull",), lambda: c("stream.cull")),
        ("stream.cull.self_ms", "ms", ("stream.cull",),
         lambda: tracer.ms("stream.cull")),
        ("stream.segment_reset.calls", "count", ("stream.segment_reset",),
         lambda: c("stream.segment_reset")),
        ("stream.context_mean", "count", ("stream.process_frame",),
         lambda: _ratio(counts.get("stream.context_edges", 0),
                        counts.get("stream.context_frames", 0))),
        ("stream.accepted", "count", (), lambda: accepted),
        ("stream.rejected", "count", (), lambda: rejected),
        ("stream.admitted", "count", (), lambda: admitted),
        ("stream.evicted", "count", (), lambda: kinds.get("Evicted", 0)),
        ("stream.resets", "count", (), lambda: kinds.get("SegmentReset", 0)),
        ("stream.admit_ratio", "ratio", (), lambda: _ratio(admitted, accepted)),
        ("stream.reject_ratio", "ratio", ("stream.gate_score",),
         lambda: _ratio(rejected, c("stream.gate_score"))),
        ("stream.write_event_log_ms", "ms", ("stream.write_event_log",),
         lambda: tracer.ms("stream.write_event_log", "total")),
        ("geom.quat_objects", "count", ("geom.quat_objects",),
         lambda: c("geom.quat_objects")),
        ("refine.evals", "count", ("refine.eval",), lambda: c("refine.eval")),
        ("refine.eval_ms", "ms", ("refine.eval",),
         lambda: _ratio(tracer.ms("refine.eval", "total"), c("refine.eval"))),
        ("refine.solve.self_ms", "ms", ("refine.solve",),
         lambda: tracer.ms("refine.solve")),
        ("refine.iterations", "count", ("refine.solve",),
         lambda: counts.get("refine.iterations", 0)),
        ("refine.converged", "count", ("refine.solve",),
         lambda: counts.get("refine.converged", 0)),
        ("refine.edges", "count", ("refine.solve",),
         lambda: counts.get("refine.edges", 0)),
        ("runner.all_pair_edges_ms", "ms", ("runner.all_pair_edges",),
         lambda: tracer.ms("runner.all_pair_edges", "total")),
        ("runner.self_ms", "ms", RUNNER_SPANS,
         lambda: sum(tracer.ms(name) for name in RUNNER_SPANS)),
        ("io.write_tum_ms", "ms", ("io.write_tum",),
         lambda: tracer.ms("io.write_tum", "total")),
    ]
    out = {}
    for name, unit, needs, value in table:
        if missing_spans.intersection(needs):
            continue
        out[name] = (float(value()), unit)
    out["trace.overhead"] = (float(overhead), "ratio")
    return out

