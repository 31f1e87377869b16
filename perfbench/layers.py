"""Instrumentation installed from outside the library, inside a job process.

`Tracer` records one span per call to each layer function listed in
`LAYER_FUNCTIONS`.  It wraps a function at every module global that is
bound to it, because callers look functions up by the name they imported
(`isoperimetry.phi` is the binding `verify_theorem` calls).  Spans stay in
memory; `Tracer.summary` turns them into per-layer self times.

`Counter` counts work exactly: group multiplications and sort keys (by
patching the group classes), metric queries and BFS builds, connected-sample
sizes, and subsets walked by the exhaustive enumerator.  It is installed in a
separate run because wrapping `mul` costs far more than the work it counts.
"""

from __future__ import annotations

import sys
import time

LAYER_FUNCTIONS = {
    "cli": (
        "isoplab.cli",
        ("main", "_cmd_growth", "_cmd_verify", "_cmd_profile", "_cmd_sharpness",
         "_cmd_accept", "_report_lines", "_emit", "_csv_lines"),
    ),
    "acceptance": (
        "isoplab.acceptance",
        ("run_acceptance", "_run_criteria", "acceptance_instances",
         "_criterion_lemma31", "_criterion_half_mass", "_criterion_transport",
         "_criterion_theorem_exhaustive", "_criterion_interval_sharpness",
         "_criterion_csc_boundary", "_criterion_oracles", "serialize_run"),
    ),
    "isoperimetry": (
        "isoplab.isoperimetry",
        ("outer_boundary", "inner_boundary_right", "inner_boundary_left",
         "translate", "smoothed_density", "lemma31_check", "half_mass_witness",
         "transport_map", "preimage_bound_check", "displacement_bound_check",
         "verify_theorem", "verify_csc", "boundary_comparison"),
    ),
    "metric": (
        "isoplab.metric",
        ("_grow", "ball", "growth", "phi", "minimal_d", "word_length",
         "geodesic_word", "distance", "enumerate_group"),
    ),
    "search": (
        "isoplab.search",
        ("default_uniform_radius", "_sample_uniform_in_ball", "_sample_connected",
         "exhaustive_profile", "sharpness_of_subsets", "interval_subsets"),
    ),
}

# cli spans whose self time is output rendering rather than argument parsing.
RENDER_FUNCTIONS = frozenset(LAYER_FUNCTIONS["cli"][1]) - {"main"}

CRITERIA = {
    "_criterion_lemma31": "c1",
    "_criterion_half_mass": "c2",
    "_criterion_transport": "c3",
    "_criterion_theorem_exhaustive": "c4",
    "_criterion_interval_sharpness": "c5",
    "_criterion_csc_boundary": "c6",
    "_criterion_oracles": "c7",
}

# Metric queries answered by a BFS from the identity, with the radius each
# answer needed.  `None` means the whole (finite) group.
METRIC_QUERIES = {
    ("isoplab.metric", "ball"): lambda args, result: args[1],
    ("isoplab.metric", "growth"): lambda args, result: args[1],
    ("isoplab.metric", "phi"): lambda args, result: result,
    ("isoplab.metric", "minimal_d"): lambda args, result: result[0],
    ("isoplab.metric", "word_length"): lambda args, result: result,
    ("isoplab.metric", "geodesic_word"): lambda args, result: len(result),
    ("isoplab.metric", "distance"): lambda args, result: result,
    ("isoplab.metric", "enumerate_group"): lambda args, result: None,
    ("isoplab.search", "default_uniform_radius"): lambda args, result: result,
}


def rebind(module_name: str, name: str, make_wrapper) -> None:
    """Replace `module_name.name` at every isoplab module global bound to it."""
    original = getattr(sys.modules[module_name], name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "isoplab" and not mod_name.startswith("isoplab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Spans (name, layer, start_ns, end_ns, parent index, raised) for one job."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            for name in names:
                rebind(module_name, name, lambda fn, n=name, l=layer: self._wrap(fn, n, l))

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, clock(), 0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def summary(self) -> dict:
        """Per-layer self time, per-function inclusive and self time,
        acceptance criteria of the first pass, and exceptions that left a
        layer."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self = {layer: 0.0 for layer in LAYER_FUNCTIONS}
        fn_total: dict[str, float] = {}
        fn_self: dict[str, float] = {}
        errors = {layer: 0 for layer in LAYER_FUNCTIONS}
        render = 0.0
        for i, (name, layer, start, end, parent, raised) in enumerate(spans):
            own = (end - start - child_ns[i]) / 1e9
            layer_self[layer] += own
            fn_total[name] = fn_total.get(name, 0.0) + (end - start) / 1e9
            fn_self[name] = fn_self.get(name, 0.0) + own
            if layer == "cli" and name in RENDER_FUNCTIONS:
                render += own
            if raised and (parent < 0 or spans[parent][1] != layer):
                errors[layer] += 1
        criteria = {key: 0.0 for key in CRITERIA.values()}
        passes = [i for i, s in enumerate(spans) if s[0] == "_run_criteria"]
        determinism = 0.0
        if passes:
            first = passes[0]
            for name, _, start, end, parent, _ in spans:
                if parent == first and name in CRITERIA:
                    criteria[CRITERIA[name]] += (end - start) / 1e9
            determinism = fn_total.get("run_acceptance", 0.0) - (
                spans[first][3] - spans[first][2]
            ) / 1e9
        return {
            "job_id": self.job_id,
            "spans": len(spans),
            "layer_self_s": layer_self,
            "fn_total_s": fn_total,
            "fn_self_s": fn_self,
            "render_s": render,
            "criteria_s": criteria,
            "determinism_s": determinism,
            "errors": errors,
        }


class Counter:
    """Exact work counts for one job."""

    def __init__(self):
        self.counts = {
            "mul_calls": 0,
            "sort_key_calls": 0,
            "group_errors": 0,
            "metric_calls": 0,
            "metric_redundant": 0,
            "metric_builds": 0,
            "ball_elements": 0,
            "sampled_elements": 0,
            "subsets_visited": 0,
            "profile_subsets_visited": 0,
            "profile_useful_subsets": 0,
        }
        self._metric_depth = 0
        self._built: dict = {}  # group key -> largest radius built, None = whole group
        self._wanted = None  # sizes requested by the running exhaustive_profile

    def install(self) -> None:
        from isoplab import groups

        for cls in vars(groups).values():
            if isinstance(cls, type) and issubclass(cls, groups.Group):
                if "mul" in vars(cls):
                    cls.mul = self._count_method(cls.mul, "mul_calls")
                if "sort_key" in vars(cls):
                    cls.sort_key = self._count_method(cls.sort_key, "sort_key_calls")
        for (module_name, name), needed in METRIC_QUERIES.items():
            rebind(module_name, name, lambda fn, needed=needed: self._metric_query(fn, needed))
        rebind("isoplab.metric", "_grow", self._grow)
        rebind("isoplab.search", "_sample_connected", self._sample_connected)
        rebind("isoplab.search", "gray_subset_steps", self._gray_subset_steps)
        rebind("isoplab.search", "exhaustive_profile", self._exhaustive_profile)

    def _count_method(self, fn, key: str):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            try:
                return fn(*args)
            except Exception:
                counts["group_errors"] += 1
                raise

        return counted

    def _metric_query(self, fn, needed):
        counts = self.counts

        def counted(group, *args, **kwargs):
            outermost = self._metric_depth == 0
            self._metric_depth += 1
            try:
                result = fn(group, *args, **kwargs)
            finally:
                self._metric_depth -= 1
                counts["metric_calls"] += outermost
            if outermost:
                self._note_query(group.key, needed((group,) + args, result))
            return result

        return counted

    def _note_query(self, key, radius) -> None:
        """Count the query as redundant if a ball built earlier in this job
        for the same group already answers it, then record what it built."""
        built = self._built
        if key in built and (built[key] is None or (radius is not None and radius <= built[key])):
            self.counts["metric_redundant"] += 1
        elif radius is None or key not in built:
            built[key] = radius
        else:
            built[key] = max(built[key], radius)

    def _grow(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["metric_builds"] += 1
            counts["ball_elements"] += len(result[2])
            return result

        return counted

    def _sample_connected(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["sampled_elements"] += len(result)
            return result

        return counted

    def _gray_subset_steps(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            visited = useful = 0
            wanted = self._wanted
            try:
                for step in fn(*args, **kwargs):
                    visited += 1
                    if wanted is not None and step[1] in wanted:
                        useful += 1
                    yield step
            finally:
                counts["subsets_visited"] += visited
                if wanted is not None:
                    counts["profile_subsets_visited"] += visited
                    counts["profile_useful_subsets"] += useful

        return counted

    def _exhaustive_profile(self, fn):
        def counted(group, sizes, *args, **kwargs):
            sizes = tuple(sizes)
            self._wanted = frozenset(sizes)
            try:
                return fn(group, sizes, *args, **kwargs)
            finally:
                self._wanted = None

        return counted
