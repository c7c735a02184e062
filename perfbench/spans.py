"""Spans around calls into coulomb_lab's public functions.

`install` wraps the functions listed in `_targets` wherever the package
holds a reference to them, so a span is recorded whichever module makes
the call.  Spans stay in memory (`Tracer.spans`) until the experiment
ends; `layer_metrics` turns one experiment's spans into the per-layer
metrics.  Nothing here is imported by the package itself.
"""

import functools
import resource
import sys
import time
import weakref

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.triangles": "count",
    "fields.sample_s": "s",
    "fields.samples": "count",
    "sphere.region_s": "s",
    "pde.assemble_s": "s",
    "pde.first_solve_s": "s",
    "pde.first_solve_peak_mb": "MB",
    "pde.solve_s": "s",
    "pde.solves": "count",
    "divform.admissible_s": "s",
    "divform.averaged_omega_s": "s",
    "divform.kernel_evals": "count",
    "divform.kernel_evals_per_s": "1/s",
    "frames.continuation_self_s": "s",
    "frames.steps": "count",
    "frames.residuals_s": "s",
    "frames.step_accept_ratio": "ratio",
    "preimage.holography_s": "s",
    "preimage.coarea_self_s": "s",
    "preimage.census_s": "s",
    "preimage.kernel_integral_s": "s",
    "preimage.targets": "count",
    "preimage.hits": "count",
    "preimage.hit_ratio": "ratio",
    "preimage.accept_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records one span per wrapped call.

    A span is a dict with its name, the index of the span open when it
    started (its parent, or None), its start and end (perf_counter
    seconds), the process peak RSS in MB at both ends, and whatever
    counters the wrapped function's `counters` hook returns.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else None,
                    "peak0_mb": _peak_mb()}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["peak1_mb"] = _peak_mb()
                self._open.pop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result

        return traced


def _first_per_mesh(position):
    """Counter hook flagging the first call on each mesh object."""
    seen = weakref.WeakSet()

    def counters(args, kwargs, result):
        mesh = kwargs["mesh"] if "mesh" in kwargs else args[position]
        first = mesh not in seen
        seen.add(mesh)
        return {"first": first}

    return counters


def _kernel_evals(args, kwargs, result):
    fld = args[0]
    region = kwargs["region"] if "region" in kwargs else args[1]
    return {"kernel_evals":
            int(region.nodes.shape[0]) * fld.mesh.triangle_count}


def _result_counter(key, count):
    return lambda args, kwargs, result: {key: count(result)}


def _targets():
    """(module, attribute, span name, counter hook) for each wrapped call.

    A dotted attribute names a method of a class in that module.  The
    hooks are made afresh on each call, since some keep state.
    """
    return [
        ("mesh", "build_disc_mesh", "mesh.build",
         _result_counter("triangles", lambda r: r.triangle_count)),
        ("fields", "sample_field", "fields.sample", None),
        ("sphere", "sphere_quadrature", "sphere.region", None),
        ("sphere", "full_sphere", "sphere.region", None),
        ("sphere", "cap", "sphere.region", None),
        ("sphere", "complement_region", "sphere.region", None),
        ("sphere", "region_from_predicate", "sphere.region", None),
        ("pde", "stiffness_matrix", "pde.assemble", _first_per_mesh(0)),
        ("pde", "solve_poisson_dirichlet", "pde.solve", _first_per_mesh(1)),
        ("pde", "solve_gauge_neumann", "pde.solve", _first_per_mesh(1)),
        ("divform", "admissible_region", "divform.admissible", None),
        ("divform", "averaged_omega", "divform.averaged_omega",
         _kernel_evals),
        ("frames", "coulomb_continuation", "frames.continuation",
         _result_counter("steps", lambda r: len(r.log))),
        ("frames", "frame_residuals", "frames.residuals", None),
        ("preimage", "holography_identity", "preimage.holography", None),
        ("preimage", "coarea_check", "preimage.coarea",
         lambda a, k, r: {"targets": int(r.accepted.size),
                          "accepted": int(r.accepted.sum())}),
        ("preimage", "PreimageSolver.candidates", "preimage.candidates",
         _result_counter("candidates", lambda r: int(r.size))),
        ("preimage", "PreimageSolver.census", "preimage.census",
         _result_counter("hits", lambda r: r.card)),
        ("preimage", "PreimageSolver.kernel_integral",
         "preimage.kernel_integral", None),
        ("cli", "main", "cli", None),
    ]


def install(tracer):
    """Wrap every target wherever a loaded coulomb_lab module holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "coulomb_lab" or name.startswith("coulomb_lab.")]
    for module_name, attr, span_name, hook in _targets():
        owner = sys.modules[f"coulomb_lab.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method,
                    tracer.wrap(span_name, getattr(cls, method), hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(spans):
    """Per-layer metrics of one traced experiment (all but the overhead).

    A span's self time is its duration minus its children's durations;
    every time below sums self times, so nested layers are not counted
    twice.  `preimage.census_s` includes the candidate search, which the
    census calls.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]

    def picked(names, cond=lambda s: True):
        return [(s, t) for s, t in zip(spans, own)
                if s["name"] in names and cond(s)]

    def seconds(*names, cond=lambda s: True):
        return sum(t for _, t in picked(names, cond))

    def total(name, key):
        return sum(s.get(key, 0) for s, _ in picked((name,)))

    def ratio(num, den):
        return num / den if den else 0.0

    first = lambda s: s.get("first", False)  # noqa: E731
    later = lambda s: not s.get("first", False)  # noqa: E731
    continuations = {i for i, s in enumerate(spans)
                     if s["name"] == "frames.continuation"}
    # Each continuation samples the field once at lambda = 0 and once
    # per attempted step.
    attempts = sum(1 for s in spans if s["name"] == "fields.sample"
                   and s["parent"] in continuations) - len(continuations)
    steps = total("frames.continuation", "steps")
    averaged_s = seconds("divform.averaged_omega")
    evals = total("divform.averaged_omega", "kernel_evals")
    hits = total("preimage.census", "hits")
    return {
        "mesh.build_s": seconds("mesh.build"),
        "mesh.triangles": total("mesh.build", "triangles"),
        "fields.sample_s": seconds("fields.sample"),
        "fields.samples": len(picked(("fields.sample",))),
        "sphere.region_s": seconds("sphere.region"),
        "pde.assemble_s": seconds("pde.assemble", cond=first),
        "pde.first_solve_s": seconds("pde.solve", cond=first),
        "pde.first_solve_peak_mb": sum(
            s["peak1_mb"] - s["peak0_mb"]
            for s, _ in picked(("pde.solve",), first)),
        "pde.solve_s": seconds("pde.solve", cond=later),
        "pde.solves": len(picked(("pde.solve",), later)),
        "divform.admissible_s": seconds("divform.admissible"),
        "divform.averaged_omega_s": averaged_s,
        "divform.kernel_evals": evals,
        "divform.kernel_evals_per_s": ratio(evals, averaged_s),
        "frames.continuation_self_s": seconds("frames.continuation"),
        "frames.steps": steps,
        "frames.residuals_s": seconds("frames.residuals"),
        "frames.step_accept_ratio": ratio(steps, attempts),
        "preimage.holography_s": seconds("preimage.holography"),
        "preimage.coarea_self_s": seconds("preimage.coarea"),
        "preimage.census_s": seconds("preimage.census",
                                     "preimage.candidates"),
        "preimage.kernel_integral_s": seconds("preimage.kernel_integral"),
        "preimage.targets": len(picked(("preimage.census",))),
        "preimage.hits": hits,
        "preimage.hit_ratio": ratio(
            hits, total("preimage.candidates", "candidates")),
        "preimage.accept_ratio": ratio(
            total("preimage.coarea", "accepted"),
            total("preimage.coarea", "targets")),
        "cli.self_s": seconds("cli"),
    }
