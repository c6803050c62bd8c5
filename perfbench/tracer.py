"""Spans and counts at the layer boundaries of ``lyub``, recorded from
outside the program.

``Tracer.install`` replaces each function named in ``SPANS`` by a wrapper
at every ``lyub`` module attribute bound to it (``rank`` is bound in both
``linalg`` and ``cohomology``, ``build_hypercube`` in ``hypercube``,
``invariants`` and ``cli``), so a call is traced whichever module its
caller resolves it through.  ``uninstall`` puts the originals back.
Spans stay in memory until ``write``.  A function the program no longer
has is listed in ``missing`` and its metrics read 0, and a count that can
no longer be read off a result is tallied in ``observer_errors``; either
way the jobs still run.
"""

import functools
import gzip
import itertools
import json
import sys
import time
from contextlib import contextmanager

INVARIANTS = (
    "lyubeznik_table",
    "bass_table",
    "dual_bass_table",
    "small_support",
    "injective_dimensions",
    "nonzero_cohomology_degrees",
    "routes_agree",
    "terai_mustata_consistent",
    "betti_matches_hypercube",
)
COMBINATORICS = (
    "alexander_dual",
    "stanley_reisner",
    "restriction",
    "link",
    "minimalize",
    "intersect_face_ideals",
)
ASSEMBLE = (
    "restricted_complex",
    "main_complex",
    "dual_complex",
    "matlis_dual",
    "face_restricted_hypercube",
)
# module -> traced functions.  ``tables`` and ``errors`` hold data only.
# ``cli.render_report`` is left out: the ``--json`` path never calls it, and
# JSON rendering is part of ``cli.main``'s self time instead.
SPANS = {
    "combinatorics": COMBINATORICS,
    "cohomology": ("coboundary_matrix", "face_projection", "reduced_cohomology_dims_all"),
    "linalg": ("rank", "rref", "homology_space", "homology_dims"),
    "hypercube": ("build_hypercube",) + ASSEMBLE,
    "resolution": ("taylor_complex", "minimize", "minimal_resolution", "strand_frame"),
    "invariants": INVARIANTS,
    "cli": ("main", "parse_input", "run"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)


def _cells(cx) -> int:
    return sum(len(t) for t in cx.degrees)


def _entries(stat, args, result):
    mat = args[0]
    stat["entries"] += mat.rows * mat.cols
    stat["max_entries"] = max(stat["max_entries"], mat.rows * mat.cols)


def _result_entries(stat, args, result):
    stat["entries"] += result.rows * result.cols


def _first_seen(stat, result) -> bool:
    """True the first time an object is returned: a cache miss.  The
    objects are kept so their ids cannot be reused."""
    seen = stat.setdefault("_seen", {})
    if id(result) in seen:
        return False
    seen[id(result)] = result
    stat["cache_misses"] += 1
    return True


def _cube(stat, args, cube):
    if _first_seen(stat, cube):
        stat["vertices_visited"] += (1 << cube.n) - 1
        stat["vertices_nonzero"] += len(cube.nonzero_vertices())
        stat["edge_maps"] += len(cube.edge_mats)


def _assembled(stat, args, result):
    stat["dim_total"] += sum(result.dims)


def _taylor(stat, args, result):
    stat["cells"] += _cells(result)


def _minimize(stat, args, result):
    stat["cells_in"] += _cells(args[0])
    stat["cells_out"] += _cells(result)


def _resolution(stat, args, result):
    _first_seen(stat, result)


OBSERVERS = {
    "hypercube.build_hypercube": _cube,
    "linalg.rank": _entries,
    "linalg.rref": _entries,
    "cohomology.coboundary_matrix": _result_entries,
    "resolution.taylor_complex": _taylor,
    "resolution.minimize": _minimize,
    "resolution.minimal_resolution": _resolution,
    # the other assemblies delegate to this one, so dimensions count once
    "hypercube.restricted_complex": _assembled,
}
COUNTS = (
    "calls", "cache_misses", "vertices_visited", "vertices_nonzero", "edge_maps",
    "entries", "max_entries", "dim_total", "cells", "cells_in", "cells_out", "observer_errors",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, job)
        self.stats = {name: dict.fromkeys(COUNTS, 0) | {"self_s": 0.0} for name in SPAN_NAMES}
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._job = None
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lyub" or name.startswith("lyub.")]
        try:
            for mod, fns in SPANS.items():
                home = sys.modules.get(f"lyub.{mod}")
                for fn in fns:
                    original = getattr(home, fn, None)
                    if not callable(original):
                        self.missing.append(f"{mod}.{fn}")
                        continue
                    wrapper = self._wrap(f"{mod}.{fn}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, original))
                                setattr(m, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        observe = OBSERVERS.get(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                stat["calls"] += 1
                stat["self_s"] += end - start - frame[1]
                spans.append((frame[0], parent, name, start, end, self._job))
            if observe is not None:
                try:
                    observe(stat, args, result)
                except (AttributeError, IndexError, TypeError):
                    stat["observer_errors"] += 1
            return result

        return traced

    @contextmanager
    def job(self, index: int):
        """Root span of one job; every span inside carries its index."""
        self._job = index
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], None, "job", start, end, index))
            self._job = None

    # -- output ---------------------------------------------------------

    def counts(self) -> dict:
        """Per span name: calls, self seconds and the observed counts."""
        return {
            name: {k: v for k, v in stat.items() if not k.startswith("_")}
            for name, stat in self.stats.items()
        }

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            head = {"run_id": self.run_id, "span": ["id", "parent", "name", "start", "end", "job"]}
            fh.write(json.dumps(head | header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics ------------------------------------------------------

_UNITS = {"self_s": "s", "kept_ratio": "ratio"}


def _group(prefix, names, keys):
    return [(f"{prefix}.{k}", _UNITS.get(k, "count"), names, k) for k in keys]


# (metric, unit, span names summed over, stat key)
LAYER_METRICS = (
    _group("hypercube.build_hypercube", ["hypercube.build_hypercube"],
           ("calls", "self_s", "cache_misses", "vertices_visited", "vertices_nonzero", "edge_maps"))
    + _group("hypercube.assemble", [f"hypercube.{fn}" for fn in ASSEMBLE], ("calls", "self_s", "dim_total"))
    + _group("linalg.rank", ["linalg.rank"], ("calls", "self_s", "entries", "max_entries"))
    + _group("linalg.rref", ["linalg.rref"], ("calls", "self_s", "entries"))
    + _group("linalg.homology_space", ["linalg.homology_space"], ("calls", "self_s"))
    + _group("linalg.homology_dims", ["linalg.homology_dims"], ("calls", "self_s"))
    + _group("cohomology.coboundary_matrix", ["cohomology.coboundary_matrix"], ("calls", "self_s", "entries"))
    + _group("cohomology.face_projection", ["cohomology.face_projection"], ("calls", "self_s"))
    + _group("cohomology.reduced_cohomology_dims_all", ["cohomology.reduced_cohomology_dims_all"],
             ("calls", "self_s"))
    + _group("resolution.taylor_complex", ["resolution.taylor_complex"], ("calls", "self_s", "cells"))
    + _group("resolution.minimize", ["resolution.minimize"],
             ("calls", "self_s", "cells_in", "cells_out", "kept_ratio"))
    + _group("resolution.minimal_resolution", ["resolution.minimal_resolution"], ("calls", "cache_misses"))
    + _group("resolution.strand_frame", ["resolution.strand_frame"], ("calls", "self_s"))
    + _group("combinatorics", [f"combinatorics.{fn}" for fn in COMBINATORICS], ("calls", "self_s"))
    + [m for fn in INVARIANTS for m in _group(f"invariants.{fn}", [f"invariants.{fn}"], ("calls", "self_s"))]
    + _group("cli.parse_input", ["cli.parse_input"], ("self_s",))
    + _group("cli.run", ["cli.run"], ("self_s",))
    + _group("cli.main", ["cli.main"], ("self_s",))
)
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def layer_metrics(counts: dict) -> dict:
    """Per-layer metric name -> (value, unit) from the span counts."""
    out = {}
    for metric, unit, names, key in LAYER_METRICS:
        stats = [counts[n] for n in names]
        if key == "kept_ratio":
            cells_in = sum(s["cells_in"] for s in stats)
            value = sum(s["cells_out"] for s in stats) / cells_in if cells_in else 0.0
        elif key == "max_entries":
            value = max(s[key] for s in stats)
        else:
            value = sum(s[key] for s in stats)
        out[metric] = (value, unit)
    return out
