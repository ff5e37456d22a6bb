"""Boundary spans around the public functions of each `ikcs` module.

Wrappers are patched into the modules that consume a function (for example
`ikcs.deg3.is_conversion_set`, so the deg3 solver's calls into percolation
are seen) and onto classes for methods (`PolymatroidInstance.rank`,
`GF2Ext.rank`).  The program's own code is never edited.  Each span keeps
its parent id and the instance it belongs to; spans stay in memory and are
written out once at the end.  Calls on the hottest boundary (the subset
scan's `run_bits`) are aggregated into their parent span instead of getting
one span each.
"""
from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("cli", "graph", "percolation", "exact", "deg3", "polymatroid", "gf2", "torus")


def _n_of_graph(args, kwargs):
    return {"percolation.vertices": args[0].n}


def _run_bits(args, kwargs):
    return {"percolation.vertices": len(args[0])}


def _cographic(args, kwargs):
    return {"deg3.lines": args[0].n}


def _nu(args, kwargs):
    trials = kwargs.get("trials", args[2] if len(args) > 2 else 3)
    return {"polymatroid.nu_trials": trials}


def _ext_rank(args, kwargs):
    fld, mat = args[0], args[1]
    shape = getattr(mat, "shape", None)
    if shape is not None:
        cells = int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
    else:
        cells = len(mat) * (len(mat[0]) if len(mat) else 0)
    return {"gf2.ext_rank_cells": cells, "gf2.wide_rank_calls": int(fld.w > 16)}


def _torus(args, kwargs):
    return {"torus.cells": args[0] * args[1]}


def boundaries():
    """(owner, attribute, span name, counter function, hot) per boundary."""
    import ikcs.cli
    import ikcs.deg3
    import ikcs.exact
    import ikcs.polymatroid
    import ikcs.torus
    from ikcs.gf2 import GF2Ext
    from ikcs.graph import Graph
    from ikcs.polymatroid import PolymatroidInstance

    cli, deg3, exact, poly, torus = (
        ikcs.cli, ikcs.deg3, ikcs.exact, ikcs.polymatroid, ikcs.torus
    )
    return [
        (cli, "parse_edge_list", "graph.parse", None, False),
        (cli, "min_i2cs_maxdeg3", "deg3.solve", None, False),
        (cli, "min_conversion_set", "exact.search", None, False),
        (cli, "construct_3cs", "torus.construct", _torus, False),
        (cli, "render_cells", "torus.render", None, False),
        (cli, "is_conversion_set", "percolation.is_conversion_set", _n_of_graph, False),
        (deg3, "is_conversion_set", "percolation.is_conversion_set", _n_of_graph, False),
        (deg3, "attach_h5_to_leaves", "deg3.normalize", None, False),
        (deg3, "normalize_degree2", "deg3.normalize", None, False),
        (deg3, "cographic_lines", "deg3.cographic", _cographic, False),
        (deg3, "min_spanning_set", "polymatroid.spanning", None, False),
        (exact, "forced_vertices", "percolation.forced_vertices", None, False),
        (exact, "neighbor_masks", "percolation.neighbor_masks", None, False),
        (exact, "run_bits", "percolation.run_bits", _run_bits, True),
        (torus, "is_conversion_set", "percolation.torus_verify", _n_of_graph, False),
        (torus, "place", "torus.place", None, False),
        (torus, "tile", "torus.tile", None, False),
        (torus, "load_pattern", "torus.load_pattern", None, False),
        (poly, "max_matching", "polymatroid.matching", None, False),
        (poly, "nu_algebraic", "polymatroid.nu", _nu, False),
        (poly, "gf2_rank", "gf2.bit_rank", None, False),
        (PolymatroidInstance, "rank", "polymatroid.rank", None, False),
        (GF2Ext, "rank", "gf2.ext_rank", _ext_rank, False),
        (Graph, "__post_init__", "graph.build", None, False),
        (Graph, "fundamental_cycles", "graph.fundamental_cycles", None, False),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.instance = ""
        # open frames: [span id, time covered by children, hot aggregates]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, name: str, dur: float, self_dur: float, counts) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.time[name] = self.time.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + self_dur
        if counts:
            for key, val in counts.items():
                self.counters[key] = self.counters.get(key, 0) + val

    def wrap(self, name: str, fn, counter=None, hot: bool = False):
        stack = self._stack

        if hot:
            def hot_wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    self._add(name, dur, dur, counter(args, kwargs) if counter else None)
                    if stack:
                        frame = stack[-1]
                        frame[1] += dur
                        agg = frame[2].setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dur
            return hot_wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = len(self.spans)
            span = {"id": sid, "parent": parent, "name": name, "instance": self.instance}
            self.spans.append(span)
            frame = [sid, 0.0, {}]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                span["start"], span["end"] = t0, t1
                if frame[2]:
                    span["aggregated"] = frame[2]
                self._add(name, dur, dur - frame[1], counter(args, kwargs) if counter else None)
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter, hot in boundaries():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, counter, hot))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer work, busy time and self time, as (value, unit)."""
    t, c, k = tr.time, tr.calls, tr.counters

    def s(name):
        return t.get(name, 0.0)

    def n(name):
        return c.get(name, 0)

    perc = [name for name in c if name.startswith("percolation.")]
    components = n("deg3.cographic")
    out = {
        "graph.parse_s": (s("graph.parse"), "s"),
        "graph.builds": (n("graph.build"), "count"),
        "graph.build_s": (s("graph.build"), "s"),
        "graph.fundamental_cycles_s": (s("graph.fundamental_cycles"), "s"),
        "percolation.calls": (sum(c[name] for name in perc), "count"),
        "percolation.busy_s": (sum(t[name] for name in perc), "s"),
        "percolation.vertices": (k.get("percolation.vertices", 0), "count"),
        "exact.busy_s": (s("exact.search"), "s"),
        "exact.candidates": (n("percolation.run_bits"), "count"),
        "deg3.busy_s": (s("deg3.solve"), "s"),
        "deg3.normalize_s": (s("deg3.normalize"), "s"),
        "deg3.cographic_s": (s("deg3.cographic"), "s"),
        "deg3.lines": (k.get("deg3.lines", 0), "count"),
        "deg3.solve_attempts_per_component": (
            n("polymatroid.spanning") / components if components else 0.0, "ratio"
        ),
        "polymatroid.spanning_s": (s("polymatroid.spanning"), "s"),
        "polymatroid.matching_s": (s("polymatroid.matching"), "s"),
        "polymatroid.nu_calls": (n("polymatroid.nu"), "count"),
        "polymatroid.nu_trials": (k.get("polymatroid.nu_trials", 0), "count"),
        "polymatroid.nu_s": (s("polymatroid.nu"), "s"),
        "polymatroid.rank_calls": (n("polymatroid.rank"), "count"),
        "polymatroid.rank_s": (s("polymatroid.rank"), "s"),
        "gf2.ext_rank_calls": (n("gf2.ext_rank"), "count"),
        "gf2.ext_rank_s": (s("gf2.ext_rank"), "s"),
        "gf2.ext_rank_cells": (k.get("gf2.ext_rank_cells", 0), "count"),
        "gf2.wide_rank_calls": (k.get("gf2.wide_rank_calls", 0), "count"),
        "gf2.bit_rank_s": (s("gf2.bit_rank"), "s"),
        "torus.busy_s": (s("torus.construct"), "s"),
        "torus.place_calls": (n("torus.place"), "count"),
        "torus.place_s": (s("torus.place"), "s"),
        "torus.verify_s": (s("percolation.torus_verify"), "s"),
        "torus.cells": (k.get("torus.cells", 0), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.layer_self(layer), "s")
    return out
