"""Call wrappers around ttprep's public functions, for the traced run.

The wrappers are installed from outside the program, by replacing module
and class attributes after `ttprep.cli` is imported; the program itself is
not edited.  Each wrapped call updates per-name totals (calls, time, self
time) and, for `span` targets, appends a span (id, name, start, end,
parent id, job id) to an in-memory list that the child writes out when the
command ends.  `hot` targets (called tens of thousands of times per job)
keep the totals but record no spans.

Self time is a call's duration minus the time of the wrapped calls it made.
Extra counters are computed after the call and their cost is taken out of
the enclosing call's self time, so it lands in the `unattributed` remainder.

A target that no longer exists (a later change removed or renamed it) is
listed as absent and its metrics are left out; the traced run goes on.  So
are the extra counters of a target whose parameters or result changed.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPAN, HOT = "span", "hot"


def _axis_key(st, a, result):
    grid = a["grid"]
    st.setdefault("keys", set()).add(
        (a["gamma"], a["l"], a["a"], grid.L, grid.K, a["eps"]))


def _fit_nodes(st, a, result):
    st["nodes"] = st.get("nodes", 0) + int(a["m"])


def _interp_points(st, a, result):
    st["points"] = (st.get("points", 0)
                    + int(np.size(a["x"])) * len(a["self"].nodes))


def _dense_entries(st, a, result):
    st["entries"] = st.get("entries", 0) + int(np.size(np.asarray(a["v"])))


def _max_bond(cores) -> int:
    return max([c.shape[2] for c in cores[:-1]], default=1)


def _round_extra(st, a, result):
    st["max_bond_in"] = max(st.get("max_bond_in", 0), _max_bond(a["a"].cores))
    st["discarded_weight"] = (st.get("discarded_weight", 0.0)
                              + result.truncation_error ** 2)


def _redundant(st, a, result):
    cores = a["a"].cores
    done = a["a"].canonical_form == "left" or all(
        np.allclose(m.conj().T @ m, np.eye(m.shape[1]), atol=1e-10)
        for m in (c.reshape(-1, c.shape[2]) for c in cores[:-1]))
    st["redundant"] = st.get("redundant", 0) + int(done)


def _pairs(st, a, result):
    n = len(a["primitives"])
    st["pairs"] = st.get("pairs", 0) + n * (n - 1) // 2


def _mo_max_bond(st, a, result):
    st["max_bond"] = max(st.get("max_bond", 0), _max_bond(result.tt.cores))


def _truncate_extra(st, a, result):
    kept = result.raw_norm_sq / a["o"].raw_norm_sq
    st["discarded_weight"] = st.get("discarded_weight", 0.0) + (1.0 - kept)


@dataclass(frozen=True)
class Target:
    """A public callable to wrap; `name` is its metric prefix."""

    name: str
    module: str
    attr: str
    kind: str = SPAN
    extra: Callable | None = None


TARGETS = (
    Target("cli.load", "ttprep.cli", "load_config"),
    Target("cli.load", "ttprep.cli", "load_fixture"),
    Target("cli.run_pipeline", "ttprep.cli", "run_pipeline"),
    Target("gauss_pw.primitive_1d_mps", "ttprep.gauss_pw", "primitive_1d_mps",
           extra=_axis_key),
    # the pipeline's Chebyshev fit; the monomial chebyshev_fit() is unused
    Target("gauss_pw.chebyshev_fit", "ttprep.gauss_pw",
           "ChebyshevInterpolant.fit", extra=_fit_nodes),
    Target("gauss_pw.hermite_gaussian", "ttprep.gauss_pw", "hermite_gaussian",
           kind=HOT),
    Target("gauss_pw.interp_eval", "ttprep.gauss_pw",
           "ChebyshevInterpolant.__call__", extra=_interp_points),
    Target("gauss_pw.projection_normalization", "ttprep.gauss_pw",
           "projection_normalization"),
    Target("func_encode.dense_index", "ttprep.func_encode",
           "SignedGrid1D.dense_index", kind=HOT),
    Target("tt_core.inner_product", "ttprep.tt_core", "inner_product"),
    Target("tt_core.round", "ttprep.tt_core", "round", extra=_round_extra),
    Target("tt_core.left_canonicalize", "ttprep.tt_core", "left_canonicalize",
           extra=_redundant),
    Target("tt_core.from_dense", "ttprep.tt_core", "from_dense",
           extra=_dense_entries),
    # tt_core is the only caller of numpy's SVD in the program
    Target("tt_core.svd", "numpy.linalg", "svd", kind=HOT),
    Target("orbital_builder.overlap_matrix", "ttprep.orbital_builder",
           "overlap_matrix", extra=_pairs),
    Target("orbital_builder.build_mo_mps", "ttprep.orbital_builder",
           "build_mo_mps", extra=_mo_max_bond),
    Target("orbital_builder.truncate_mo", "ttprep.orbital_builder",
           "truncate_mo", extra=_truncate_extra),
    Target("resource_model.estimate_resources", "ttprep.resource_model",
           "estimate_resources"),
    Target("resource_model.toffoli_mps_prep", "ttprep.resource_model",
           "toffoli_mps_prep", kind=HOT),
)

# The click callback of each subcommand is the root span of a job.
COMMAND = "cli.command"

# name -> (unit, better): every per-layer metric of a traced run
PER_LAYER = {
    "gauss_pw.self_s": ("s", "lower"),
    "gauss_pw.primitive_1d_mps.calls": ("count", "lower"),
    "gauss_pw.primitive_1d_mps.time_s": ("s", "lower"),
    "gauss_pw.axis_train.unique_ratio": ("ratio", "higher"),
    "gauss_pw.chebyshev_fit.calls": ("count", "lower"),
    "gauss_pw.chebyshev_fit.time_s": ("s", "lower"),
    "gauss_pw.chebyshev_fit.nodes": ("count", "lower"),
    "gauss_pw.hermite_gaussian.calls": ("count", "lower"),
    "gauss_pw.interp_eval.time_s": ("s", "lower"),
    "gauss_pw.interp_eval.points": ("count", "lower"),
    "gauss_pw.projection_normalization.time_s": ("s", "lower"),
    "func_encode.self_s": ("s", "lower"),
    "func_encode.dense_index.calls": ("count", "lower"),
    "tt_core.self_s": ("s", "lower"),
    "tt_core.inner_product.calls": ("count", "lower"),
    "tt_core.inner_product.time_s": ("s", "lower"),
    "tt_core.round.calls": ("count", "lower"),
    "tt_core.round.time_s": ("s", "lower"),
    "tt_core.round.max_bond_in": ("count", "lower"),
    "tt_core.round.discarded_weight": ("1", "lower"),
    "tt_core.left_canonicalize.calls": ("count", "lower"),
    "tt_core.left_canonicalize.redundant": ("count", "lower"),
    "tt_core.svd.calls": ("count", "lower"),
    "tt_core.from_dense.calls": ("count", "lower"),
    "tt_core.from_dense.time_s": ("s", "lower"),
    "tt_core.from_dense.entries": ("count", "lower"),
    "tt_core.from_dense.computed_bytes": ("B", "lower"),
    "orbital_builder.self_s": ("s", "lower"),
    "orbital_builder.overlap_matrix.time_s": ("s", "lower"),
    "orbital_builder.overlap_matrix.pairs": ("count", "lower"),
    "orbital_builder.build_mo_mps.calls": ("count", "lower"),
    "orbital_builder.build_mo_mps.time_s": ("s", "lower"),
    "orbital_builder.build_mo_mps.max_bond": ("count", "lower"),
    "orbital_builder.truncate_mo.time_s": ("s", "lower"),
    "orbital_builder.truncate_mo.discarded_weight": ("1", "lower"),
    "resource_model.self_s": ("s", "lower"),
    "resource_model.estimate_resources.time_s": ("s", "lower"),
    "resource_model.toffoli_mps_prep.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.run_pipeline.calls": ("count", "lower"),
    "cli.run_pipeline.time_s": ("s", "lower"),
    "cli.load.time_s": ("s", "lower"),
    "cli.self_time_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.job_s.p50": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Installs the wrappers in this process and collects their records."""

    def __init__(self, job_id: str, targets=TARGETS):
        self.job_id = job_id
        self.targets = targets
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._frames: list[list] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        for t in self.targets:
            try:
                owner, attr = _resolve(t.module, t.attr)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(t.name)
                continue
            self.stats.setdefault(t.name, {"calls": 0, "time_s": 0.0,
                                           "self_s": 0.0})
            self._patch(owner, attr, _rewrap(raw, lambda fn, t=t: self._wrap(
                t.name, fn, t.kind, t.extra)))
        try:
            commands = importlib.import_module("ttprep.cli").main.commands
        except (ImportError, AttributeError):
            self.absent.append(COMMAND)
            return
        self.stats.setdefault(COMMAND, {"calls": 0, "time_s": 0.0,
                                        "self_s": 0.0})
        for cmd in commands.values():
            self._patch(cmd, "callback", self._wrap(COMMAND, cmd.callback))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, kind: str = SPAN, extra=None):
        st = self.stats[name]
        frames, spans, clock = self._frames, self.spans, time.perf_counter
        sig = inspect.signature(fn) if extra is not None else None

        def wrapper(*args, **kwargs):
            parent = frames[-1] if frames else None
            if kind == SPAN:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[1] if parent else None
            frame = [0.0, sid]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                st["calls"] += 1
                st["time_s"] += dur
                st["self_s"] += dur - frame[0]
                if kind == SPAN:
                    spans.append((sid, name, start, end,
                                  parent[1] if parent else None, self.job_id))
                if parent is not None:
                    parent[0] += dur
            if extra is not None:
                hook = clock()
                try:
                    extra(st, sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError):
                    # the signature or result changed: drop the counters
                    self.broken.add(name)
                if parent is not None:
                    parent[0] += clock() - hook
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self) -> dict:
        """JSON-ready totals, spans and absent targets of this process."""
        stats = {}
        for name, st in self.stats.items():
            st = dict(st)
            if "keys" in st:
                st["unique"] = len(st.pop("keys"))
            stats[name] = st
        absent = self.absent + [f"{name} counters" for name in
                                sorted(self.broken)]
        for name in self.broken:
            stats[name] = {k: stats[name][k]
                           for k in ("calls", "time_s", "self_s")}
        return {"stats": stats, "spans": self.spans, "absent": absent}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _rewrap(raw, wrap):
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    return wrap(raw)


def _sum_stats(records) -> dict:
    total: dict[str, dict] = {}
    for rec in records:
        for name, st in rec["stats"].items():
            acc = total.setdefault(name, {})
            for key, val in st.items():
                if key in ("max_bond_in", "max_bond"):
                    acc[key] = max(acc.get(key, 0), val)
                else:
                    acc[key] = acc.get(key, 0) + val
    return total


def layer_metrics(records, job_s) -> dict:
    """Per-layer metrics of one pass over a workload's jobs.

    records are the trace records of the traced jobs, job_s their traced
    job times.  Layer self times plus `unattributed_s` add up to the summed
    job time.  Metrics whose target is absent are left out.
    """
    st = _sum_stats(records)
    out = {}
    for name, s in st.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.time_s"] = s["time_s"]
        for key in ("nodes", "points", "entries", "max_bond_in", "redundant",
                    "discarded_weight", "pairs", "max_bond"):
            if key in s:
                out[f"{name}.{key}"] = s[key]
    prim = st.get("gauss_pw.primitive_1d_mps", {})
    if "unique" in prim and prim["calls"]:
        out["gauss_pw.axis_train.unique_ratio"] = prim["unique"] / prim["calls"]
    if "entries" in st.get("tt_core.from_dense", {}):
        out["tt_core.from_dense.computed_bytes"] = \
            16 * st["tt_core.from_dense"]["entries"]
    total = sum(job_s)
    self_s: dict[str, float] = {}
    for name, s in st.items():
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + s["self_s"]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["unattributed_s"] = total - sum(self_s.values())
    if "cli.run_pipeline" in st and "cli.load" in st:
        out["cli.self_time_s"] = (total - st["cli.run_pipeline"]["time_s"]
                                  - st["cli.load"]["time_s"])
    return {k: v for k, v in out.items() if k in PER_LAYER}


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; a metric must be in every pass."""
    names = set.intersection(*(set(p) for p in per_pass)) if per_pass else ()
    return {n: statistics.median(p[n] for p in per_pass) for n in sorted(names)}
