"""Layer tracer, installed from outside the program.

The program has no tracing of its own, so this module wraps modalkit's
functions at run time.  Each wrapper records a span (name, start, end,
parent span, job) in memory; per-layer numbers are computed from the spans
when the traced pass ends.

A function is wrapped at every place its name is bound: modules that did
``from .x import name`` hold their own reference, and patching only the
defining module would charge those calls to the caller's layer.
:func:`install` therefore replaces every module attribute in the package
that is the original function object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute, layer).  "Class.method" wraps a method on the class.
# A name the program no longer has is skipped, and its layer reads 0.
TARGETS = [
    ("linalg", "svd_oracle", "linalg.svd"),
    ("linalg", "cholesky", "linalg.cholesky"),
    ("linalg", "solve_lower", "linalg.solve"),
    ("linalg", "solve_upper", "linalg.solve"),
    ("linalg", "chol_solve", "linalg.solve"),
    ("linalg", "thin_qr", "linalg.qr"),
    ("linalg", "ky_fan", "linalg.other"),
    ("probability", "load_joint_tsv", "probability.ingest"),
    ("probability", "joint_from_table", "probability.ingest"),
    ("cli", "_load_joint", "probability.ingest"),
    ("probability", "JointPmf.__post_init__", "probability.joint_build"),
    ("modal", "build_cdm", "modal.build_cdm"),
    ("modal", "build_quasi_cdm", "modal.build_cdm"),
    ("modal", "decompose", "modal.decompose"),
    ("modal", "maximal_correlation", "modal.other"),
    ("modal", "local_mi", "modal.other"),
    ("ace", "ace_discrete", "ace"),
    ("ace", "ace_gaussian", "ace"),
    ("ace", "orthogonal_iteration", "ace"),
    ("common_info", "eps_common_information", "common_info"),
    ("common_info", "build_common_config", "common_info"),
    ("gaussian", "load_gaussian_json", "gaussian.model"),
    ("gaussian", "GaussianJoint.__post_init__", "gaussian.model"),
    ("gaussian", "cca", "gaussian"),
    ("gaussian", "build_ccm", "gaussian"),
    ("gaussian", "rank_k_regression_kl", "gaussian"),
    ("gaussian", "rank_k_regression_mmse", "gaussian"),
    ("apps", "recommend", "apps.recommend"),
    ("apps", "softmax_divergence_gap", "apps.other"),
    ("experiments", "mc_sigma_tail", "experiments"),
    ("experiments", "mc_feature_quality", "experiments"),
    ("experiments", "mc_mi_error", "experiments"),
    ("local_geometry", "synth_weak_joint", "local_geometry.synth"),
    ("local_geometry", "random_orthonormal_features", "local_geometry.synth"),
    ("cli", "cli", "cli"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: int


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every target at every binding; returns the targets not found."""
        missing = []
        modules = [m for name, m in list(sys.modules.items()) if name == "modalkit" or name.startswith("modalkit.")]
        for mod_name, attr, layer in TARGETS:
            module = importlib.import_module(f"modalkit.{mod_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = inspect.getattr_static(owner, name, None) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if owner_name:  # a method: one binding, on the class
                self._patch(owner, name, self.wrap(original, layer))
                continue
            traced = self.wrap(original, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        return missing

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _count_svd(counts, args, out):
    rows, cols = np.shape(args[0])
    counts["linalg.svd_cells"] += rows * cols


def _count_rows(counts, args, out):
    if args and isinstance(args[0], (list, tuple)):
        counts["probability.ingest_rows"] += len(args[0])


def _count_ace(counts, args, out):
    trace = out[-1]
    counts["ace.runs"] += 1
    counts["ace.iterations"] += int(trace.iterations)
    counts["ace.converged"] += int(bool(trace.converged))


COUNTERS = {"linalg.svd": _count_svd, "probability.ingest": _count_rows, "ace": _count_ace}


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def consistency(spans: list[Span], start: float, end: float) -> dict:
    """Self times of all spans plus the gaps between root spans must add up
    to the traced wall time, and every span must nest: inside its parent and
    after its previous sibling (spans are recorded in start order)."""
    selfs = self_times(spans)
    last_end: dict[int, float] = {}
    nested = True
    for s in spans:
        if s.start < last_end.get(s.parent, start) or (s.parent >= 0 and s.end > spans[s.parent].end):
            nested = False
        last_end[s.parent] = s.end
    roots = sorted((s.start, s.end) for s in spans if s.parent < 0)
    gaps, cursor = 0.0, start
    for r_start, r_end in roots:
        gaps += r_start - cursor
        cursor = r_end
    gaps += end - cursor
    wall = end - start
    residual = sum(selfs) + gaps - wall
    ok = nested and abs(residual) <= 1e-9 * max(1, len(spans)) + 1e-6 * wall
    return {"ok": bool(ok), "residual_s": residual, "unattributed_s": gaps, "wall_s": wall}


def layer_metrics(tracer: Tracer, inputs: int, extra: dict) -> dict:
    """Per-layer metrics (ms are self time, summed over the traced pass)."""
    ms: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        ms[span.name] += own * 1000.0
        calls[span.name] += 1
    c = tracer.counts
    return {
        "linalg.svd_ms": ms["linalg.svd"],
        "linalg.svd_calls": calls["linalg.svd"],
        "linalg.svd_cells": c["linalg.svd_cells"],
        "linalg.svd_calls_per_input": calls["linalg.svd"] / max(1, inputs),
        "linalg.cholesky_ms": ms["linalg.cholesky"],
        "linalg.cholesky_calls": calls["linalg.cholesky"],
        "linalg.solve_ms": ms["linalg.solve"],
        "linalg.qr_ms": ms["linalg.qr"],
        "probability.ingest_ms": ms["probability.ingest"],
        "probability.ingest_rows": c["probability.ingest_rows"],
        "probability.joint_builds": calls["probability.joint_build"],
        "probability.joint_build_ms": ms["probability.joint_build"],
        "modal.build_cdm_ms": ms["modal.build_cdm"],
        "modal.decompose_self_ms": ms["modal.decompose"],
        "modal.decompose_calls": calls["modal.decompose"],
        "ace.self_ms": ms["ace"],
        "ace.iterations": c["ace.iterations"],
        "ace.converged_frac": c["ace.converged"] / c["ace.runs"] if c["ace.runs"] else 0.0,
        "common_info.self_ms": ms["common_info"],
        "apps.recommend_self_ms": ms["apps.recommend"],
        "apps.recommend_calls": calls["apps.recommend"],
        "gaussian.model_ms": ms["gaussian.model"],
        "gaussian.self_ms": ms["gaussian"],
        "experiments.self_ms": ms["experiments"],
        "experiments.trials": extra["trials"],
        "local_geometry.synth_ms": ms["local_geometry.synth"],
        "cli.self_ms": ms["cli"],
        "cli.emit_bytes": extra["emit_bytes"],
        "bench.trace_overhead_frac": extra["trace_overhead_frac"],
    }


UNITS = {"_ms": "ms", "_calls": "count", "_cells": "count", "_rows": "count", "_builds": "count",
         "_bytes": "bytes", "_frac": "ratio", "_input": "ratio", ".iterations": "count", ".trials": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
