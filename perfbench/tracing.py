"""Spans around the calls into each modeguide module, and the per-layer metrics.

The benchmark records spans from its own files: it replaces a function,
as the calling module binds it (``modeguide.solve.det_sign``,
``modeguide.fd_oracle.discretize``, the ``solve`` helpers that
``acceptance`` imports, ...), with a wrapper that records the span, and
puts the originals back afterwards.  Nothing under ``src/`` changes.  A
span is ``[name, start, end, parent, info]`` where ``name`` is
``<layer>.<function>`` and ``info`` holds a size the span's metrics need
(matrix dimension, CSR size, cache hit).  Spans stay in memory and are
written out when the run ends.

A layer's self time is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time

#: calling module -> names it binds whose calls get a span; the layer is the
#: module that defines the function
WRAPPED = {
    "modeguide.cli": [
        "find_eigenvalues", "find_near_threshold", "find_critical_widths", "refine_eigenvalue",
        "extract_tail", "window_integral", "oracle_eigenvalues", "refine_and_extrapolate",
        "cache_get", "cache_put",
    ],
    "modeguide.acceptance": [
        "find_eigenvalues", "find_near_threshold", "find_critical_widths", "refine_eigenvalue",
        "extract_tail", "window_integral", "extrapolate_truncation", "_assemble_at",
        "_polish_root", "_solve_at", "_threshold_resonance", "det_sign", "assemble_threshold",
        "oracle_eigenvalues", "critical_width_crossing", "cache_get", "cache_put",
    ],
    "modeguide.solve": [
        "_assemble_single_core", "_assemble_two_core", "assemble_threshold", "det_sign",
        "overlap_matrix", "window_profile_at_edge", "window_profile_eval", "window_profile_l2",
        "window_profile_scale_log", "axial_eval", "axial_l2", "_bisect_sign", "_bisect_sign_log",
    ],
    "modeguide.matching": [
        "overlap_matrix", "window_profile_at_edge", "window_profile_scale_log", "axial_logderiv",
    ],
    "modeguide.fd_oracle": ["discretize", "lowest_eigenvalues", "oracle_eigenvalues"],
}

ASSEMBLY = {"matching._assemble_single_core", "matching._assemble_two_core",
            "matching.assemble_threshold"}
DET = "matching.det_sign"
SCANS = {"solve.find_eigenvalues", "solve.find_near_threshold", "solve.find_critical_widths"}
REFINES = {"solve.refine_eigenvalue", "solve._polish_root"}
ROOTS = {"solve._bisect_sign", "solve._bisect_sign_log"}
CROSSING = "fd_oracle.critical_width_crossing"


def _det_dim(args, kwargs, result):
    return args[0].matrix.shape[0]


def _csr_size(args, kwargs, op):
    return (op.shape[0], op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


def _cache_hit(args, kwargs, result):
    return result is not None


INFO = {"det_sign": _det_dim, "discretize": _csr_size, "cache_get": _cache_hit}


class Tracer:
    """Span recorder; ``install`` wraps the functions, ``restore`` unwraps them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, info):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for modname, names in WRAPPED.items():
            module = importlib.import_module(modname)
            for attr in names:
                fn = getattr(module, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, INFO.get(attr)))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        """All spans as gzipped CSV: index, name, start, end, parent, info."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index,name,start,end,parent,info\n")
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                f.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},"
                        f"{'' if info is None else str(info).replace(',', ' ')}\n")


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one pass).

    Times are in seconds.  ``matching.lu_gflop`` is computed as the sum of
    2/3 dim^3 over determinant evaluations, ``fd_oracle.csr_mb_computed``
    is the size of the largest CSR operator from its array sizes, and
    ``solve.roots`` counts bisections that ended on a root.
    """
    part = spans[first:]
    child = [0.0] * len(part)
    for rec in part:
        if rec[3] >= first:
            child[rec[3] - first] += rec[2] - rec[1]
    self_by_layer: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for rec, c in zip(part, child):
        self_t = rec[2] - rec[1] - c
        layer = rec[0].split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_t
        self_by_name[rec[0]] = self_by_name.get(rec[0], 0.0) + self_t
        calls[rec[0]] = calls.get(rec[0], 0) + 1

    def inclusive(names) -> float:
        return sum((rec[2] - rec[1] for rec in part if rec[0] in names), 0.0)

    def crossing_ancestor(i: int) -> bool:
        while i >= first:
            if spans[i][0] == CROSSING:
                return True
            i = spans[i][3]
        return False

    dets = [rec[4] for rec in part if rec[0] == DET]
    det_calls = len(dets)
    det_self = self_by_name.get(DET, 0.0)
    lu_gflop = sum(2.0 / 3.0 * d ** 3 for d in dets) / 1e9
    roots = sum(calls.get(n, 0) for n in ROOTS)
    csr = [rec[4] for rec in part if rec[0] == "fd_oracle.discretize"]
    unknowns = sum(rows for rows, _ in csr)
    discretize_self = self_by_name.get("fd_oracle.discretize", 0.0)
    gets = [rec[4] for rec in part if rec[0] == "records.cache_get"]
    return {
        "matching.assemble_calls": sum(calls.get(n, 0) for n in ASSEMBLY),
        "matching.assemble_self_s": sum(self_by_name.get(n, 0.0) for n in ASSEMBLY),
        "matching.det_calls": det_calls,
        "matching.det_self_s": det_self,
        "matching.lu_gflop": lu_gflop,
        "matching.lu_gflops_rate": lu_gflop / det_self if det_self > 0 else 0.0,
        "modes.overlap_matrix_calls": calls.get("modes.overlap_matrix", 0),
        "modes.self_s": self_by_layer.get("modes", 0.0),
        "solve.roots": roots,
        "solve.det_per_root": det_calls / roots if roots else 0.0,
        "solve.self_s": self_by_layer.get("solve", 0.0),
        "solve.scan_s": inclusive(SCANS),
        "solve.refine_s": inclusive(REFINES),
        "acceptance.self_s": self_by_layer.get("acceptance", 0.0),
        "fd_oracle.discretize_calls": len(csr),
        "fd_oracle.discretize_self_s": discretize_self,
        "fd_oracle.unknowns": unknowns,
        "fd_oracle.unknowns_per_s": unknowns / discretize_self if discretize_self > 0 else 0.0,
        "fd_oracle.csr_mb_computed": max((size for _, size in csr), default=0) / 1e6,
        "fd_oracle.eigsolve_calls": calls.get("fd_oracle.lowest_eigenvalues", 0),
        "fd_oracle.eigsolve_self_s": self_by_name.get("fd_oracle.lowest_eigenvalues", 0.0),
        "fd_oracle.crossing_solves": sum(
            1 for i, rec in enumerate(part, start=first)
            if rec[0] == "fd_oracle.oracle_eigenvalues" and crossing_ancestor(rec[3])),
        "records.cache_hits": sum(1 for hit in gets if hit),
        "records.cache_misses": sum(1 for hit in gets if not hit),
        "records.self_s": self_by_layer.get("records", 0.0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }


#: per-layer metrics that count work; they must repeat exactly between runs
COUNTS = ("matching.assemble_calls", "matching.det_calls", "matching.lu_gflop",
          "modes.overlap_matrix_calls", "solve.roots", "fd_oracle.discretize_calls",
          "fd_oracle.unknowns", "fd_oracle.csr_mb_computed", "fd_oracle.eigsolve_calls",
          "fd_oracle.crossing_solves", "records.cache_hits", "records.cache_misses")

UNITS = {"_calls": "count", "_s": "s", "lu_gflop": "Gflop", "lu_gflops_rate": "Gflop/s",
         "roots": "count", "det_per_root": "ratio", "unknowns": "count",
         "unknowns_per_s": "1/s", "csr_mb_computed": "MB", "crossing_solves": "count",
         "cache_hits": "count", "cache_misses": "count"}


def unit(name: str) -> str:
    short = name.split(".", 1)[1]
    if short in UNITS:
        return UNITS[short]
    return next(u for suffix, u in UNITS.items() if short.endswith(suffix))
