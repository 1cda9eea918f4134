"""Spans around the calls solvers make into each layer, from outside the program.

Tracer.installed() rebinds the module attributes that symtensor.solvers
calls through, records one span per call (name, start, end, parent span and
the solver run it belongs to) in memory, and restores the originals on
exit. Attributes a later version of the program no longer has are skipped;
their layers then read 0.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time

# (module, attribute, span name). Layer names used in the per-layer metrics.
TARGETS = (
    ("numpy.linalg", "lstsq", "lstsq"),
    ("symtensor._kernels", "coordinate_sweep", "sweep"),
    ("symtensor.solvers", "residual_sq", "residual"),
    ("symtensor.solvers", "khatri_rao", "khatri_rao"),
    ("symtensor.solvers", "qr_orthogonal_factor", "qr"),
    ("symtensor.solvers", "symmetric_psd_factor", "psd_factor"),
    ("symtensor.solvers", "symmetry_check", "symmetry_check"),
    ("symtensor.solvers", "mode_n_matricize", "matricize"),
    ("symtensor.solvers", "square_matricize", "matricize"),
)
# Layers called during iterations. The others (symmetry_check, psd_factor,
# matricize) run only before the first iteration, inside solver_setup_ms.
LOOP_LAYERS = ("lstsq", "sweep", "residual", "khatri_rao", "qr")


def _lstsq_info(args, out):
    m, rhs = args[0], args[1]
    return {"rhs": 1 if rhs.ndim == 1 else int(rhs.shape[1]), "deficient": int(out[2] < m.shape[1])}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, run, name, start, end, info)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.run: int | None = None
        self.origin = time.perf_counter()

    def _wrap(self, name, fn, info=None):
        clock, spans, stack, ids = time.perf_counter, self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                extra = info(args, out) if info is not None and out is not None else None
                spans.append((sid, parent, self.run, name, t0, t1, extra))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, _lstsq_info if name == "lstsq" else None))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def call(self, run: int, name: str, fn, *args):
        """Run one solver call as the top span of solver run ``run``."""
        self.run = run
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self.run = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, run, name, t0, t1, info in self.spans:
                rec = {
                    "id": sid, "parent": parent, "run": run, "name": name,
                    "start": t0 - self.origin, "end": t1 - self.origin,
                }
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer figures of both solver families from their traced runs.

    ``runs`` hold run id, family, iterations, elapsed_sum (the trace's summed
    per-iteration seconds), seconds (the call's wall time) and the trace's
    rank_deficient count and stop reason. Returns (metrics, problems).
    """
    out: dict[str, float] = {}
    problems = []
    for family in ("pcls", "als"):
        fam = [r for r in runs if r["family"] == family]
        ids = {r["run"] for r in fam}
        iters = sum(r["iterations"] for r in fam)
        top = {s[0] for s in tracer.spans if s[2] in ids and s[1] is None}
        busy = {name: 0.0 for name in LOOP_LAYERS}
        calls = {name: 0 for name in LOOP_LAYERS}
        rhs = 0
        for sid, parent, run, name, t0, t1, info in tracer.spans:
            if parent in top and name in busy:
                busy[name] += t1 - t0
                calls[name] += 1
                if info:
                    rhs += info["rhs"]
        traced_ms = 1e3 * sum(r["elapsed_sum"] for r in fam) / iters
        per_iter = {name: 1e3 * busy[name] / iters for name in LOOP_LAYERS}
        self_ms = traced_ms - sum(per_iter.values())
        if self_ms < -0.01 * traced_ms:
            problems.append(
                f"{family}: wrapped calls take {traced_ms - self_ms:.4f} ms per iteration, "
                f"more than the traced iteration time {traced_ms:.4f} ms"
            )
        p = family + "."
        if family == "pcls":
            out[p + "sweep_ms_per_iter"] = per_iter["sweep"]
            out[p + "sweep_calls_per_iter"] = calls["sweep"] / iters
            out[p + "qr_ms_per_iter"] = per_iter["qr"]
        out[p + "lstsq_ms_per_iter"] = per_iter["lstsq"]
        out[p + "lstsq_calls_per_iter"] = calls["lstsq"] / iters
        out[p + "lstsq_rhs_per_iter"] = rhs / iters
        out[p + "residual_ms_per_iter"] = per_iter["residual"]
        out[p + "khatri_rao_ms_per_iter"] = per_iter["khatri_rao"]
        out[p + "self_ms_per_iter"] = self_ms
        out[p + "traced_ms_per_iter"] = traced_ms
        out[p + "solver_setup_ms"] = 1e3 * sum(r["seconds"] - r["elapsed_sum"] for r in fam) / len(fam)
        out[p + "rank_deficient_solves"] = sum(r["rank_deficient"] for r in fam)
        out[p + "converged_runs"] = sum(r["stop"] == "Converged" for r in fam)
    return out, problems
