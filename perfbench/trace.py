"""In-memory span tracing for the traced run.

The tracer wraps the public functions of each program layer, and the
scipy.fft entry points the spectral layer calls, from outside the program:
the wrappers replace the module attributes while installed and are removed
again afterwards.  A target that no longer exists is recorded as missing;
its metrics then read zero, and the run goes on.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time its child spans cover.  Each span also accumulates the calls and
the time of the FFT spans below it at any depth, which gives the per-call
FFT counts and the time a span spends outside FFTs; FFT spans are leaves,
so their duration is their self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from scipy import fft as sfft

FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")

# (module, attribute path) of each wrapped layer function
TARGETS = (
    ("polaronlab.dynamics", "dressed_step"),
    ("polaronlab.dynamics", "lp_step"),
    ("polaronlab.hamiltonians", "h_dressed"),
    ("polaronlab.hamiltonians", "grad_dressed"),
    ("polaronlab.diagnostics", "diagnostics_row"),
    ("polaronlab.dressing", "dressing_apply"),
    ("polaronlab.picard", "duhamel_map"),
    ("polaronlab.picard", "picard_solve"),
    ("polaronlab.fock", "FockModel.__init__"),
    ("polaronlab.fock", "build_hamiltonian"),
    ("polaronlab.fock", "build_T"),
    ("polaronlab.fock", "dress_hamiltonian"),
    ("polaronlab.fock", "assemble_dressed"),
    ("polaronlab.fock", "Propagator.__init__"),
    ("polaronlab.fock", "Propagator.apply"),
    ("polaronlab.fock", "coherent_state"),
    ("polaronlab.fock", "classical_flow"),
)

# span record fields
NAME, START, END, PARENT, ROUND, FFT_CALLS, FFT_S, INFO = range(8)

# per-layer metric: (name, unit)
LAYER_METRICS = (
    ("spectral.fft_calls", "count"),
    ("spectral.fft_fields", "count"),
    ("spectral.fft_self_s", "s"),
    ("spectral.fft_calls_per_dressed_step", "count/step"),
    ("spectral.fft_calls_per_duhamel_node", "count/node"),
    ("dynamics.dressed_step_ms", "ms"),
    ("dynamics.dressed_step_nonfft_ms", "ms"),
    ("dynamics.lp_step_ms", "ms"),
    ("hamiltonians.h_dressed_ms", "ms"),
    ("hamiltonians.grad_dressed_ms", "ms"),
    ("diagnostics.row_ms", "ms"),
    ("diagnostics.rows", "count"),
    ("dressing.apply_ms", "ms"),
    ("picard.duhamel_map_ms", "ms"),
    ("picard.iterations", "count"),
    ("fock.dim", "count"),
    ("fock.model_s", "s"),
    ("fock.build_hamiltonian_s", "s"),
    ("fock.build_T_s", "s"),
    ("fock.dress_hamiltonian_s", "s"),
    ("fock.assemble_dressed_s", "s"),
    ("fock.propagator_s", "s"),
    ("fock.coherent_state_s", "s"),
    ("fock.apply_ms", "ms"),
    ("fock.classical_flow_s", "s"),
    ("trace.overhead_s", "s"),
)


def _fields(args, kwargs) -> int:
    """Fields one transform call handles: a batched stack counts once per
    component along the axes that are not transformed."""
    a = args[0] if args else kwargs.get("x")
    shape = getattr(a, "shape", ())
    axes = kwargs.get("axes")
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    if axes is None:
        n_axes = len(s) if s is not None else len(shape)
        kept = shape[: len(shape) - n_axes]
    else:
        axes = {ax % len(shape) for ax in axes}
        kept = [n for i, n in enumerate(shape) if i not in axes]
    out = 1
    for n in kept:
        out *= n
    return out


def _nodes(args, kwargs):
    candidate = args[0] if args else kwargs.get("candidate")
    return len(candidate.times)


def _dim(args, kwargs):
    return args[0].dim


# extra facts a span records about its call
_INFO = {"duhamel_map": _nodes, "FockModel.__init__": _dim}


class Tracer:
    """Collects spans while installed and active."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.round = -1
        self.active = True
        self.missing: list = []
        self._patches: list = []
        self._origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for fname in FFT_FUNCTIONS:
            self._patch(sfft, fname, getattr(sfft, fname),
                        self._fft_wrapper(getattr(sfft, fname)))
        for module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if path not in self.missing:
                    self.missing.append(path)
                continue
            wrapper = self._wrapper(path, fn)
            if outer:
                self._patch(owner, attr, fn, wrapper)
                continue
            # re-exports: every program module holding the same function
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "polaronlab" and \
                        getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, fn, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.round, 0, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> float:
        rec[END] = time.perf_counter()
        self.stack.pop()
        return rec[END] - rec[START]

    def _wrapper(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                try:
                    rec[INFO] = info(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open("fft")
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._close(rec)
                rec[INFO] = _fields(args, kwargs)
                for idx in self.stack:
                    parent = self.spans[idx]
                    parent[FFT_CALLS] += 1
                    parent[FFT_S] += duration

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        o = self._origin
        spans = [[r[NAME], round(r[START] - o, 7), round(r[END] - o, 7),
                  r[PARENT]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(meta, missing=self.missing, spans=spans), fh,
                      separators=(",", ":"))

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics over the traced rounds (round >= 0); model
        construction is taken from set-up, where it happens."""
        by_name: dict = {}
        rounds = set()
        for r in self.spans:
            if r[ROUND] >= 0:
                rounds.add(r[ROUND])
            by_name.setdefault((r[NAME], r[ROUND] >= 0), []).append(r)
        n_rounds = max(len(rounds), 1)

        def spans(name, traced=True):
            return by_name.get((name, traced), [])

        def median(values, scale=1.0):
            return statistics.median(values) * scale if values else 0.0

        def dur(name, scale=1.0):
            return median([r[END] - r[START] for r in spans(name)], scale)

        fft = spans("fft")
        fft_s: dict = {}
        for r in fft:
            fft_s[r[ROUND]] = fft_s.get(r[ROUND], 0.0) + r[END] - r[START]
        steps = spans("dressed_step")
        maps = spans("duhamel_map")
        nodes = sum(r[INFO] or 0 for r in maps)
        solves = spans("picard_solve")
        rows = spans("diagnostics_row")
        # the workload's own models are the largest built in set-up
        models = spans("FockModel.__init__", traced=False)
        dim = max((r[INFO] or 0 for r in models), default=0)
        models = [r for r in models if r[INFO] == dim]
        out = {
            "spectral.fft_calls": len(fft) / n_rounds,
            "spectral.fft_fields": sum(r[INFO] for r in fft) / n_rounds,
            "spectral.fft_self_s": median([fft_s.get(k, 0.0) for k in rounds]),
            "spectral.fft_calls_per_dressed_step":
                sum(r[FFT_CALLS] for r in steps) / len(steps) if steps else 0,
            "spectral.fft_calls_per_duhamel_node":
                sum(r[FFT_CALLS] for r in maps) / nodes if nodes else 0,
            "dynamics.dressed_step_ms": dur("dressed_step", 1e3),
            "dynamics.dressed_step_nonfft_ms": median(
                [r[END] - r[START] - r[FFT_S] for r in steps], 1e3),
            "dynamics.lp_step_ms": dur("lp_step", 1e3),
            "hamiltonians.h_dressed_ms": dur("h_dressed", 1e3),
            "hamiltonians.grad_dressed_ms": dur("grad_dressed", 1e3),
            "diagnostics.row_ms": dur("diagnostics_row", 1e3),
            "diagnostics.rows": len(rows) / n_rounds,
            "dressing.apply_ms": dur("dressing_apply", 1e3),
            "picard.duhamel_map_ms": dur("duhamel_map", 1e3),
            "picard.iterations": len(maps) / len(solves) if solves else 0,
            "fock.dim": dim,
            "fock.model_s": median([r[END] - r[START] for r in models]),
            "fock.build_hamiltonian_s": dur("build_hamiltonian"),
            "fock.build_T_s": dur("build_T"),
            "fock.dress_hamiltonian_s": dur("dress_hamiltonian"),
            "fock.assemble_dressed_s": dur("assemble_dressed"),
            "fock.propagator_s": dur("Propagator.__init__"),
            "fock.coherent_state_s": dur("coherent_state"),
            "fock.apply_ms": dur("Propagator.apply", 1e3),
            "fock.classical_flow_s": dur("classical_flow"),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": out[name], "unit": unit}
                for name, unit in LAYER_METRICS}
