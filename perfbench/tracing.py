"""Outside-in tracing of the constraints2d layers.

A ``Tracer`` replaces each wrapped public function with a wrapper that
records a span (operation, name, start, end, parent) or bumps a counter, in
every ``constraints2d`` module that holds the function under that name (the
solver modules import most of their collaborators by name, so patching only
the defining module would miss those calls).  Spans are kept in memory; the
caller writes them out when the run ends.  Leaving the ``with`` block puts
every original back.

Only calls that cross a module boundary through a module attribute are seen:
work done inline inside a function lands in that function's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from constraints2d import operators

# (module, function, span name); the span name is the layer metric prefix
SPANNED = [
    ("fields", "multiply", "fields.multiply"),
    ("fields", "cartesian_gradient", "fields.cartesian_gradient"),
    ("fields", "weighted_sobolev_norm", "fields.weighted_sobolev_norm"),
    ("fields", "sample_analytic", "fields.sample_analytic"),
    ("fields", "make_seed", "fields.make_seed"),
    ("fields", "write_field_csv", "cli.write_field_csv"),
    ("elliptic", "poisson_solve", "elliptic.poisson_solve"),
    ("momentum", "solve_rho_eta", "momentum.solve_rho_eta"),
    ("momentum", "momentum_rhs_f", "momentum.momentum_rhs_f"),
    ("momentum", "div_constraint_solve", "momentum.div_constraint_solve"),
    ("momentum", "correction_h2", "momentum.correction_h2"),
    ("momentum", "correction_h3", "momentum.correction_h3"),
    ("momentum", "momentum_residual", "momentum.momentum_residual"),
    ("lichnerowicz", "hamiltonian_rhs", "lichnerowicz.hamiltonian_rhs"),
    ("lichnerowicz", "solve_lambda", "lichnerowicz.solve_lambda"),
    ("picard", "solve_constraints", "picard.solve_constraints"),
    ("picard", "picard_step", "picard.picard_step"),
    ("picard", "combined_norm", "picard.combined_norm"),
    ("picard", "residuals", "picard.residuals"),
    ("cli", "config_grid", "cli.config_grid"),
    ("cli", "config_seed", "cli.config_seed"),
    ("cli", "cmd_solve", "cli.cmd_solve"),
]

# numpy transforms, counted only (a span each would cost more than the call)
COUNTED_FFT = ("rfft", "irfft")


class Tracer:
    """Spans and counters for one benchmark run, plus the patching."""

    def __init__(self):
        self.spans: list[tuple] = []   # (op, id, parent, name, start, end)
        self.counts: dict = defaultdict(Counter)   # op -> name -> count
        self.op = None                 # identifier shared by an operation's spans
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _begin(self) -> tuple[int, float]:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _end(self, sid: int, name: str, start: float, keep: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if keep:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((self.op, sid, parent, name, start, end))

    def count(self, name: str) -> None:
        self.counts[self.op][name] += 1

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, start = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(sid, name, start)
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def factorizing(self, fn):
        """Workspace solver lookup: a span when it misses the cache (a new
        ``splu``), and a banded-solve span around every use of the result."""
        @functools.wraps(fn)
        def wrapper(ws, k):
            before = self.counts[self.op]["operators.factorizations"]
            sid, start = self._begin()
            try:
                lu = fn(ws, k)
            finally:
                miss = self.counts[self.op]["operators.factorizations"] > before
                self._end(sid, "operators.factorize", start, keep=miss)
            return _TracedSolver(self, lu)
        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "constraints2d"
                                   or mod_name.startswith("constraints2d.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for mod_name, fn_name, span in SPANNED:
            original = getattr(sys.modules[f"constraints2d.{mod_name}"], fn_name)
            self._replace_everywhere(original, self.spanned(span, original))
        self._replace_everywhere(
            operators.splu, self.counted("operators.factorizations", operators.splu))
        for method in ("lap_solver", "mom_solver"):
            original = getattr(operators.OperatorWorkspace, method)
            self._set(operators.OperatorWorkspace, method, self.factorizing(original))
        for fn_name in COUNTED_FFT:
            self._set(np.fft, fn_name, self.counted("fields.fft", getattr(np.fft, fn_name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction --------------------------------------------------------
    def self_times(self) -> dict:
        """op -> name -> (calls, self seconds); self = span minus direct children."""
        child_time: Counter = Counter()
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for op, sid, _parent, name, start, end in self.spans:
            entry = out[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[sid]
        return out

    def write(self, path) -> None:
        """One JSON object per span, then one per (operation, counter)."""
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for op, counts in self.counts.items():
                for name, n in sorted(counts.items()):
                    fh.write(json.dumps({"op": op, "counter": name, "value": n}) + "\n")


class _TracedSolver:
    """Stands in for a cached SuperLU factorization; spans each ``solve``."""

    __slots__ = ("_tracer", "_lu")

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        t = self._tracer
        sid, start = t._begin()
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            t._end(sid, "operators.banded_solve", start)
