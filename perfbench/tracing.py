"""Spans around ionchain's public functions, installed from outside the package.

The tracer replaces module attributes (and the ``build``/``eigensystem``
class attributes) with timing wrappers, so calls made inside the package,
which look these names up at call time, are recorded as well as calls from
the workload driver.  Re-exports on the ``ionchain`` package are left alone.

Each span is ``(name, start, end, parent)`` with ``perf_counter`` seconds
and the index of the enclosing span; spans stay in memory and are written
once, at the end of a run, by ``write_spans``.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time

# module -> public functions timed as layers; "Class.method" names a class
# attribute
TRACED = {
    "chain": ["solve_equilibrium", "is_linear_stable",
              "max_stable_axial_frequency", "solve_chain"],
    "couplings": ["detuning_for_alpha", "coupling_matrix",
                  "build_coupling_model"],
    "xy": ["build_sector", "build_single_excitation", "XYSector.eigensystem",
           "evolve", "evolve_grid", "occupations"],
    "spinphonon": ["SpinPhononSystem.build", "SpinPhononSystem.eigensystem",
                   "propagate", "model_fidelity", "vacuum_overlap",
                   "phonon_occupation"],
    "leakage": ["fit_effective_frequency", "fit_effective_frequency_two_modes",
                "renormalized_couplings"],
    "protocols": ["optimize_protocol", "transfer_fidelity_at", "run_transfer",
                  "analytic_gamma"],
    "noise": ["noisy_transfer_ensemble", "sample_static_fields"],
    "cli": ["resolve_working_point", "write_table", "write_report"],
}

# counters recorded at the same boundaries: name -> unit
COUNTERS = {
    "spinphonon.dim": "count",
    "spinphonon.propagate.flop_computed": "flop",
    "xy.sector_dim": "count",
    "cli.bytes_written": "B",
    "chain.working_point_reuse": "ratio",
}

ROOT = "workload"


def layer_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._spin_dim = 0
        self._flop = 0
        self._sector_dim = 0
        self._bytes = 0
        self._wp_calls = 0
        self._wp_keys: set = set()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def root(self, fn, *args, **kwargs):
        """Run fn inside the root span of this run."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- counters ----------------------------------------------------------

    def _on_spin_build(self, args, kwargs, system):
        self._spin_dim = max(self._spin_dim, system.basis.dim)

    def _on_propagate(self, args, kwargs, traj):
        n_times, dim = traj.states.shape
        self._flop += 8 * dim * dim * n_times

    def _on_sector(self, args, kwargs, sector):
        self._sector_dim = max(self._sector_dim, sector.dim)

    def _on_write(self, args, kwargs, path):
        self._bytes += os.path.getsize(path)

    def _on_working_point(self, args, kwargs, result):
        self._wp_calls += 1
        self._wp_keys.add((repr(args), repr(sorted(kwargs.items()))))

    def counters(self) -> dict:
        reuse = len(self._wp_keys) / self._wp_calls if self._wp_calls else 0.0
        return {"spinphonon.dim": self._spin_dim,
                "spinphonon.propagate.flop_computed": self._flop,
                "xy.sector_dim": self._sector_dim,
                "cli.bytes_written": self._bytes,
                "chain.working_point_reuse": reuse}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        observers = {
            "spinphonon.SpinPhononSystem.build": self._on_spin_build,
            "spinphonon.propagate": self._on_propagate,
            "xy.build_sector": self._on_sector,
            "xy.build_single_excitation": self._on_sector,
            "cli.write_table": self._on_write,
            "cli.write_report": self._on_write,
            "chain.max_stable_axial_frequency": self._on_working_point,
        }
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"ionchain.{mod_name}")
            for qual in functions:
                owner, _, attr = qual.rpartition(".")
                target = getattr(module, owner) if owner else module
                raw = vars(target)[attr]
                name = f"{mod_name}.{qual}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__,
                                                 observers.get(name)))
                else:
                    new = self._wrap(name, raw, observers.get(name))
                self._patches.append((target, attr, raw))
                setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, raw in reversed(self._patches):
            setattr(target, attr, raw)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = layer_metrics(self.spans)
        out.update(self.counters())
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": sid,
                                    "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


def self_times(spans: list) -> list:
    """Span duration minus the part of it covered by its child spans."""
    children: dict = {}
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list) -> dict:
    """``<layer>.s``, ``.self_s`` and ``.calls`` for every traced function.

    Functions that were not called report zeros.
    """
    out = {}
    for name in layer_names():
        out.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0,
                    f"{name}.calls": 0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        if name == ROOT:
            continue
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
    return out
