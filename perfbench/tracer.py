"""Outside-in span tracing: wrappers installed on the names callers look up.

Each wrapper records the call's total time, its self time (total minus the
time of wrapped calls made inside it) and a call count; some also count rows
or read the stepper's info dict. Self times over all spans sum to the root
span's total, so the ledger accounts for the whole traced wall time.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import swmoment.scheme
import swmoment.sim
import swmoment.topography


def _rows(args) -> int:
    shape = np.shape(args[0])
    return int(shape[0]) if len(shape) > 1 else 1


def _step_info(ledger: "Ledger", args, result) -> None:
    grid, info = args[0], result[1]
    ledger.counts["sim.steps"] += 1
    ledger.counts["sim.cell_steps"] += grid.J
    ledger.counts["scheme.wet_cell_steps"] += grid.J - info.get("dry_cells", 0)
    ledger.counts["scheme.newton_iters"] += info.get("newton_iters_total", 0)
    ledger.counts["scheme.newton_iters_max"] = max(
        ledger.counts["scheme.newton_iters_max"], info.get("newton_iters_max", 0))


# (module, attribute the caller looks up, span name, count rows?, post hook)
MODULE_SPANS = (
    (swmoment.sim, "run", "sim.run", False, None),
    (swmoment.sim, "build_basis", "basis.build_basis", False, None),
    (swmoment.sim, "build_model", "sim.build_model", False, None),
    (swmoment.sim, "build_bed", "sim.build_bed", False, None),
    (swmoment.sim, "build_grid", "sim.build_grid", False, None),
    (swmoment.topography, "cell_slope", "topography.cell_slope", False, None),
    (swmoment.sim, "apply_transmissive_bc", "scheme.apply_transmissive_bc", False, None),
    (swmoment.sim, "cfl_dt", "scheme.cfl_dt", False, None),
    (swmoment.sim, "step_explicit", "scheme.step_explicit", False, _step_info),
    (swmoment.sim, "step_semi_implicit", "scheme.step_semi_implicit", False, _step_info),
    (swmoment.sim, "to_primitive", "sim.to_primitive", True, None),
    (swmoment.sim, "savage_hutter_violations", "friction.savage_hutter_violations", False, None),
    (swmoment.sim, "write_outputs", "sim.write_outputs", False, None),
    (swmoment.sim, "write_snapshot", "sim.write_snapshot", False, None),
    (swmoment.sim, "emit_profile", "sim.emit_profile", False, None),
    (swmoment.sim, "write_summary", "sim.write_summary", False, None),
    (swmoment.scheme, "to_primitive", "state.to_primitive", True, None),
    (swmoment.scheme, "wavespeeds_batch", "hswme.wavespeeds_batch", True, None),
    (swmoment.scheme, "system_matrix_batch", "hswme.system_matrix_batch", True, None),
    (swmoment.scheme, "viscosity_matrix", "scheme.viscosity_matrix", False, None),
    (swmoment.scheme, "source_batch", "hswme.source_batch", True, None),
    (swmoment.scheme, "source_split_batch", "hswme.source_split_batch", True, None),
)
MODEL_SPAN = "friction.stresses"
ROOT_SPAN = "bench.solve"
SPANS = (ROOT_SPAN,) + tuple(s[2] for s in MODULE_SPANS) + (MODEL_SPAN,)
ROW_SPANS = tuple(s[2] for s in MODULE_SPANS if s[3]) + (MODEL_SPAN,)
COUNTS = ("sim.steps", "sim.cell_steps", "scheme.wet_cell_steps",
          "scheme.newton_iters", "scheme.newton_iters_max")


class Ledger:
    """Per-span totals, self times, calls and rows for one traced solve."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.counts = defaultdict(int)
        self._child = []  # time spent in wrapped children, one slot per open span

    def wrap(self, name: str, fn, count_rows: bool = False, post=None, method=False):
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._child.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += elapsed
            if count_rows:
                self.rows[name] += _rows(args[1:] if method else args)
            if post is not None:
                post(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span that is not installed on any name."""
        return self.wrap(name, fn)(*args, **kwargs)


@contextmanager
def installed(ledger: Ledger, model_cls):
    """Install every wrapper (model_cls.stresses included); restore on exit."""
    saved = []
    own_stresses = model_cls.__dict__.get("stresses")
    try:
        for module, attr, name, count_rows, post in MODULE_SPANS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, ledger.wrap(name, original, count_rows, post))
        model_cls.stresses = ledger.wrap(MODEL_SPAN, model_cls.stresses, True, method=True)
        yield ledger
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        if own_stresses is None:
            if "stresses" in model_cls.__dict__:
                del model_cls.stresses
        else:
            model_cls.stresses = own_stresses


@contextmanager
def first_call_probe(module, attr: str, stamps: list):
    """Record perf_counter at the first call of module.attr, then restore it."""
    original = getattr(module, attr)

    def probe(*args, **kwargs):
        stamps.append(perf_counter())
        setattr(module, attr, original)
        return original(*args, **kwargs)

    setattr(module, attr, probe)
    try:
        yield
    finally:
        setattr(module, attr, original)
