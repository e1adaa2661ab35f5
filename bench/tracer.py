"""Span tracing of tracefluct's public functions, installed from outside the package.

``Tracer.install`` wraps each function named in ``TARGETS`` and rebinds
every module-level name it is bound to in the loaded ``tracefluct``
modules (for example ``hamiltonian.trace_moments`` and the copy imported
as ``montecarlo.trace_moments``), so calls between modules are traced
without changing any file of the package.  Spans (name, start, end,
parent, errors) are kept in memory; ``summary`` folds them into per-span
call counts, self times and work counts.  Tracing assumes one thread,
which holds for the CLI run with ``--workers 1``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _trace_moments_work(bound: inspect.BoundArguments) -> dict[str, int]:
    sample = bound.arguments["sample"]
    n = len(getattr(sample, "values", sample))
    return {"site_powers": n * int(bound.arguments["k_max"])}


def _sample_potential_work(bound: inspect.BoundArguments) -> dict[str, int]:
    return {"sites": int(bound.arguments["n_sites"])}


#: (module, function) -> work counter computed from the call's arguments, or None.
TARGETS = {
    ("cli", "main"): None,
    ("hamiltonian", "sample_potential"): _sample_potential_work,
    ("hamiltonian", "trace_moments"): _trace_moments_work,
    ("montecarlo", "run_ensemble"): None,
    ("montecarlo", "clt_check"): None,
    ("montecarlo", "joint_correlation"): None,
    ("montecarlo", "sigma_sq_for"): None,
    ("symbolic", "trace_power_polynomial"): None,
    ("combinatorics", "profile_counts"): None,
    ("expansion", "exact_mean_trace_power"): None,
    ("expansion", "boundary_correction"): None,
    ("expansion", "placement_correction"): None,
    ("expansion", "power_partial_sum"): None,
    ("expansion", "power_sum_coefficient"): None,
    ("expansion", "series_expansion"): None,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1, errors]
        self.work: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                counts = self.work.setdefault(name, {})
                for key, value in work(signature.bind(*args, **kwargs)).items():
                    counts[key] = counts.get(key, 0) + value
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, package: str = "tracefluct") -> None:
        """Rebind every target at each module-level name it has in ``package``.

        A target the package no longer defines is skipped, so it reads as never called.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for (module, fn_name), work in TARGETS.items():
            original = getattr(sys.modules.get(f"{package}.{module}"), fn_name, None)
            if original is None:
                continue  # gone from the package: reported as never called
            traced = self.wrap(f"{module}.{fn_name}", original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (duration minus child spans), errors, work counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "errors": 0} for m, f in TARGETS}
        for i, (name, start, end, _, errors) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[i]
            entry["errors"] += errors
        for name, counts in self.work.items():
            out[name].update(counts)
        return out
