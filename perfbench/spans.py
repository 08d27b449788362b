"""Spans recorded around the benchmark's calls into the library's layers.

A span is one call: its name (``<layer>.<call>``), start and end on the
``perf_counter`` clock, whether it returned normally, and the work counts
the caller attached (modes, bytes, mesh points).  Spans are kept in memory
and written out once, when the run ends.  A disabled tracer records
nothing, so the untimed bookkeeping stays out of the end-to-end numbers.
"""

import json
import statistics
import time


class _Off:
    """Context of a disabled tracer: hands out a scratch dict for counts."""

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class _Span:
    def __init__(self, tracer, name, counts):
        self.tracer, self.name, self.counts = tracer, name, counts

    def __enter__(self):
        self.start = time.perf_counter()
        return self.counts

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        self.tracer.spans.append({
            "name": self.name,
            "start": self.start,
            "end": end,
            "ok": exc_type is None,
            "counts": self.counts,
        })
        return False


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def span(self, name, **counts):
        """Context manager timing one call; yields a dict for extra counts."""
        if not self.enabled:
            return _Off()
        return _Span(self, name, counts)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _busy(spans):
    return sum((s["end"] - s["start"] for s in spans), 0.0)


def _count(spans, key):
    return sum(s["counts"].get(key, 0) for s in spans)


def _rate(work, seconds):
    return work / seconds if seconds > 0.0 else 0.0


LAYERS = ("kernels", "symbols", "fields", "operators", "solvers", "onedim", "quadrature")


def layer_metrics(spans, check_failures, pass_wall, threads, cpu_s, overhead_s):
    """Per-layer metrics of one traced set-up plus pass, as {name: (value, unit)}.

    ``check_failures`` maps a layer to the checks on its outputs that failed;
    a layer's failures also count its calls that raised.
    """
    s = spans
    build = _named(s, "symbols.build_table")
    steady = _named(s, "solvers.steady")
    evolve = _named(s, "solvers.evolve")
    rho = _named(s, "onedim.rho_from_kernel") + _named(s, "onedim.rho_regularized")
    items = _named(s, "pool.item")
    out = {
        "kernels.normalize_s": (_busy(_named(s, "kernels.normalize")), "s"),
        "kernels.normalize_calls": (len(_named(s, "kernels.normalize")), "count"),
        "symbols.build_table_s": (_busy(build), "s"),
        "symbols.build_table_calls": (len(build), "count"),
        "symbols.build_table_p50_s": (
            statistics.median([b["end"] - b["start"] for b in build]) if build else 0.0, "s"),
        "symbols.modes_per_s": (_rate(_count(build, "modes"), _busy(build)), "1/s"),
        "symbols.verify_bounds_s": (_busy(_named(s, "symbols.verify_bounds")), "s"),
        "symbols.save_table_s": (_busy(_named(s, "symbols.save_table")), "s"),
        "symbols.save_table_bytes": (_count(_named(s, "symbols.save_table"), "bytes"), "bytes"),
        "symbols.load_table_s": (_busy(_named(s, "symbols.load_table")), "s"),
        "symbols.load_table_bytes": (_count(_named(s, "symbols.load_table"), "bytes"), "bytes"),
        "fields.random_field_s": (_busy(_named(s, "fields.random_field")), "s"),
        "fields.random_field_coeffs": (_count(_named(s, "fields.random_field"), "coeffs"), "count"),
        "fields.to_csv_s": (_busy(_named(s, "fields.to_csv")), "s"),
        "fields.to_csv_bytes": (_count(_named(s, "fields.to_csv"), "bytes"), "bytes"),
        "operators.apply_s": (_busy(_named(s, "operators.apply")), "s"),
        "operators.apply_calls": (len(_named(s, "operators.apply")), "count"),
        "operators.double_symbol_direct_s": (
            _busy(_named(s, "operators.double_symbol_direct")), "s"),
        "solvers.steady_s": (_busy(steady), "s"),
        "solvers.evolve_s": (_busy(evolve), "s"),
        "solvers.calls": (len(steady) + len(evolve), "count"),
        "solvers.modes_per_s": (
            _rate(_count(steady + evolve, "modes"), _busy(steady + evolve)), "1/s"),
        "onedim.rho_from_kernel_s": (_busy(_named(s, "onedim.rho_from_kernel")), "s"),
        "onedim.rho_regularized_s": (_busy(_named(s, "onedim.rho_regularized")), "s"),
        "onedim.energy_equivalence_s": (_busy(_named(s, "onedim.energy_equivalence")), "s"),
        "onedim.mesh_points_per_s": (_rate(_count(rho, "points"), _busy(rho)), "1/s"),
        "quadrature.integrate_halfball_s": (
            _busy(_named(s, "quadrature.integrate_halfball")), "s"),
        "quadrature.integrate_halfball_calls": (
            len(_named(s, "quadrature.integrate_halfball")), "count"),
        "pool.queue_wait_s": (_count(items, "wait_s"), "s"),
        "pool.efficiency": (_rate(_busy(items), pass_wall * threads), "ratio"),
        "process.cpu_s": (cpu_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        raised = sum(1 for x in s if x["name"].startswith(layer + ".") and not x["ok"])
        out[f"{layer}.failures"] = (raised + check_failures.get(layer, 0), "count")
    return out
