"""Span recorder that measures catmap's layers from outside the package.

`SpanRecorder.install` rebinds the public names that `catmap.cli`,
`catmap.census` and `catmap.quantum` resolve at call time, replacing each with
a wrapper that records one span per call: layer name, start, end and the span
that was open when the call began.  Every wrapper wraps the original function,
so a call passes through exactly one wrapper whichever module it came from.
Names a module does not hold are skipped, which is how `arith.factorize`
counts only the calls made from `census` (the summary's refactorization).

Spans stay in memory, in flat arrays, until `write` dumps them; `layer_stats`
turns them into self time (span minus its child spans), call counts and the
per-layer counters named in `COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

SITES = ("catmap.cli", "catmap.census", "catmap.quantum")

# (layer name, defining module, function name)
LAYERS = (
    ("arith.order_mod", "catmap.arith", "order_mod"),
    ("arith.factorize", "catmap.arith", "factorize"),
    ("arith.primes_up_to", "catmap.arith", "primes_up_to"),
    ("quadorder.splitting_character", "catmap.quadorder", "splitting_character"),
    ("quadorder.lcm_defect", "catmap.quadorder", "lcm_defect"),
    ("quadorder.congruence_count", "catmap.quadorder", "congruence_count"),
    ("quantum.propagator", "catmap.quantum", "propagator"),
    ("quantum.spectrum", "catmap.quantum", "spectrum"),
    ("quantum.fourth_moment", "catmap.quantum", "fourth_moment"),
    ("quantum.variance_stat", "catmap.quantum", "variance_stat"),
    ("quantum.max_deviation", "catmap.quantum", "max_deviation"),
    ("census.compute_prime_records", "catmap.census", "compute_prime_records"),
    ("census.compute_integer_records", "catmap.census", "compute_integer_records"),
    ("census.summarize_prime_records", "catmap.census", "summarize_prime_records"),
    ("census.summarize_integer_records", "catmap.census", "summarize_integer_records"),
    ("census.store_results", "catmap.census", "store_results"),
    ("census.load_results", "catmap.census", "load_results"),
    ("census.resume_point", "catmap.census", "resume_point"),
    ("census.quantum_sweep", "catmap.census", "quantum_sweep"),
)
ROOT = "cli.main"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _propagator_name(args, kwargs) -> str:
    parity = "even" if _arg(args, kwargs, 1, "N") % 2 == 0 else "odd"
    return f"quantum.propagator.{parity}"


# Layers whose span name depends on the arguments (propagator splits by the
# parity of N, since even and odd N take different construction paths).
SPAN_NAMES = {"quantum.propagator": _propagator_name}


class SpanRecorder:
    """Flat in-memory span store for one run (one CLI call in one process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        # counters measured at the layer boundary: {(layer, stat): total}
        self.counters: dict[tuple[str, str], float] = {}
        self.missing: list[str] = []
        self._rebound: list[tuple] = []

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def span(self, fn, name: str, name_fn=None, counter=None):
        """Wrap fn so each call records a span called name (or name_fn(...))."""
        fixed_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id = fixed_id if name_fn is None else self._name_id(name_fn(args, kwargs))
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            before = counter[1](args, kwargs) if counter and counter[1] else None
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                self._open.pop()
                self.start[idx] = began
                self.end[idx] = ended
            if counter:
                stat, _, value = counter
                key = (name, stat)
                self.counters[key] = self.counters.get(key, 0) + value(
                    args, kwargs, before, result
                )
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced name in the SITES modules (imports catmap)."""
        sites = [importlib.import_module(s) for s in SITES]
        for layer, home, attr in LAYERS:
            original = getattr(importlib.import_module(home), attr, None)
            bound = 0
            if original is not None:
                wrapped = self.span(
                    original, layer, SPAN_NAMES.get(layer), COUNTERS.get(layer)
                )
                for mod in sites:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        self._rebound.append((mod, attr, original))
                        bound += 1
            if not bound:
                self.missing.append(layer)

    def uninstall(self) -> None:
        """Restore the names install() rebound."""
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def layer_stats(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans sum to the root span.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
        stats: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + self_time[i]
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
        for (layer, stat), total in self.counters.items():
            stats[f"{layer}.{stat}"] = total
        return stats

    def write(self, path) -> None:
        """Dump the spans as tab-separated lines (times in seconds)."""
        with open(path, "w") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run_id}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _path_size(args, kwargs) -> int:
    try:
        return os.path.getsize(_arg(args, kwargs, 1, "path"))
    except OSError:
        return 0


# Counters taken at a layer boundary: layer -> (stat, before, value), where
# before(args, kwargs) runs ahead of the call and
# value(args, kwargs, before, result) after it.
COUNTERS = {
    # sum of the scalar period r* over returned spectra, an exact work count
    "quantum.spectrum": ("rstar_sum", None, lambda a, k, b, r: r.scalar_period),
    # growth of the target file across the call
    "census.store_results": (
        "bytes",
        _path_size,
        lambda a, k, b, r: _path_size(a, k) - b,
    ),
    "census.load_results": ("rows", None, lambda a, k, b, r: len(r)),
}
