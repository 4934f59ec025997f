"""Outside-in span tracer for the lossguard benchmark.

The tracer changes nothing in the package source.  It replaces functions at
the attributes their callers look up: a function imported by name into
another module (``chainsim.fidelity``, ``losscode.apply_gate_dm``) is a
separate attribute, so every module global that *is* the original function
object is swapped for the wrapper, and restored on ``uninstall``.  The
``DensityMatrix`` constructor is wrapped on the class, which counts every
validation wherever the matrix is built.

Spans are kept in memory as ``(span_id, parent_id, call_id, name, start,
end)`` and written out when the run ends.  A span's self time is its
duration minus the time covered by its traced children.  Spans record only
while a benchmark call is open (``call_id`` set), so the benchmark's own
input generation and correctness checks never show up in the counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("simcore", "losscode", "channel", "analytics", "chainsim", "cli")

# span name -> (module, attribute).  "simcore.DensityMatrix" wraps the
# class's __init__; every other entry is a module-level function.
BOUNDARIES = {
    "chainsim.run_chain": ("chainsim", "run_chain"),
    "chainsim.run_loop": ("chainsim", "run_loop"),
    "channel.stage": ("channel", "stage"),
    "channel.transmit_segment": ("channel", "transmit_segment"),
    "channel.gates_succeed": ("channel", "gates_succeed"),
    "losscode.recovery_branches": ("losscode", "recovery_branches"),
    "losscode.decode": ("losscode", "decode"),
    "losscode.recover_forced": ("losscode", "recover_forced"),
    "losscode.outcome_probabilities": ("losscode", "outcome_probabilities"),
    "losscode.derive_correction_table": ("losscode", "derive_correction_table"),
    "simcore.DensityMatrix": ("simcore", "DensityMatrix"),
    "simcore.pure_from_density": ("simcore", "pure_from_density"),
    "simcore.apply_gate_dm": ("simcore", "apply_gate_dm"),
    "simcore.fidelity": ("simcore", "fidelity"),
    "analytics.r": ("analytics", "r"),
    "analytics.break_even_pt": ("analytics", "break_even_pt"),
    "analytics.min_break_even_pt": ("analytics", "min_break_even_pt"),
    "analytics.threshold_n": ("analytics", "threshold_n"),
    "analytics.p_t_full": ("analytics", "p_t_full"),
}

MAX_KEPT_SPANS = 300_000  # bounds trace memory; later spans are counted, not kept


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.call_id: int | None = None
        self.absent: list[str] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()  # values observed at boundaries
        self.setup_total_s: dict[str, float] = {}
        self._stack: list[list] = []  # [span_id, name, start, child_time]
        self._next_id = 1
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_time = frame
        elapsed = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += elapsed
            self.child_calls[(parent[1], name)] += 1
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child_time
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(
                (span_id, parent[0] if parent else 0, self.call_id, name, start, end)
            )
        else:
            self.dropped += 1

    def end_setup(self) -> None:
        """Set set-up totals aside so the per-layer counts cover only the rounds."""
        self.setup_total_s = dict(self.total_s)
        for table in (self.calls, self.total_s, self.self_s, self.child_calls, self.counts):
            table.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.call_id is None:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every boundary that exists; record the missing ones as absent."""
        modules = [package]
        for mod_name in MODULES:
            try:
                modules.append(importlib.import_module(f"{package.__name__}.{mod_name}"))
            except ImportError:
                pass
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.absent = []
        for name, (mod_name, attr) in BOUNDARIES.items():
            module = by_name.get(mod_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.append(name)
                    continue
                self._patch(original, "__init__", self._wrap(name, init, None))
                continue
            wrapper = self._wrap(name, original, OBSERVERS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        origin = self._origin
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header | {"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, call, name, start, end in self.spans:
                fh.write(
                    f'[{span_id},{parent},{json.dumps(call)},"{name}",'
                    f"{start - origin:.9f},{end - origin:.9f}]\n"
                )


# -- counts observed at boundaries ---------------------------------------------


def _observe_stage(counts, args, kwargs, result) -> None:
    counts[f"status.{getattr(result, 'status', 'unknown')}"] += 1


def _observe_run(counts, args, kwargs, result) -> None:
    trials = getattr(result, "trials", 0)
    counts["trials"] += trials
    rate = getattr(result, "end_to_end_success", None)
    if rate is not None:
        counts["survivors"] += round(rate * trials)


def _observe_r(counts, args, kwargs, result) -> None:
    # numpy is imported here, not at the top, so that importing the tracer
    # before lossguard does not move numpy's import out of setup_s.
    import numpy as np

    counts["r.points"] += int(np.size(result))


OBSERVERS = {
    "channel.stage": _observe_stage,
    "chainsim.run_chain": _observe_run,
    "chainsim.run_loop": _observe_run,
    "analytics.r": _observe_r,
}
