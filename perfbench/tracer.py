"""Outside-in per-layer tracer: wraps the program's public functions.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces every
reference the loaded ``repro`` modules hold to a traced function — the
defining module's global, each ``from x import f`` copy in another
module, class attributes, and registry dicts such as
``repro.fuzz.oracles.ORACLES`` and ``repro.testbed.scenarios.SCENARIOS``
— with a wrapper that records calls and self time under a metric key.
:meth:`Tracer.uninstall` puts every original back.

A call's self time is its wall time minus the wall time of the traced
calls it made. Work done inside a ``validate_candidate`` call that ends
in ``hang`` is moved out of every other metric into
``repair.hang.count`` / ``repair.hang.wait_s``: how many cycles a
hanging candidate simulates before the wall-clock watchdog fires
depends on host speed, and the counts the benchmark compares across
runs must not.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

#: (metric key, defining module, attribute path) of every traced
#: function. A dotted path names a method; ``__init__`` times the
#: constructor.
TARGETS = (
    ("hdl.parse", "repro.hdl.parser", "parse"),
    ("hdl.elaborate", "repro.hdl.elaborate", "elaborate"),
    ("hdl.codegen", "repro.hdl.codegen", "generate_source"),
    ("hdl.codegen", "repro.hdl.codegen", "generate_module"),
    ("flow.absint", "repro.flow.absint", "compute_facts"),
    ("flow.analyze", "repro.flow.checkers", "analyze_flow"),
    ("diag.check", "repro.diag.check", "check_text"),
    ("diag.check", "repro.diag.check", "check_targets"),
    ("core.instrument", "repro.core.signalcat", "SignalCat.__init__"),
    ("core.instrument", "repro.core.fsm_monitor", "FSMMonitor.__init__"),
    ("core.instrument", "repro.core.statistics_monitor",
     "StatisticsMonitor.__init__"),
    ("core.instrument", "repro.core.dependency_monitor",
     "DependencyMonitor.__init__"),
    ("core.instrument", "repro.core.losscheck", "LossCheck.__init__"),
    ("sim.init", "repro.sim.simulator", "Simulator.__init__"),
    ("sim.settle", "repro.sim.simulator", "Simulator.settle"),
    ("sim.step", "repro.sim.simulator", "Simulator.step"),
    ("faults.scorer_init", "repro.faults.scoring", "DetectionScorer.__init__"),
    ("faults.score", "repro.faults.scoring", "DetectionScorer.score"),
    ("wave.capture", "repro.wave.trace", "Trace.from_simulator"),
    ("wave.capture", "repro.wave.capture", "capture_scenario"),
    ("wave.diff", "repro.wave.align", "diff_traces"),
    ("testbed.scenario", "repro.testbed.harness", "run_scenario"),
    ("repair.sites", "repro.repair.sites", "enumerate_sites"),
    ("repair.instantiate", "repro.repair.templates", "enumerate_candidates"),
    ("repair.validate", "repro.repair.validate", "validate_candidate"),
    ("repair.rank", "repro.repair.rank", "score_candidate"),
    ("runtime.journal", "repro.runtime", "JsonlJournal.append"),
    ("fuzz.generate", "repro.fuzz.generator", "generate_design"),
    ("fuzz.mutate", "repro.fuzz.mutator", "mutate_source"),
)

#: Registries whose values are traced, one key per entry.
REGISTRIES = (
    ("fuzz.oracle.%s", "repro.fuzz.oracles", "ORACLES"),
    ("testbed.scenario", "repro.testbed.scenarios", "SCENARIOS"),
)


class Tracer:
    """Calls, self time and work counts per metric key."""

    def __init__(self):
        #: key -> [calls, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0])
        #: work counts (``sim.cycles``, ``repair.hang.count``, ...)
        self.counts = Counter()
        self._frames = []
        self._undo = []

    # -- timing ---------------------------------------------------------------

    def _call(self, key, fn, args, kwargs):
        # One frame per traced call; a child adds its wall time to its
        # parent's frame so the parent's self time excludes it. Frames
        # are truncated by depth, so an exception (including SIGALRM's
        # TimeLimitExceeded) never leaves a stale frame behind.
        frame = [0.0]
        depth = len(self._frames)
        self._frames.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            del self._frames[depth:]
            if self._frames:
                self._frames[-1][0] += elapsed
            entry = self.stats[key]
            entry[0] += 1
            entry[1] += elapsed - frame[0]

    def _wrap(self, key, fn):
        tracer = self

        if key == "sim.step":
            def wrapper(sim, *args, **kwargs):
                before = sim.cycle
                try:
                    return tracer._call(key, fn, (sim,) + args, kwargs)
                finally:
                    tracer.counts["sim.cycles"] += sim.cycle - before
        elif key == "repair.instantiate":
            def wrapper(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                while True:
                    try:
                        item = tracer._call(key, next, (iterator,), {})
                    except StopIteration:
                        return
                    yield item
        elif key == "repair.validate":
            def wrapper(*args, **kwargs):
                return tracer._validate(fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(key, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _validate(self, fn, args, kwargs):
        outer = (self.stats, self.counts)
        self.stats = defaultdict(lambda: [0, 0.0])
        self.counts = Counter()
        inner = (self.stats, self.counts)
        start = time.perf_counter()
        result = None
        try:
            result = self._call("repair.validate", fn, args, kwargs)
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.stats, self.counts = outer
            if result is not None and result.status == "hang":
                self.stats["repair.validate"][0] += 1
                self.counts["repair.hang.count"] += 1
                self.counts["repair.hang.wait_s"] += elapsed
            else:
                for key, (calls, seconds) in inner[0].items():
                    self.stats[key][0] += calls
                    self.stats[key][1] += seconds
                self.counts.update(inner[1])

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target and every reference to it; idempotent."""
        if self._undo:
            return
        replacements = {}
        for key, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__))
            else:
                wrapped = self._wrap(key, raw)
                if not owner_name:
                    replacements[id(raw)] = (raw, wrapped)
            self._set(owner, attr, wrapped)
        # Module-level functions are also referenced from every module
        # that imported them by name.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for pattern, module_name, attr in REGISTRIES:
            registry = getattr(importlib.import_module(module_name), attr)
            for entry, fn in list(registry.items()):
                key = pattern % entry if "%" in pattern else pattern
                self._set_item(registry, entry, self._wrap(key, fn))

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_item(self, registry, entry, value):
        self._undo.append((dict.__setitem__, registry, entry, registry[entry]))
        registry[entry] = value

    def uninstall(self):
        """Restore every original reference, newest change first."""
        while self._undo:
            restore, owner, attr, original = self._undo.pop()
            restore(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def snapshot(self):
        """Plain-dict copy of everything recorded so far."""
        return {
            "stats": {k: [v[0], v[1]] for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
