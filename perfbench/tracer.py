"""Layer spans for the benchmark's traced runs.

A :class:`Tracer` wraps the public entry points of each pipeline layer
(``repro.synth``, ``repro.vt``, ``repro.store``, ``repro.parallel``,
``repro.analysis`` and the CLI's render step) from outside the package:
it replaces the attribute on its owning module or class with a timing
wrapper and puts the original back on :meth:`Tracer.uninstall`.  Only
the traced benchmark process imports this module; untraced runs execute
the program untouched.

Each wrapped call is a span.  Spans nest on one stack, and a layer's
*self time* is the span's duration minus the part its child spans
cover, so layer times add up without double counting.  Generators
(the store's report iterators) get one span per ``next()`` — the
decode work happens there, not when the generator is created.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from importlib import import_module

#: Attribute every wrapper carries, naming its layer.  A scan for it
#: tells whether a process runs with wrappers installed.
MARK = "__perfbench_layer__"


def _calls(counter):
    def hook(tracer, args, result):
        tracer.counts[counter] += 1
    return hook


def _ingested(tracer, args, result):
    tracer.counts["store.reports_ingested"] += result


def _saved(tracer, args, result):
    tracer.counts["store.bytes_saved"] += os.path.getsize(args[1])


def _loaded(tracer, args, result):
    tracer.loaded_stores.append(result)


#: (module, attribute path, layer, counter hook) for every plain span.
SPANS = (
    ("repro.synth.population", "PopulationGenerator.spec_for",
     "synth.spec", _calls("synth.samples")),
    # Looked up through repro.vt.service's module globals at call time.
    ("repro.vt.service", "build_plan", "vt.plan_build", _calls("vt.plans")),
    ("repro.vt.service", "VirusTotalService.upload", "vt.scan",
     _calls("vt.scans")),
    ("repro.vt.service", "VirusTotalService.rescan", "vt.scan",
     _calls("vt.scans")),
    ("repro.store.reportstore", "ReportStore.ingest_batch", "store.ingest",
     _ingested),
    ("repro.store.reportstore", "ReportStore.close", "store.freeze", None),
    ("repro.store.reportstore", "ReportStore.save", "store.save", _saved),
    ("repro.store.reportstore", "ReportStore.load", "store.load", _loaded),
    # The parent's shard merge: repackaging each worker result, the
    # incremental folds, and the final concatenation.
    ("repro.parallel.runner", "frozen_shard_of", "store.merge", None),
    ("repro.store.merge", "StreamingMerge.add", "store.merge", None),
    ("repro.store.merge", "StreamingMerge.finish", "store.merge", None),
    # The scheduler loop's self time is the parent waiting on workers.
    ("repro.parallel.scheduler", "ShardScheduler.run", "parallel.wait", None),
    ("repro.cli", "collect_series", "analysis.series",
     _calls("analysis.series_builds")),
    ("repro.cli", "select_dataset_s", "analysis.series", None),
    ("repro.store.reportstore", "ReportStore.series_frame", "analysis.series",
     _calls("analysis.series_builds")),
    ("repro.store.reportstore", "ReportStore.stats", "analysis.table2", None),
    ("repro.analysis.dataset", "file_type_distribution", "analysis.table3",
     None),
    ("repro.analysis.dataset", "ReportsPerSample.from_store", "analysis.fig1",
     None),
    ("repro.analysis.dynamics", "stable_dynamic_split", "analysis.fig2", None),
    ("repro.analysis.dynamics", "stable_sample_profile", "analysis.fig3_fig4",
     None),
    ("repro.analysis.dynamics", "delta_distributions", "analysis.fig5", None),
    ("repro.analysis.dynamics", "per_type_dynamics", "analysis.fig6", None),
    ("repro.analysis.dynamics", "interval_effect", "analysis.fig7", None),
    ("repro.analysis.dynamics", "threshold_impact", "analysis.fig8", None),
    ("repro.analysis.stabilization", "avrank_stabilization_profile",
     "analysis.obs8", None),
    ("repro.analysis.stabilization", "label_stabilization_profile",
     "analysis.fig9", None),
    ("repro.analysis.engines", "engine_stability", "analysis.fig10", None),
    ("repro.analysis.engines", "engine_correlation", "analysis.fig11", None),
)

#: (module, attribute path, layer, reports per yielded item) for the
#: store's streaming iterators.
STREAMS = (
    ("repro.store.reportstore", "ReportStore.iter_sample_reports",
     "store.scan", lambda item: len(item[1])),
    ("repro.store.reportstore", "ReportStore.iter_reports", "store.scan",
     lambda item: 1),
)

#: Every ``render_*`` function of this module is a span of this layer.
RENDER_MODULE, RENDER_LAYER = "repro.analysis.rendering", "analysis.render"


def _owner_and_name(module: str, path: str):
    owner = import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Installs layer spans and accumulates self times and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Every store :meth:`ReportStore.load` returned while traced.
        self.loaded_stores: list = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _span(self, fn, layer, hook):
        stack, self_s = self._stack, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def _stream(self, fn, layer, reports_of):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    self_s[layer] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                counts["store.reports_decoded"] += reports_of(item)
                yield item

        setattr(wrapper, MARK, layer)
        return wrapper

    def _patch(self, owner, name, wrap, layer, extra) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__, layer, extra))
        else:
            wrapped = wrap(raw, layer, extra)
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, raw))

    # -- lifecycle ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point."""
        for module, path, layer, hook in SPANS:
            self._patch(*_owner_and_name(module, path), self._span, layer, hook)
        for module, path, layer, reports_of in STREAMS:
            self._patch(*_owner_and_name(module, path), self._stream, layer,
                        reports_of)
        rendering = import_module(RENDER_MODULE)
        for name in sorted(vars(rendering)):
            if name.startswith("render_") and callable(getattr(rendering, name)):
                self._patch(rendering, name, self._span, RENDER_LAYER, None)
        # Forked workers inherit the wrappers; their spans would be lost
        # with the process, so a child runs the program unwrapped.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)


def installed_wrappers() -> int:
    """How many tracer wrappers are live in the loaded ``repro`` modules.

    Module-level functions count where they are bound; class attributes
    count once, in the module that defines the class.
    """
    def marked(value) -> bool:
        value = getattr(value, "__func__", value)
        return hasattr(value, MARK)

    found = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            if marked(value):
                found += 1
            elif isinstance(value, type) and value.__module__ == modname:
                found += sum(marked(v) for v in vars(value).values())
    return found
