"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``sigdef`` modules by
timing wrappers, looked up by module attribute so that every caller that
goes through the module namespace is seen.  Modules are fetched with
``importlib.import_module``: the package attribute ``sigdef.maxdef`` is the
decision *function*, which shadows the module of the same name.

Each span adds its duration to its parent's child time, so a layer's self
time is its duration minus that of the wrapped calls it made.  A name that
no longer exists is recorded in ``missing`` and skipped, never fatal.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

LADDER_STEPS = (3, 4, 5, 6, 7, 8, 9)


def _fired(result) -> bool:
    # steps 3 and 5 return the blocking pair id or None; the rest a bool
    return result is not None and result is not False


class Tracer:
    """Span totals, call counts and fire counts, keyed by layer name."""

    def __init__(self):
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        md = "sigdef.maxdef"
        spans = [
            ("sigdef.cli", "main", "cli.main", None),
            ("sigdef.sgio", "parse_sg", "sgio.parse_sg", self._on_parse),
            ("sigdef.sgio", "build_graph", "core.build_graph", None),
            ("sigdef.cli", "maxdef", "maxdef.maxdef", self._on_result),
            ("sigdef.oracle", "chromatic_number", "oracle.chromatic_number", None),
            ("sigdef.oracle", "deficiency_report", "oracle.deficiency_report", None),
            (md, "flatten", "maxdef.flatten", None),
            (md, "build_forcing_graph", "maxdef.forcing", self._on_forcing),
            (md, "step12_contract", "maxdef.step12", self._on_fire("maxdef.step12")),
            (md, "is_stable", "core.certify", None),
            (md, "covers_positive", "core.certify", None),
        ]
        steps = {3: "step3_check", 4: "step4_resolve", 5: "step5_check",
                 6: "step6_resolve", 7: "step7_resolve", 8: "step8_merge",
                 9: "step9_pendant"}
        for k, attr in steps.items():
            name = f"maxdef.step{k}"
            spans.append((md, attr, name, self._on_fire(name)))
        for module, attr, name, hook in spans:
            self._wrap(module, attr, name, hook)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, module_name: str, attr: str, name: str, hook) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0)
            started = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span = perf_counter_ns() - started
                self.total_ns[name] += span
                self.self_ns[name] += span - stack.pop()
                self.calls[name] += 1
            if hook is not None:
                hook(result)
            if stack:
                # the hook's own cost counts as child time, not parent self time
                stack[-1] += perf_counter_ns() - started
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))
        self.wrapped.add(name)

    def _on_fire(self, name: str):
        def hook(result) -> None:
            if _fired(result):
                self.counts[name + ".fires"] += 1
        return hook

    def _on_parse(self, graph) -> None:
        self.counts["sgio.parse_sg.edges"] += (
            graph.positive_edge_count + graph.negative_edge_count
        )

    def _on_forcing(self, fg) -> None:
        self.counts["maxdef.forcing.vertices"] += len(fg.out_adj)
        self.counts["maxdef.forcing.edges"] += sum(len(s) for s in fg.out_adj.values())

    def _on_result(self, result) -> None:
        """Count what the run's own trace says happened."""
        for entry in result.trace:
            self.counts[f"trace.step{entry.step}"] += 1
            self.counts[f"maxdef.step{entry.step}.pairs_removed"] += entry.pairs_removed
        self.counts["trace.runs"] += 1
        if result.terminating_step == 12:
            self.counts["trace.step12.refuted"] += 1

    def mismatches(self) -> list[str]:
        """Disagreements between wrapper counts and the runs' own traces.

        Steps 4 and 6..9 leave one trace entry per fire, steps 3 and 5 end
        the run with one entry, every forcing build leaves a step-11 entry,
        and every step-12 call leaves one step-12 entry, which is a
        contraction unless it ended the run.  Layers reported missing are
        not compared.
        """
        c = self.counts
        pairs = [(f"maxdef.step{k}", c[f"maxdef.step{k}.fires"], c[f"trace.step{k}"])
                 for k in LADDER_STEPS]
        pairs += [
            ("maxdef.forcing", self.calls["maxdef.forcing"], c["trace.step11"]),
            ("maxdef.step12", self.calls["maxdef.step12"], c["trace.step12"]),
            ("maxdef.step12", c["maxdef.step12.fires"],
             c["trace.step12"] - c["trace.step12.refuted"]),
        ]
        if "maxdef.maxdef" not in self.wrapped:
            return []
        return [f"{name}: wrappers count {a}, traces {b}"
                for name, a, b in pairs if name in self.wrapped and a != b]
