"""Per-layer spans and counters recorded from outside the prover.

``Tracer.install`` replaces public functions of the ``sclfol`` modules with
wrappers, in every module namespace that holds them: ``strategy`` binds
the ``calculus`` searches with ``from .calculus import ...`` and
``calculus`` binds ``bounded_groundings`` the same way, so patching only
the defining module would miss those calls.  Methods are patched on their
classes.  ``uninstall`` puts every original back.

A span is ``(id, parent, problem, name, start, end, busy)``.  ``busy`` is
the time spent inside the call; for a generator it is the time spent
inside its ``next`` calls, summed, so a search is charged for the
candidates consumed rather than for creating the generator.  Spans of one
problem share the problem id, and are kept in memory until ``write``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

RULES = ("propagate", "decide", "conflict", "skip", "factorize", "resolve",
         "backtrack", "grow")

# (module, function) pairs timed as spans, named "<module>.<function>".
SPANS = [
    ("strategy", "run"), ("strategy", "configure_bound"),
    ("strategy", "next_beta"),
    ("orderings", "bounded_groundings"),
    ("calculus", "find_false_instance"), ("calculus", "reasonable_decisions"),
    *[("calculus", f"apply_{rule}") for rule in RULES],
    ("state", "soundness_check"),
    ("oracle", "entails_bounded"), ("oracle", "ground_entails"),
    ("oracle", "is_redundant_snapshot"), ("oracle", "check_proof"),
    ("oracle", "check_model"),
    ("frontend", "parse_native"),
]
GENERATOR_SPANS = [("calculus", "propagation_candidates")]

# Call counts, named "<module>.<function>".
COUNTS = [
    ("calculus", "enables_conflict"), ("calculus", "false_grounding"),
    ("oracle", "ground_sat"),
]
# Functions whose result lengths are summed, under the given name.  The
# span wrapper of reasonable_decisions is wrapped again here.
SIZED = [
    ("orderings", "ground_atoms_of_weight", "orderings.atoms_visited"),
    ("calculus", "decision_candidates", "calculus.decide_candidates"),
    ("calculus", "reasonable_decisions", "calculus.decide_reasonable"),
]
# terms functions counted where the prover's layers call them
TERMS_COUNTED = ("match", "apply", "mgu")
TERMS_CALLERS = ("calculus", "orderings", "state", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.problem = None  # id of the problem being traced
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.problem, name,
                                     start, end, end - start))
        return traced

    def _generator_span(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = parent = start = end = None
            busy = 0.0
            try:
                while True:
                    if sid is None:
                        sid = next(tracer._ids)
                        parent = tracer._stack[-1] if tracer._stack else None
                    tracer._stack.append(sid)
                    t0 = perf_counter()
                    if start is None:
                        start = t0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        busy += end - t0
                        tracer._stack.pop()
                    yield item
            finally:
                inner.close()
                if sid is not None:
                    tracer.spans.append((sid, parent, tracer.problem, name,
                                         start, end, busy))
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _sized(self, name, fn):
        """Adds the length of each result to the count ``name``."""
        counts = self.counts

        def sized(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += len(result)
            return result
        return sized

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self, sclfol):
        from sclfol import (
            calculus, frontend, oracle, orderings, state, strategy, terms,
        )
        mods = {"calculus": calculus, "frontend": frontend,
                "oracle": oracle, "orderings": orderings, "state": state,
                "strategy": strategy}
        everywhere = [sclfol, *mods.values()]
        for mod, fn in SPANS:
            original = getattr(mods[mod], fn)
            self._everywhere(everywhere, original,
                             self._span(f"{mod}.{fn}", original))
        for mod, fn in GENERATOR_SPANS:
            original = getattr(mods[mod], fn)
            self._everywhere(everywhere, original,
                             self._generator_span(f"{mod}.{fn}", original))
        for mod, fn in COUNTS:
            original = getattr(mods[mod], fn)
            self._everywhere(everywhere, original,
                             self._counted(f"{mod}.{fn}", original))
        for fn in TERMS_COUNTED:
            original = getattr(terms, fn)
            self._everywhere([mods[m] for m in TERMS_CALLERS], original,
                             self._counted(f"terms.{fn}", original))
        for mod, fn, name in SIZED:
            original = getattr(mods[mod], fn)
            self._everywhere(everywhere, original, self._sized(name, original))
        self._patch_methods(orderings, state)

    def _patch_methods(self, orderings, state):
        counts = self.counts
        for cls in (orderings.CountKBO, orderings.GroundLPO):
            self._replace(cls, "compare_atoms",
                          self._counted("orderings.compare_atoms",
                                        cls.__dict__["compare_atoms"]))
        self._replace(state.Trail, "position_of_atom",
                      self._counted("state.Trail.position_of_atom",
                                    state.Trail.position_of_atom))
        push = state.Trail.push

        def counted_push(trail, entry):
            counts["state.trail_copied"] += len(trail.entries) + 1
            return push(trail, entry)
        self._replace(state.Trail, "push", counted_push)

        bound_init = self._span("orderings.Bound", orderings.Bound.__init__)

        def init(bound, *args, **kwargs):
            bound_init(bound, *args, **kwargs)
            if bound._atoms_below is not None:
                counts["orderings.atoms_kept"] += len(bound._atoms_below)
        self._replace(orderings.Bound, "__init__", init)
        self._replace(orderings.Bound, "grow_to",
                      self._span("orderings.grow_to",
                                 orderings.Bound.grow_to))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def write(self, path, scale):
        """One JSON object per span; ``scale`` is the problem's reference
        time per wall second."""
        with open(path, "w") as out:
            for sid, parent, problem, name, start, end, busy in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "problem": problem,
                    "name": name, "start": start, "end": end, "busy": busy,
                    "scale": scale[problem]}) + "\n")

    def summary(self, scale):
        """Per span name: call count, busy time, and self time (busy time
        minus the busy time of direct children); plus, for a few groups of
        names, the busy time of the spans not nested in another span of
        the same group.  Times are wall times multiplied by the problem's
        ``scale``."""
        names = {sid: name for sid, _, _, name, *_ in self.spans}
        calls, busy, child = Counter(), defaultdict(float), defaultdict(float)
        spans = [(sid, parent, name, b * scale[problem])
                 for sid, parent, problem, name, _, _, b in self.spans]
        for sid, parent, name, b in spans:
            calls[name] += 1
            busy[name] += b
            if parent is not None:
                child[names[parent]] += b
        selfs = {n: busy[n] - child[n] for n in busy}

        def outermost(group):
            return sum(b for _, parent, name, b in spans
                       if name in group and names.get(parent) not in group)
        groups = {
            "bound": outermost({"strategy.configure_bound",
                                "orderings.grow_to", "orderings.Bound"}),
            "entails": outermost({"oracle.entails_bounded",
                                  "oracle.ground_entails"}),
        }
        return calls, busy, selfs, groups
