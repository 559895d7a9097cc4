"""In-memory span recorder and the rebinding that instruments ``offo``.

A span is (name, start, end, parent span) and every span of one recorder
shares its run id.  Spans are appended to flat arrays on the hot path and
only aggregated, into self times and call counts keyed by (name, parent
name), after the traced pass has finished.

``instrument`` rebinds public names of the ``offo`` modules for the length of
a ``with`` block and restores the originals on exit, so the untraced passes
run the program exactly as shipped.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter


class SpanRecorder:
    """Flat span store: name id, parent span index, start and end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []  # indices of the open spans
        self.counts: dict = {}  # event counters filled by the hooks

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self):
        """Name of the innermost open span, or None outside any span."""
        if not self._stack:
            return None
        return self.names[self.name_of[self._stack[-1]]]

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recorded as span ``name``; ``after(args, kwargs, result)``
        runs once the span is closed, with the parent span current again."""
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- aggregation after the pass ------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name=name_of, parent=parent, start=start, end=end)


class SpanSummary:
    """Self times, total times and (name, parent name) call counts."""

    def __init__(self, rec: SpanRecorder):
        name_of, parent, start, end = rec.arrays()
        self.names = rec.names
        k = len(rec.names)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self._self = np.bincount(name_of, weights=dur - child, minlength=k)
        self._total = np.bincount(name_of, weights=dur, minlength=k)
        self._calls = np.bincount(name_of, minlength=k)
        pname = np.where(has_parent, name_of[np.maximum(parent, 0)], k)
        pairs = np.bincount(name_of * (k + 1) + pname, minlength=k * (k + 1))
        self._pairs = pairs.reshape(k, k + 1)
        self._name_of, self._parent, self._dur = name_of, parent, dur
        self.count = len(dur)

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def self_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._self[i])

    def total_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._total[i])

    def calls(self, name: str, parent=None) -> int:
        i = self._id(name)
        if i is None:
            return 0
        if parent is None:
            return int(self._calls[i])
        j = self._id(parent)
        return 0 if j is None else int(self._pairs[i, j])

    def total_minus_children(self, name: str, child: str) -> float:
        """Summed duration of ``name`` spans minus their direct ``child`` spans."""
        i, j = self._id(name), self._id(child)
        if i is None:
            return 0.0
        if j is None:
            return self.total_s(name)
        is_child = (self._name_of == j) & (self._parent >= 0)
        under = is_child.copy()
        under[is_child] = self._name_of[self._parent[is_child]] == i
        return self.total_s(name) - float(self._dur[under].sum())


# ---------------------------------------------------------------------------
# rebinding the program's public names
# ---------------------------------------------------------------------------

def _rebindings(offo):
    """(owner, attribute, span name) for every name the traced pass rebinds."""
    return [
        (offo.driver, "update_scaling", "scaling.update"),
        (offo.driver, "make_region", "step.region"),
        (offo.driver, "update_model", "model.update"),
        (offo.driver, "cauchy_point", "step.cauchy"),
        (offo.driver, "solve_tr_step", "step.solve"),
        (offo.driver, "model_value", "step.model_value"),
        # the solver's own model values, so its B.v products are not taken
        # for CG products
        (offo.step, "model_value", "step.model_value"),
        (offo.step, "apply_model", "model.apply"),
        # the model module's binding is only used by the power-method cap
        (offo.model, "apply_model", "model.apply"),
        (offo.problems, "fd_hessian", "problems.fd_hessian"),
        (offo.bench, "run_variant", "driver.run"),
        (offo.problems.Problem, "evaluate", "problems.evaluate"),
        (offo.problems.NoisyProblem, "evaluate", "problems.noise"),
    ]


def _originals(offo):
    """What each rebound name must be again once the traced pass is over."""
    return {
        (offo.driver, "update_scaling"): offo.scaling.update_scaling,
        (offo.driver, "make_region"): offo.step.make_region,
        (offo.driver, "update_model"): offo.model.update_model,
        (offo.driver, "cauchy_point"): offo.step.cauchy_point,
        (offo.driver, "solve_tr_step"): offo.step.solve_tr_step,
        (offo.bench, "run_variant"): offo.driver.run_variant,
    }


def _hooks(offo, rec: SpanRecorder) -> dict:
    curvature_min = offo.model.CURVATURE_MIN

    def after_update_model(args, kwargs, model):
        s_k = args[1] if len(args) > 1 else kwargs.get("s_k")
        y_k = args[2] if len(args) > 2 else kwargs.get("y_k")
        enforced = model.kind == "exact"
        if model.kind in ("bb", "lbfgs") and s_k is not None:
            rec.bump("model.secant_pairs")
            ss = float(np.dot(s_k, s_k))
            if ss != 0.0 and float(np.dot(y_k, s_k)) >= curvature_min * ss:
                rec.bump("model.secant_accepted")
                enforced = True
        if enforced and model.scale != 1.0:
            rec.bump("model.cap_rescales")

    def after_solve(args, kwargs, s):
        cauchy = kwargs.get("cauchy")
        if cauchy is not None and s is cauchy.sQ and not args[1].is_zero:
            rec.bump("step.cauchy_fallbacks")

    def after_evaluate(args, kwargs, out):
        want = args[2] if len(args) > 2 else kwargs.get("want")
        if tuple(want) == ("value",) and rec.current() in ("driver.run", "problems.noise"):
            rec.bump("driver.armijo_trials")

    return {"model.update": after_update_model, "step.solve": after_solve,
            "problems.evaluate": after_evaluate}


@contextmanager
def instrument(offo, rec: SpanRecorder):
    """Rebind the program's public names to span-recording wrappers."""
    hooks = _hooks(offo, rec)
    saved = []
    try:
        for owner, attr, name in _rebindings(offo):
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, rec.wrap(name, fn, hooks.get(name)))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def restored(offo) -> list:
    """Names still rebound after ``instrument`` exited (empty when clean)."""
    bad = []
    for owner, attr, _ in _rebindings(offo):
        if hasattr(owner.__dict__[attr], "__wrapped__"):
            bad.append(f"{owner.__name__}.{attr}")
    for (owner, attr), fn in _originals(offo).items():
        if owner.__dict__[attr] is not fn:
            bad.append(f"{owner.__name__}.{attr}")
    if offo.step.apply_model is not offo.model.apply_model:
        bad.append("step.apply_model")
    if offo.driver.model_value is not offo.step.model_value:
        bad.append("driver.model_value")
    return sorted(set(bad))


def traced_problem(problem, rec: SpanRecorder):
    """Copy of ``problem`` whose f/g/h oracles are recorded as spans."""
    changes = {"f": rec.wrap("problems.value", problem.f),
               "g": rec.wrap("problems.gradient", problem.g)}
    if problem.h is not None:
        changes["h"] = rec.wrap("problems.hessian", problem.h)
    return dataclasses.replace(problem, **changes)
