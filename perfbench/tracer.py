"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public functions of every ``fdrec`` module from the
outside: it replaces the module attributes (and every ``from x import f``
binding of them in other ``fdrec`` modules) with timing wrappers.  Nothing
under ``src/`` is edited or imported differently.

Each wrapped call becomes a span with a name, start, end and parent span.
Spans are kept in memory in compact arrays and written out when the run ends,
together with a roll-up per phase (``setup``, ``timed``, ``verify``) of call
counts, inclusive time and self time (a span's duration minus the time its
child spans cover), plus named counters (cases, candidates, tape nodes, the
training-loop split and so on).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "cli", "config", "dataio", "features", "situsim", "analysis", "diffcore",
    "training", "baselines", "reprec", "exprec", "ensemble", "evalharness",
)


class SpanRecorder:
    """In-memory spans plus per-phase roll-ups; single-threaded."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.phase = "setup"
        self.stage_model: str | None = None  # --model of the running stage
        self.train_model: str | None = None  # set while run_training runs
        self._train_part: dict[int, str] = {}
        self._rollup: dict[str, dict[int, list[float]]] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self.last_duration = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value: float = 1) -> None:
        bucket = self.counters.setdefault(self.phase, {})
        bucket[key] = bucket.get(key, 0) + value

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named ``names[nid]``; sets last_duration."""
        sid = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(sid)
        self._child.append(0.0)
        t0 = time.perf_counter()
        self.span_start.append(t0 - self.t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.span_end[sid] = t1 - self.t0
            stack.pop()
            child = self._child.pop()
            dur = t1 - t0
            if self._child:
                self._child[-1] += dur
            phase = self._rollup.get(self.phase)
            if phase is None:
                phase = self._rollup[self.phase] = {}
            agg = phase.get(nid)
            if agg is None:
                phase[nid] = [1, dur, dur - child]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
            if self.train_model is not None:
                part = self._train_part.get(nid)
                if part is not None:
                    self.count(f"training.{self.train_model}.{part}", dur)
            self.last_duration = dur

    def rollup(self) -> dict[str, dict[str, dict[str, float]]]:
        """{phase: {span name: {calls, total_s, self_s}}}."""
        return {
            phase: {
                self.names[nid]: {"calls": int(c), "total_s": t, "self_s": s}
                for nid, (c, t, s) in sorted(aggs.items())
            }
            for phase, aggs in self._rollup.items()
        }

    def dump(self, prefix: str) -> int:
        """Write every span: ``<prefix>.json`` describes ``<prefix>.bin``.

        The binary file holds four native arrays of ``count`` items each, in
        order: name index, parent span (-1 for a root), start and end in
        seconds since the recorder was created.
        """
        n = len(self.span_start)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "count": n,
            "arrays": [["name", "l", self.span_name.itemsize],
                       ["parent", "l", self.span_parent.itemsize],
                       ["start_s", "d", 8], ["end_s", "d", 8]],
            "byteorder": sys.byteorder,
            "names": self.names,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        return n


class _TimedVJP:
    """Stands in for a tape node's vector-Jacobian product and times it."""

    __slots__ = ("rec", "nid", "fn")

    def __init__(self, rec: SpanRecorder, nid: int, fn):
        self.rec = rec
        self.nid = nid
        self.fn = fn

    def __call__(self, g):
        return self.rec.call(self.nid, self.fn, (g,), {})


def _plain(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        return rec.call(nid, fn, args, kwargs)

    return wrapper


def _diffcore_op(rec: SpanRecorder, name: str, fn, var_cls):
    """Times the forward call and, via the returned node, its backward."""
    nid = rec.name_id(name)
    bwd = rec.name_id(name + ".bwd")

    def wrapper(*args, **kwargs):
        out = rec.call(nid, fn, args, kwargs)
        if type(out) is var_cls:
            vjp = out._vjp
            # a composite op returns a node an inner primitive already wraps
            if vjp is not None and type(vjp) is not _TimedVJP:
                out._vjp = _TimedVJP(rec, bwd, vjp)
        return out

    return wrapper


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _candidates(case) -> int:
    return _len(getattr(case, "candidates", ()))


def _run_training(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)
    fwd = rec.name_id("training.batch_loss")
    val = rec.name_id("training.val_metric")
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        model = rec.stage_model or "other"
        bound = sig.bind(*args, **kwargs)
        batch_loss = bound.arguments.get("batch_loss")
        val_metric = bound.arguments.get("val_metric")
        if batch_loss is not None:
            def timed_loss(*a, **k):
                out = rec.call(fwd, batch_loss, a, k)
                rec.count(f"training.{model}.batches")
                rec.count(f"training.{model}.forward_s", rec.last_duration)
                return out
            bound.arguments["batch_loss"] = timed_loss
        if val_metric is not None:
            def timed_val(*a, **k):
                out = rec.call(val, val_metric, a, k)
                rec.count(f"training.{model}.validate_s", rec.last_duration)
                return out
            bound.arguments["val_metric"] = timed_val
        outer = rec.train_model
        rec.train_model = model
        try:
            result = rec.call(nid, fn, bound.args, bound.kwargs)
        finally:
            rec.train_model = outer
        rec.count("training.run_training_s", rec.last_duration)
        rec.count(f"training.{model}.epochs", getattr(result, "epochs", 0))
        return result

    return wrapper


def _evaluate(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        scorer = bound.arguments.get("scorer")
        if scorer is not None:
            bound.apply_defaults()
            model = str(bound.arguments.get("model_id", "model"))
            sid = rec.name_id(f"evalharness.score.{model}")

            def timed_scorer(*a, **k):
                out = rec.call(sid, scorer, a, k)
                rec.count(f"evalharness.score.{model}.cases")
                rec.count(f"evalharness.score.{model}.candidates",
                          _candidates(a[0]) if a else 0)
                return out

            bound.arguments["scorer"] = timed_scorer
        return rec.call(nid, fn, bound.args, bound.kwargs)

    return wrapper


def _build_cases(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        cases = rec.call(nid, fn, args, kwargs)
        rec.count("evalharness.build_cases.cases", _len(cases))
        rec.count("evalharness.build_cases.candidates",
                  sum(_candidates(c) for c in cases))
        return cases

    return wrapper


def _ensemble_train(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        before = rec.counters.get(rec.phase, {}).get("training.run_training_s", 0.0)
        out = rec.call(nid, fn, args, kwargs)
        total = rec.last_duration
        after = rec.counters.get(rec.phase, {}).get("training.run_training_s", 0.0)
        rec.count("ensemble.slates.self_s", total - (after - before))
        return out

    return wrapper


def _slates(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        slates = rec.call(nid, fn, args, kwargs)
        rec.count("ensemble.slates.count", _len(slates))
        return slates

    return wrapper


_SPECIAL = {
    "training.run_training": _run_training,
    "evalharness.evaluate": _evaluate,
    "evalharness.build_cases": _build_cases,
    "ensemble.ensemble_train": _ensemble_train,
    "ensemble._build_training_slates": _slates,
}


def _targets(mod):
    """Public functions defined in ``mod`` (generators excluded)."""
    for attr, obj in vars(mod).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield attr, obj


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer's public functions and count ``Var`` constructions."""
    mods = {}
    for layer in LAYERS:
        __import__(f"fdrec.{layer}")
        mods[layer] = sys.modules[f"fdrec.{layer}"]
    var_cls = mods["diffcore"].Var

    replace: dict[object, object] = {}
    for layer, mod in mods.items():
        targets = list(_targets(mod))
        private = getattr(mod, "_build_training_slates", None)
        if layer == "ensemble" and inspect.isfunction(private):
            targets.append(("_build_training_slates", private))
        for attr, fn in targets:
            name = f"{layer}.{attr}"
            if name in _SPECIAL:
                replace[fn] = _SPECIAL[name](rec, name, fn)
            elif layer == "diffcore":
                replace[fn] = _diffcore_op(rec, name, fn, var_cls)
            else:
                replace[fn] = _plain(rec, name, fn)

    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                setattr(mod, attr, replace[obj])

    for part, fn_name in (("backward_s", "backward"), ("optimizer_s", "adam_step")):
        rec._train_part[rec.name_id(f"diffcore.{fn_name}")] = part

    init = var_cls.__init__

    def counting_init(self, *args, **kwargs):
        rec.count("diffcore.tape_nodes")
        init(self, *args, **kwargs)

    var_cls.__init__ = counting_init
