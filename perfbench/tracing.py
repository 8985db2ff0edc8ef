"""Spans around the public functions of each mlcvqkd layer.

The tracer wraps a fixed list of public functions, at every attribute of
every loaded mlcvqkd module bound to them (``mlcvqkd.cli.rate_asymptotic``
as well as ``mlcvqkd.keyrate.rate_asymptotic``), so a call is recorded
whichever module it is looked up through. Only public names are used, so
refactors of private helpers do not break the trace. Functions are
patched only while a traced op runs; untraced ops run the program as it
is. Spans stay in memory until the run writes them out.

A span is the tuple (name, start, end, parent, op, counts): ``parent`` is
the index of the enclosing span in ``Tracer.spans`` (-1 for a root) and
``counts`` holds the work items the call handled, where the layer has a
natural count.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "protocol", "statespace", "channel", "features", "classifier", "metrics", "keyrate")


# The work count of a call, from its arguments and result; layers without
# a natural count are traced for time only.
COUNTERS = {
    "channel.transmit_batch": lambda args, kwargs, result: {"symbols": len(args[0])},
    "classifier.train": lambda args, kwargs, result: {"training_rows": len(args[0])},
    "classifier.predict_batch": lambda args, kwargs, result: {
        "query_rows": len(args[1]), "training_rows": int(args[0].n_training)},
    "features.filter_features": lambda args, kwargs, result: {
        "kept": len(result[0]), "attempted": len(result[0]) + len(result[1])},
}

TRACED = {
    "cli": ("main", "load_config", "cmd_learn", "cmd_keyrate", "cmd_optimize"),
    "protocol": ("state_learning",),
    "statespace": ("build_scheme", "ModulationScheme.state_for_labels"),
    "channel": ("transmit_batch",),
    "features": ("extract_batch", "filter_features"),
    "classifier": ("train", "predict_batch", "TrainedClassifier.to_json_dict"),
    "metrics": ("evaluate", "prf", "average_precision", "roc_curve"),
    "keyrate": ("rate_asymptotic", "rate_finite", "optimize_vm"),
}


class Tracer:
    """Records spans of the traced functions while ``active`` is entered."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._op = None

    def _count(self, name, args, kwargs, result):
        try:
            return COUNTERS[name](args, kwargs, result)
        except Exception as exc:  # a changed signature must not break the traced op
            self.count_errors.setdefault(name, repr(exc))
            return None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = self._count(name, args, kwargs, result) if counted else None
                spans[index] = (name, start, end, parent, self._op, counts)

        return traced

    def _install(self) -> list[tuple]:
        """Patch every traced function; returns what to restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mlcvqkd" or n.startswith("mlcvqkd."))]
        restore = []
        for layer, names in TRACED.items():
            home = sys.modules.get(f"mlcvqkd.{layer}")
            for qualname in names:
                span_name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    raw = vars(owner).get(attr) if isinstance(owner, type) else None
                    if raw is None:
                        self.missing.add(span_name)
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        patched = type(raw)(self._wrap(span_name, raw.__func__))
                    else:
                        patched = self._wrap(span_name, raw)
                    restore.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                    continue
                target = getattr(home, qualname, None)
                if not callable(target):
                    self.missing.add(span_name)
                    continue
                patched = self._wrap(span_name, target)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is target:
                            restore.append((module, name, value))
                            setattr(module, name, patched)
        return restore

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace the calls made inside the block as op ``op``."""
        restore = self._install()
        self._op = op
        try:
            yield self
        finally:
            self._op = None
            for owner, name, value in reversed(restore):
                setattr(owner, name, value)

    def to_json_dict(self, origin: float) -> dict:
        """Spans with times in seconds from ``origin``, one row each."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op", "counts"],
            "missing": sorted(self.missing),
            "count_errors": self.count_errors,
            "rows": [[n, s - origin, e - origin, p, op, c] for n, s, e, p, op, c in self.spans],
        }


def op_metrics(spans: list[tuple], op: int) -> dict[str, float]:
    """Per-layer figures of one traced op.

    A layer's self time is the duration of its spans minus the time their
    direct child spans cover; ``*_s`` figures of single functions are
    inclusive of their children.
    """
    mine = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] == op]
    child_time: dict[int, float] = {}
    for _, (_, start, end, parent, _, _) in mine:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list[int]] = {}
    for i, (name, start, end, parent, _, c) in mine:
        duration = end - start
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time.get(i, 0.0)
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        for key, value in (c or {}).items():
            counts.setdefault(f"{name}.{key}", []).append(value)

    def total(name):
        return inclusive.get(name, 0.0)

    rate_calls = calls.get("keyrate.rate_asymptotic", 0) + calls.get("keyrate.rate_finite", 0)
    rate_s = total("keyrate.rate_asymptotic") + total("keyrate.rate_finite")
    query_rows = sum(counts.get("classifier.predict_batch.query_rows", []))
    predict_s = total("classifier.predict_batch")
    kept = sum(counts.get("features.filter_features.kept", []))
    attempted = sum(counts.get("features.filter_features.attempted", []))
    training_rows = counts.get("classifier.train.training_rows", []) + \
        counts.get("classifier.predict_batch.training_rows", [])

    out = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    out.update({
        "protocol.state_learning_s": total("protocol.state_learning"),
        "channel.transmit_s": total("channel.transmit_batch"),
        "channel.symbols": sum(counts.get("channel.transmit_batch.symbols", [])),
        "features.extract_s": total("features.extract_batch"),
        "features.filter_s": total("features.filter_features"),
        "features.kept_ratio": kept / attempted if attempted else 0.0,
        "classifier.train_s": total("classifier.train"),
        "classifier.predict_batch_s": predict_s,
        "classifier.us_per_query": 1e6 * predict_s / query_rows if query_rows else 0.0,
        "classifier.query_rows": query_rows,
        "classifier.training_rows": max(training_rows, default=0),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.average_precision_s": total("metrics.average_precision"),
        "metrics.roc_s": total("metrics.roc_curve"),
        "metrics.prf_s": total("metrics.prf"),
        "keyrate.rate_calls": rate_calls,
        "keyrate.rate_s": rate_s,
        "keyrate.us_per_rate": 1e6 * rate_s / rate_calls if rate_calls else 0.0,
        "keyrate.optimize_s": total("keyrate.optimize_vm"),
    })
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-op figure."""
    return {key: statistics.median(d[key] for d in per_op) for key in per_op[0]}
