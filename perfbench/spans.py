"""Span recorder for the benchmark's traced runs.

Wraps the package's public functions at the module attributes where the
pipeline looks them up (a name imported with ``from .x import f`` is
looked up in the importing module, so each function may have several
sites), records one span per call, and turns the spans into per-layer
metrics.  Nothing under ``src/`` is modified; every wrapped name is
restored by :meth:`Recorder.restore`.
"""

from __future__ import annotations

import functools
import gzip
import time

from sourcecount import classical, detectors, experiments, linalg, network, signal_model

# Span name -> (owner, attribute) lookup sites.  The span name is the
# module that defines the function; the owners are where callers find it,
# including the defining module itself for callers that use the module
# attribute.
SITES = {
    "experiments.generate_trials": [(experiments, "generate_trials")],
    "experiments.draw_scenario": [(experiments, "draw_scenario")],
    "experiments.train_detector": [(experiments, "train_detector")],
    "experiments.ClassicalDetector.decide_batch": [
        (experiments.ClassicalDetector, "decide_batch")],
    "signal_model.generate_snapshots": [(experiments, "generate_snapshots"),
                                        (signal_model, "generate_snapshots")],
    "signal_model.sample_covariance": [(experiments, "sample_covariance"),
                                       (signal_model, "sample_covariance")],
    "signal_model.fbss_covariance": [(detectors, "fbss_covariance"),
                                     (signal_model, "fbss_covariance")],
    "linalg.hermitian_eig": [(detectors, "hermitian_eig"), (linalg, "hermitian_eig")],
    "detectors.make_feature_eigen": [(experiments, "make_feature_eigen"),
                                     (detectors, "make_feature_eigen")],
    "detectors.make_feature_fbss": [(experiments, "make_feature_fbss"),
                                    (detectors, "make_feature_fbss")],
    "detectors.make_feature_cov": [(experiments, "make_feature_cov"),
                                   (detectors, "make_feature_cov")],
    "detectors.Detector.decide_batch": [(detectors.Detector, "decide_batch")],
    "detectors.Detector.estimate": [(detectors.Detector, "estimate")],
    "network.train": [(experiments, "train"), (network, "train")],
    "network.adam_step": [(network, "adam_step")],
    "network.compute_loss": [(network, "compute_loss")],
    "network.forward": [(detectors, "forward"), (network, "forward")],
    "classical.aic": [(experiments, "aic"), (classical, "aic")],
    "classical.mdl": [(experiments, "mdl"), (classical, "mdl")],
}

# Work items of one call, for the spans whose count is not just "calls".
_ITEMS = {
    "experiments.generate_trials": lambda args, result: int(result.labels.size),
    "detectors.Detector.decide_batch": lambda args, result: len(result),
}

# Spans that label their subtree (the detector kind being trained).
_TAGS = {"experiments.train_detector":
         lambda args, kwargs: kwargs["kind"] if "kind" in kwargs else args[1]}

KINDS = ("ernet", "ecnet", "covnet")


class Recorder:
    """Keeps spans in memory as [name, start_ns, end_ns, parent, tag, items, failed]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        """Wraps every site; a site the package no longer has is skipped,
        and its span then counts zero calls."""
        for name, sites in SITES.items():
            for owner, attr in sites:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        items_of = _ITEMS.get(name)
        tag_of = _TAGS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1,
                    tag_of(args, kwargs) if tag_of else None, 1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if items_of:
                span[5] = items_of(args, result)
            return result

        return traced

    def write(self, path):
        """Writes the spans as gzip'd CSV: index,name,start_ns,end_ns,parent,tag,failed."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent,tag,failed\n")
            for i, (name, start, end, parent, tag, _, failed) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{tag or ''},{int(failed)}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Busy and self seconds, calls and items per span name, plus the
        per-kind splits of training (kind taken from the enclosing
        ``train_detector`` span)."""
        spans = self.spans
        child = [0] * len(spans)
        tags: list[str | None] = [None] * len(spans)
        busy: dict[str, int] = dict.fromkeys(SITES, 0)
        self_ns: dict[str, int] = dict.fromkeys(SITES, 0)
        calls: dict[str, int] = dict.fromkeys(SITES, 0)
        items: dict[str, int] = dict.fromkeys(SITES, 0)
        failed = 0
        for i, (name, start, end, parent, tag, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
            tags[i] = tag if tag is not None else (tags[parent] if parent >= 0 else None)
        train_busy = dict.fromkeys(KINDS, 0)
        train_self = dict.fromkeys(KINDS, 0)
        for i, (name, start, end, _, _, n, bad) in enumerate(spans):
            dur = end - start
            busy[name] += dur
            self_ns[name] += dur - child[i]
            calls[name] += 1
            items[name] += n
            failed += bad
            if name == "experiments.train_detector" and tags[i] in train_busy:
                train_busy[tags[i]] += dur
            elif name == "network.train" and tags[i] in train_self:
                train_self[tags[i]] += dur - child[i]

        def us_per_call(name):
            return busy[name] / calls[name] / 1e3 if calls[name] else 0.0

        out = {f"{name}.calls": float(calls[name]) for name in SITES}
        out.update({
            "experiments.generate_trials.busy_s": busy["experiments.generate_trials"] / 1e9,
            "experiments.generate_trials.trials": float(items["experiments.generate_trials"]),
            "experiments.draw_scenario.busy_s": busy["experiments.draw_scenario"] / 1e9,
            "experiments.ClassicalDetector.decide_batch.self_s":
                self_ns["experiments.ClassicalDetector.decide_batch"] / 1e9,
            "linalg.hermitian_eig.busy_s": busy["linalg.hermitian_eig"] / 1e9,
            "linalg.hermitian_eig.us_per_call": us_per_call("linalg.hermitian_eig"),
            "detectors.Detector.decide_batch.busy_s": busy["detectors.Detector.decide_batch"] / 1e9,
            "detectors.Detector.decide_batch.rows": float(items["detectors.Detector.decide_batch"]),
            "detectors.Detector.estimate.self_s": self_ns["detectors.Detector.estimate"] / 1e9,
            "network.train.steps": float(calls["network.adam_step"]),
            "network.adam_step.busy_s": busy["network.adam_step"] / 1e9,
            "network.adam_step.us_per_call": us_per_call("network.adam_step"),
            "network.compute_loss.busy_s": busy["network.compute_loss"] / 1e9,
            "network.forward.busy_s": busy["network.forward"] / 1e9,
            "classical.aic.busy_s": busy["classical.aic"] / 1e9,
            "classical.mdl.busy_s": busy["classical.mdl"] / 1e9,
            "trace.spans": float(len(spans)),
            "trace.failed_calls": float(failed),
        })
        for name in ("generate_snapshots", "sample_covariance", "fbss_covariance"):
            out[f"signal_model.{name}.busy_s"] = busy[f"signal_model.{name}"] / 1e9
        for name in ("eigen", "fbss", "cov"):
            key = f"detectors.make_feature_{name}"
            out[f"{key}.self_s"] = self_ns[key] / 1e9
        for kind in KINDS:
            out[f"experiments.train_detector.busy_s.{kind}"] = train_busy[kind] / 1e9
            out[f"network.train.self_s.{kind}"] = train_self[kind] / 1e9
        return out
