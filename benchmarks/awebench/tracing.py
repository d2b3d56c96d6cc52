"""Spans recorded around calls into awekit's public functions.

The traced run wraps module functions and methods from the outside: each
call records a span with its name, start, end, parent span and thread id.
A layer's self time is its span time minus the part of that interval its
child spans cover. Per-op autodiff primitives are deliberately not
wrapped (thousands per backward pass would swamp the trace).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder, safe to use from worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record ``name`` around the body. ``parent`` defaults to the
        innermost open span on this thread; pass it explicitly to link a
        span on a worker thread to the span that submitted the work."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            sp = Span(next(self._ids), name, parent, threading.get_ident(), attrs=dict(attrs))
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans
    (children on any thread, clipped to the parent's interval)."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        clipped = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.id, ())]
        out[sp.id] = sp.duration - covered((s, e) for s, e in clipped if e > s)
    return out


def roots(spans) -> dict[int, Span]:
    """Span id -> its outermost ancestor (itself when it has no parent)."""
    by_id = {sp.id: sp for sp in spans}
    out: dict[int, Span] = {}
    for sp in spans:
        chain = [sp]
        while chain[-1].id not in out and chain[-1].parent in by_id:
            chain.append(by_id[chain[-1].parent])
        root = out.get(chain[-1].id, chain[-1])
        for c in chain:
            out[c.id] = root
    return out


def self_time_overruns(spans, tolerance: float = 1e-6) -> list[str]:
    """Check that on every thread the self times of the spans under a
    stage add up to no more than the stage's wall time."""
    selfs = self_times(spans)
    root = roots(spans)
    sums: dict = {}
    for sp in spans:
        r = root[sp.id]
        if r.name.startswith("stage."):
            key = (r.id, sp.thread)
            sums[key] = sums.get(key, 0.0) + selfs[sp.id]
    by_id = {sp.id: sp for sp in spans}
    return [f"{by_id[rid].name}: self time {total:.6f}s on thread {thread} exceeds "
            f"stage wall {by_id[rid].duration:.6f}s"
            for (rid, thread), total in sorted(sums.items())
            if total > by_id[rid].duration + tolerance]


# Per-layer metrics of the traced run -> unit.
PER_LAYER = {
    "autodiff.backward.calls": "count",
    "autodiff.backward.busy_s": "s",
    "autodiff.backward.nodes": "count",
    "autodiff.zero_norm_events": "count",
    "nn.recurrent.calls": "count",
    "nn.recurrent.busy_s": "s",
    "nn.recurrent.frames": "count",
    "nn.optimizer.busy_s": "s",
    "nn.checkpoint.load_s": "s",
    "nn.checkpoint.save_s": "s",
    "encoders.isolated.calls": "count",
    "encoders.isolated.rows": "count",
    "encoders.isolated.busy_s": "s",
    "encoders.padded.calls": "count",
    "encoders.padded.busy_s": "s",
    "encoders.written.busy_s": "s",
    "objectives.multiview.calls": "count",
    "objectives.multiview.busy_s": "s",
    "ctc.loss.calls": "count",
    "ctc.loss.busy_s": "s",
    "ctc.decode.busy_s": "s",
    "segmental.score.busy_s": "s",
    "segmental.loss.calls": "count",
    "segmental.loss.busy_s": "s",
    "segmental.viterbi.calls": "count",
    "segmental.viterbi.busy_s": "s",
    "segmental.cap.mean": "frames",
    "dtw.batch.calls": "count",
    "dtw.batch.busy_s": "s",
    "dtw.pairs": "count",
    "dtw.cells": "count",
    "dtw.cells_per_s": "1/s",
    "search.build.busy_s": "s",
    "search.save.busy_s": "s",
    "search.load.busy_s": "s",
    "search.index.bytes": "B",
    "search.lookup.calls": "count",
    "search.lookup.busy_s": "s",
    "search.candidates_per_query": "count",
    "search.candidate_frac": "frac",
    "metrics.ap.busy_s": "s",
    "metrics.qbe.busy_s": "s",
    "corpus.archive.loads": "count",
    "corpus.archive.busy_s": "s",
    "corpus.archive.bytes": "B",
    "pipelines.parallel_map.calls": "count",
    "pipelines.parallel_map.items": "count",
    "pipelines.parallel_map.task_busy_s": "s",
    "pipelines.parallel_map.efficiency": "frac",
    "recognition.dev_wer.busy_s": "s",
    "synth.generate.busy_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from spans under ``stage.*`` roots (and, for
    ``synth``, under the ``setup`` root). ``busy_s`` is self time, except
    ``recognition.dev_wer.busy_s``, which is the wall time inside dev WER
    (its work happens in wrapped children). The two harness-measured
    metrics, ``autodiff.zero_norm_events`` and ``trace.overhead_frac``,
    are left for the caller."""
    selfs = self_times(spans)
    root = roots(spans)
    agg: dict = {}
    for sp in spans:
        r = root[sp.id].name
        if not (r.startswith("stage.") or (r == "setup" and sp.name == "synth.generate")):
            continue
        a = agg.setdefault(sp.name, {"calls": 0, "self": 0.0, "wall": 0.0, "capacity": 0.0})
        a["calls"] += 1
        a["self"] += selfs[sp.id]
        a["wall"] += sp.duration
        a["capacity"] += sp.duration * sp.attrs.get("workers", 1)
        for k, v in sp.attrs.items():
            a[k] = a.get(k, 0) + v

    def get(name, key="self"):
        return float(agg.get(name, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for key in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = get(layer, "calls")
        elif stat == "busy_s":
            m[key] = get(layer)
    m["autodiff.backward.nodes"] = ratio(get("autodiff.backward", "nodes"), get("autodiff.backward", "calls"))
    m["nn.recurrent.frames"] = get("nn.recurrent", "frames")
    m["nn.checkpoint.load_s"] = get("nn.checkpoint.load")
    m["nn.checkpoint.save_s"] = get("nn.checkpoint.save")
    m["encoders.isolated.rows"] = get("encoders.isolated", "rows")
    m["segmental.cap.mean"] = ratio(get("segmental.cap", "cap"), get("segmental.cap", "calls"))
    m["dtw.pairs"] = get("dtw.batch", "pairs")
    m["dtw.cells"] = get("dtw.batch", "cells")
    m["dtw.cells_per_s"] = ratio(m["dtw.cells"], m["dtw.batch.busy_s"])
    m["search.index.bytes"] = ratio(get("search.save", "bytes"), get("search.save", "calls"))
    m["search.candidates_per_query"] = ratio(get("search.lookup", "candidates"), m["search.lookup.calls"])
    m["search.candidate_frac"] = ratio(get("search.lookup", "frac"), m["search.lookup.calls"])
    m["corpus.archive.loads"] = get("corpus.archive", "calls")
    m["corpus.archive.bytes"] = get("corpus.archive", "bytes")
    m["pipelines.parallel_map.items"] = get("pipelines.parallel_map", "items")
    m["pipelines.parallel_map.task_busy_s"] = get("pipelines.parallel_map.task", "wall")
    m["pipelines.parallel_map.efficiency"] = ratio(m["pipelines.parallel_map.task_busy_s"],
                                                   get("pipelines.parallel_map", "capacity"))
    m["recognition.dev_wer.busy_s"] = get("recognition.dev_wer", "wall")
    return m


# ---------------------------------------------------------------------------
# Instrumentation of awekit


def _wrap(tracer: Tracer, name: str, fn, counters=None):
    """``fn`` recording a span ``name``; ``counters(args, kwargs, result)``
    returns extra span attributes (work counts)."""

    def wrapped(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if counters is not None:
                sp.attrs.update(counters(args, kwargs, result))
            return result

    return wrapped


def _recurrent_frames(args, kwargs, result):
    b, t = args[1].values.shape[:2]
    return {"frames": b * t}


def _isolated_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _dtw_work(args, kwargs, result):
    pairs = args[0]
    return {"pairs": len(pairs), "cells": sum(len(x) * len(y) for x, y in pairs)}


def _lookup_work(args, kwargs, result):
    return {"candidates": len(result), "frac": len(result) / args[1].size}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cap_value(args, kwargs, result):
    return {"cap": int(result)}


def _span_table(ak):
    """(owner, attribute, span name, counters) for every wrapped name.

    Names are patched where their callers look them up: ``recognition``
    imports ``parallel_map`` by name, so it is patched there as well as
    in ``pipelines``.
    """
    ad, cp, ctc, dtw, enc = ak.autodiff, ak.corpus, ak.ctc, ak.dtw, ak.encoders
    mx, nn, obj, srch, segm = ak.metrics, ak.nn, ak.objectives, ak.search, ak.segmental
    synth, rec = ak.synth, ak.recognition
    table = [
        (ad.Tape, "backward", "autodiff.backward", lambda a, k, r: {"nodes": len(a[0].nodes)}),
        (nn, "run_recurrent_layer", "nn.recurrent", _recurrent_frames),
        (nn.Adam, "step", "nn.optimizer", None),
        (nn.NesterovSGD, "step", "nn.optimizer", None),
        (nn, "save_checkpoint", "nn.checkpoint.save", None),
        (nn, "load_checkpoint", "nn.checkpoint.load", None),
        (enc.AcousticEncoder, "embed_segments_isolated", "encoders.isolated", _isolated_rows),
        (enc.AcousticEncoder, "encode_padded", "encoders.padded", None),
        (enc.WrittenEncoder, "embed_sequences", "encoders.written", None),
        (obj, "multiview_loss", "objectives.multiview", None),
        (ctc, "ctc_loss", "ctc.loss", None),
        (ctc, "ctc_greedy_decode_with_spans", "ctc.decode", None),
        (segm, "score_segments", "segmental.score", None),
        (segm, "seg_loss", "segmental.loss", None),
        (segm, "viterbi_decode", "segmental.viterbi", None),
        (segm, "batch_segment_cap", "segmental.cap", _cap_value),
        (dtw, "dtw_cost_batch", "dtw.batch", _dtw_work),
        (srch, "build_index", "search.build", None),
        (srch, "save_index", "search.save", _file_bytes),
        (srch, "load_index", "search.load", None),
        (srch, "query_index", "search.lookup", _lookup_work),
        (cp, "load_feature_archive", "corpus.archive", _file_bytes),
        (rec, "dev_wer", "recognition.dev_wer", None),
        (synth, "generate_corpus", "synth.generate", None),
    ]
    for fn in ("average_precision", "acoustic_ap", "cross_view_ap"):
        table.append((mx, fn, "metrics.ap", None))
    for fn in ("fom", "fom_per_query", "otwv", "otwv_per_query", "p_at_k", "p_at_k_per_query",
               "aggregate_median_max", "min_cnxe", "max_twv"):
        table.append((mx, fn, "metrics.qbe", None))
    return table


def _wrap_parallel_map(tracer: Tracer, orig):
    def parallel_map(fn, items, threads):
        items = list(items)
        workers = 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))
        with tracer.span("pipelines.parallel_map", items=len(items), workers=workers) as sp:
            parent = sp.id

            def task(x):
                with tracer.span("pipelines.parallel_map.task", parent=parent):
                    return fn(x)

            return orig(task, items, threads)

    return parallel_map


@contextlib.contextmanager
def instrument(tracer: Tracer, ak):
    """Patch awekit (the package module ``ak``) to record spans into
    ``tracer``; everything is restored on exit."""
    saved = []
    try:
        for owner, attr, name, counters in _span_table(ak):
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tracer, name, orig, counters))
        pm = _wrap_parallel_map(tracer, ak.pipelines.parallel_map)
        for owner in (ak.pipelines, ak.recognition):
            saved.append((owner, "parallel_map", owner.parallel_map))
            owner.parallel_map = pm
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
