"""Outside-in tracing of ttn: spans around calls into each module's public functions.

The program under src/ is not changed. While a Tracer is installed, every
name listed in TRACED is replaced, in every loaded ttn module that binds it,
by a wrapper that records a span; calls the modules make to one another (for
example retrieval.embed_text calling lda.infer) are therefore recorded with
their true parent. Spans live in memory and are written as JSONL when the run
ends. The benchmark pins TTN_THREADS=1, so all spans come from one thread and
a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped per module. Hot inner helpers that a single call
# invokes thousands of times (retrieval.kl_divergence, corpus.tokenize) are
# left out: wrapping them would cost more than the work they do.
TRACED = {
    "corpus": ("load_corpus", "save_corpus", "build_vocabulary", "doc_to_bow"),
    "synth": ("write_dataset",),
    "lda": ("train", "infer", "save_model", "load_model"),
    "nn": ("forward", "backward", "sgd_step", "sigmoid_cross_entropy", "init_params"),
    "textnet": (
        "make_pairs", "train", "augment", "predict_topics", "extract_features",
        "save_checkpoint", "load_checkpoint",
    ),
    "retrieval": ("embed_text", "embed_image", "query", "build_index", "save_index", "load_index"),
    "evaluate": ("train_one_vs_rest", "svm_train", "classification_map"),
    "fileio": ("decode_image", "write_ppm"),
}


def _path_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


# Counts recorded at the boundary, from a call's arguments and result.
def _attrs_lda_train(args, kwargs, result):
    """Also the topics in use per document at the last sweep: n_dk is nonzero
    exactly where theta = (n_dk + alpha) / (n_d + k * alpha) exceeds its floor."""
    corpus, hyper = args[0], args[1]
    tokens = sum(b.n_tokens() for b in corpus)
    alpha, k = hyper.effective_alpha, hyper.k
    in_use = 0
    for bow in corpus:
        theta = result.doc_thetas[bow.doc_id]
        in_use += int(np.count_nonzero(theta * (bow.n_tokens() + k * alpha) - alpha > 0.5))
    return {"tokens": tokens, "sweeps": hyper.n_iters, "token_sweeps": tokens * hyper.n_iters,
            "docs": len(corpus), "topics_in_use": in_use}


def _attrs_lda_infer(args, kwargs, result):
    bow, model = args[0], args[1]
    return {"token_iters": bow.n_tokens() * model.hyper.infer_iters}


def _attrs_make_pairs(args, kwargs, result):
    return {"images": sum(len(d.image_paths) for d in args[0]), "pairs": len(result)}


def _attrs_net_train(args, kwargs, result):
    _, history = result
    return {"iters": len(history), "final_loss": history[-1][2] if history else None}


def _attrs_svm_train(args, kwargs, result):
    return {"steps": len(args[0]) * result.epochs}


def _attrs_map(args, kwargs, result):
    return {"map": result[1]}


def _attrs_load_corpus(args, kwargs, result):
    return {"docs": len(result)}


def _attrs_doc_to_bow(args, kwargs, result):
    return {"tokens": result.n_tokens()}


def _attrs_saved(args, kwargs, result):
    return {"bytes": _path_bytes(args[1])}


ATTRS = {
    "lda.train": _attrs_lda_train,
    "lda.infer": _attrs_lda_infer,
    "lda.save_model": _attrs_saved,
    "textnet.make_pairs": _attrs_make_pairs,
    "textnet.train": _attrs_net_train,
    "retrieval.save_index": _attrs_saved,
    "evaluate.svm_train": _attrs_svm_train,
    "evaluate.classification_map": _attrs_map,
    "corpus.load_corpus": _attrs_load_corpus,
    "corpus.doc_to_bow": _attrs_doc_to_bow,
}


class Tracer:
    """In-memory span recorder. A span is [id, parent, op, name, start_ns, end_ns, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._op = 0
        self._attrs = dict(ATTRS, **{"retrieval.query": self._attrs_query})
        self._scanned = {}  # id(index) -> (index, {modality: entries})

    def _attrs_query(self, args, kwargs, result):
        """Candidates of the target modality, counted once per index."""
        index, target = args[0], args[2]
        if id(index) not in self._scanned:
            counts = {}
            for entry in index.entries:
                counts[entry.modality] = counts.get(entry.modality, 0) + 1
            self._scanned[id(index)] = (index, counts)  # holding the index keeps its id unique
        return {"scanned": self._scanned[id(index)][1].get(target, 0), "returned": len(result)}

    def _open(self, name):
        span = [self._next_id, self._stack[-1] if self._stack else None, self._op, name,
                time.perf_counter_ns(), 0, None]
        self._next_id += 1
        self._stack.append(span[0])
        return span

    def _close(self, span, attrs=None):
        span[5] = time.perf_counter_ns()
        span[6] = attrs
        self._stack.pop()
        self.spans.append(span)

    def op(self, name, fn, *args, **kwargs):
        """Run one benchmark operation as a root span with a fresh op id."""
        self._op += 1
        span = self._open("bench." + name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name, fn):
        attrs_fn = self._attrs.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(span, {"error": True})
                raise
            self._close(span)
            if attrs_fn is not None:
                span[6] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function; returns a callable that undoes it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ttn" or n.startswith("ttn.")]
        undo = []
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"ttn.{layer}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))

        def uninstall():
            for m, attr, original in undo:
                setattr(m, attr, original)

        return uninstall

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, attrs in sorted(self.spans, key=lambda s: s[4]):
                rec = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start_ns": start, "end_ns": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans):
    """Per span id: duration minus the time its direct children cover (ns)."""
    child = defaultdict(int)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


class _Calls:
    """Durations (ms) and summed attributes of all spans with one name."""

    def __init__(self):
        self.ms = []
        self.attrs = defaultdict(float)
        self.last = {}
        self.errors = 0

    def mean_ms(self):
        return sum(self.ms) / len(self.ms) if self.ms else 0.0

    def total_ms(self):
        return sum(self.ms)


def _by_name(spans):
    calls = defaultdict(_Calls)
    for _, _, _, name, start, end, attrs in spans:
        c = calls[name]
        c.ms.append((end - start) / 1e6)
        for key, value in (attrs or {}).items():
            if key == "error":
                c.errors += 1
            elif isinstance(value, (int, float)):
                c.attrs[key] += value
                c.last[key] = value
    return calls


def layer_metrics(spans):
    """The per-layer `<module>.<metric>` values, as (value, unit), from one traced run.

    Layers the timed phase exercises are measured on the spans of timed
    operations (op id > 0) only, so that set-up's prerequisite models do not
    mix in; corpus, synth and fileio, which matter for set-up, on all spans.
    """
    calls = _by_name([s for s in spans if s[2] > 0])
    setup_calls = _by_name(spans)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    tr, inf = calls["lda.train"], calls["lda.infer"]
    m["lda.train_ms"] = (tr.mean_ms(), "ms")
    m["lda.sweeps"] = (tr.attrs["sweeps"], "count")
    m["lda.topics_per_doc"] = (ratio(tr.attrs["topics_in_use"], tr.attrs["docs"]), "count")
    m["lda.tokens"] = (tr.attrs["tokens"], "count")
    m["lda.ns_per_token_sweep"] = (ratio(tr.total_ms(), tr.attrs["token_sweeps"], 1e6), "ns")
    m["lda.infer_calls"] = (len(inf.ms), "count")
    m["lda.infer_us_per_token_iter"] = (ratio(inf.total_ms(), inf.attrs["token_iters"], 1e3), "us")
    m["lda.save_model_ms"] = (calls["lda.save_model"].mean_ms(), "ms")
    m["lda.load_model_ms"] = (calls["lda.load_model"].mean_ms(), "ms")
    m["lda.model_bytes"] = (calls["lda.save_model"].last.get("bytes", 0), "bytes")

    mp, nt, aug = calls["textnet.make_pairs"], calls["textnet.train"], calls["textnet.augment"]
    m["textnet.make_pairs_ms"] = (mp.mean_ms(), "ms")
    m["textnet.pairs"] = (mp.attrs["pairs"], "count")
    m["textnet.images_skipped"] = (mp.attrs["images"] - mp.attrs["pairs"], "count")
    m["textnet.augment_us_per_view"] = (aug.mean_ms() * 1e3, "us")
    compute_ms = sum(_child_ms(spans, "textnet.train", n) for n in
                     ("nn.forward", "nn.backward", "nn.sgd_step", "nn.sigmoid_cross_entropy"))
    m["textnet.input_share"] = (ratio(nt.total_ms() - compute_ms, nt.total_ms()), "ratio")
    m["textnet.train_ms_per_iter"] = (ratio(nt.total_ms(), nt.attrs["iters"]), "ms")
    m["textnet.predict_topics_ms"] = (calls["textnet.predict_topics"].mean_ms(), "ms")
    m["textnet.extract_features_ms"] = (calls["textnet.extract_features"].mean_ms(), "ms")
    m["textnet.save_checkpoint_ms"] = (calls["textnet.save_checkpoint"].mean_ms(), "ms")
    m["textnet.load_checkpoint_ms"] = (calls["textnet.load_checkpoint"].mean_ms(), "ms")
    m["textnet.final_loss"] = (nt.last.get("final_loss", 0.0), "nats")

    q = calls["retrieval.query"]
    m["retrieval.embed_text_ms"] = (calls["retrieval.embed_text"].mean_ms(), "ms")
    m["retrieval.embed_image_ms"] = (calls["retrieval.embed_image"].mean_ms(), "ms")
    m["retrieval.rank_ms"] = (q.mean_ms(), "ms")
    m["retrieval.candidates_per_query"] = (ratio(q.attrs["scanned"], len(q.ms)), "count")
    m["retrieval.returned_per_scanned"] = (ratio(q.attrs["returned"], q.attrs["scanned"]), "ratio")
    m["retrieval.build_index_ms"] = (calls["retrieval.build_index"].mean_ms(), "ms")
    m["retrieval.save_index_ms"] = (calls["retrieval.save_index"].mean_ms(), "ms")
    m["retrieval.load_index_ms"] = (calls["retrieval.load_index"].mean_ms(), "ms")
    m["retrieval.index_bytes"] = (calls["retrieval.save_index"].last.get("bytes", 0), "bytes")

    m["evaluate.svm_train_ms"] = (calls["evaluate.svm_train"].mean_ms(), "ms")
    m["evaluate.svm_steps"] = (calls["evaluate.svm_train"].attrs["steps"], "count")
    m["evaluate.classification_map_ms"] = (calls["evaluate.classification_map"].mean_ms(), "ms")
    m["evaluate.map"] = (calls["evaluate.classification_map"].last.get("map", 0.0), "ratio")

    m["corpus.load_corpus_ms"] = (setup_calls["corpus.load_corpus"].mean_ms(), "ms")
    m["corpus.build_vocabulary_ms"] = (setup_calls["corpus.build_vocabulary"].mean_ms(), "ms")
    m["corpus.doc_to_bow_ms"] = (setup_calls["corpus.doc_to_bow"].mean_ms(), "ms")
    m["corpus.docs"] = (setup_calls["corpus.load_corpus"].attrs["docs"], "count")
    m["corpus.tokens"] = (setup_calls["corpus.doc_to_bow"].attrs["tokens"], "count")
    m["synth.write_dataset_ms"] = (setup_calls["synth.write_dataset"].mean_ms(), "ms")
    dec = setup_calls["fileio.decode_image"]
    m["fileio.decode_image_us"] = (dec.mean_ms() * 1e3, "us")
    m["fileio.images_decoded"] = (len(dec.ms) - dec.errors, "count")
    m["fileio.decode_failures"] = (dec.errors, "count")

    selfs = self_times(spans)
    busy = defaultdict(float)
    for s in spans:
        layer = s[3].split(".", 1)[0]
        if layer in TRACED:
            busy[layer] += selfs[s[0]] / 1e6
    for layer in TRACED:
        m[f"{layer}.self_ms"] = (busy[layer], "ms")
    return m


def _child_ms(spans, parent_name, child_name):
    """Total ms of spans named child_name whose direct parent is named parent_name."""
    parents = {s[0] for s in spans if s[3] == parent_name}
    return sum((s[5] - s[4]) / 1e6 for s in spans if s[3] == child_name and s[1] in parents)
