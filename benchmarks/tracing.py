"""Outside-in tracing of chankey's layers.

A span is one call into a public function of a chankey module.  Spans are
recorded by replacing the function under every name a chankey module looks
it up by (``chankey.pipeline.sample_paths`` as well as
``chankey.channel.sample_paths``), so no file under ``src/`` changes and a
call that moves to another module is still seen.  Methods are wrapped on
their class.  ``Tracer.patched()`` restores every original on exit.

Spans are aggregated in memory per name (calls, total time, time covered by
traced child spans, work counters) rather than stored one by one: a keygen
session makes ~500 calls, and the aggregate is all the metrics need.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# (span name, layer, defining module, attribute).  An attribute "Cls.meth"
# wraps a method on its class.
SPANS = (
    ("channel.sample_paths", "channel", "chankey.channel", "sample_paths"),
    ("channel.time_coefficients", "channel", "chankey.channel",
     "time_coefficients"),
    ("rng.split_streams", "rng", "chankey.rng", "split_streams"),
    ("sounding.interleave", "sounding", "chankey.sounding", "interleave"),
    ("sounding.two_way_sound", "sounding", "chankey.sounding",
     "two_way_sound"),
    ("sounding.apply_phase_offset", "sounding", "chankey.sounding",
     "apply_phase_offset"),
    ("pipeline.run_session", "pipeline", "chankey.pipeline", "run_session"),
    ("pipeline.sweep_rate_vs_snr", "pipeline", "chankey.pipeline",
     "sweep_rate_vs_snr"),
    ("quantize.quantize", "quantize", "chankey.quantize", "quantize"),
    ("quantize.soft_evidence", "quantize", "chankey.quantize",
     "soft_evidence"),
    ("quantize.hard_evidence", "quantize", "chankey.quantize",
     "hard_evidence"),
    ("quantize.confusion", "quantize", "chankey.quantize",
     "_confusion_cached"),
    ("codec.construct_regular", "codec.matrix", "chankey.codec.matrix",
     "construct_regular"),
    ("codec.construct_irregular", "codec.matrix", "chankey.codec.matrix",
     "construct_irregular"),
    ("codec.systemization", "codec.matrix", "chankey.codec.matrix",
     "SparseParityCheck.systemization"),
    ("codec.syndrome", "codec.matrix", "chankey.codec.matrix",
     "SparseParityCheck.syndrome"),
    ("codec.coset_index", "codec.matrix", "chankey.codec.matrix",
     "coset_index"),
    ("codec.decode.binary", "codec.decode", "chankey.codec.decode",
     "decode_binary"),
    ("codec.decode.quaternary", "codec.decode", "chankey.codec.decode",
     "decode_quaternary"),
    ("codec.decode.phase_offset", "codec.decode", "chankey.codec.decode",
     "decode_with_phase_offset"),
    ("capacity.simulate_rssi_pairs", "capacity", "chankey.capacity",
     "simulate_rssi_pairs"),
    ("capacity.mi_estimate", "capacity", "chankey.capacity", "mi_estimate"),
    ("capacity.gaussian_mi_estimate", "capacity", "chankey.capacity",
     "gaussian_mi_estimate"),
    ("capacity.rssi_capacity_numeric", "capacity", "chankey.capacity",
     "rssi_capacity_numeric"),
    ("capacity.magphase_decomposition", "capacity", "chankey.capacity",
     "magphase_decomposition"),
    ("capacity.phase_offset_loss", "capacity", "chankey.capacity",
     "phase_offset_loss"),
)

LAYERS = ("channel", "rng", "sounding", "quantize", "codec.matrix",
          "codec.decode", "pipeline", "capacity")

DECODERS = ("codec.decode.binary", "codec.decode.quaternary",
            "codec.decode.phase_offset")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _edges(pcm) -> int:
    return int(sum(r.size for r in pcm.rows))


def _decoder_work(name, bound, result):
    """Iterations, edge-iterations and outcome flags of one decoder call."""
    args = bound.arguments
    iters = result.iterations_used
    if name == "codec.decode.quaternary":
        edges = _edges(args["pcm_m"]) + _edges(args["pcm_l"])
        edge_iters = edges * iters
    elif name == "codec.decode.phase_offset":
        # one preliminary code pass per grid hypothesis, then the main loop
        # (a one-point grid delegates to decode_binary, which is traced too)
        grid = len(args["theta_grid"])
        edge_iters = _edges(args["pcm"]) * (iters + grid) if grid > 1 else 0
    else:
        edge_iters = _edges(args["pcm"]) * iters
    cap_hit = iters >= args["max_iter"] and not result.converged
    return {"iterations": iters, "edge_iters": edge_iters,
            "cap_hits": int(cap_hit),
            "satisfied": int(result.syndrome_satisfied)}


def _work(name, signature, args, kwargs, result):
    """Work counters one call adds to its span, by span name."""
    if name == "rng.split_streams":
        return {"streams": len(result)}
    if name in ("quantize.quantize", "quantize.soft_evidence",
                "quantize.hard_evidence"):
        values = args[0] if args else next(iter(kwargs.values()))
        return {"symbols": int(getattr(values, "size", 1))}
    if name == "capacity.simulate_rssi_pairs":
        return {"samples": int(result[0].size)}
    if name in DECODERS:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return _decoder_work(name, bound, result)
    return None


class Tracer:
    """Aggregates spans per name while its ``patched()`` context is open."""

    def __init__(self):
        self.stats = {name: SpanStats() for name, *_ in SPANS}
        self.layer_s = {layer: 0.0 for layer in LAYERS}
        # (layer, [seconds covered by child spans]) of each open span
        self._stack: list[tuple[str, list]] = []

    def _wrap(self, name, layer, orig):
        stats = self.stats[name]
        stack = self._stack
        confusion = name == "quantize.confusion"
        systemization = name == "codec.systemization"
        signature = inspect.signature(orig) if name in DECODERS else None

        def traced(*args, **kwargs):
            if confusion:
                misses = orig.cache_info().misses
            if systemization:
                # only the first call per matrix does the elimination
                cold = "system" not in args[0]._cache
            child = [0.0]
            stack.append((layer, child))
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
            if stack:
                stack[-1][1][0] += dt
            # a layer's time is that of its outermost spans, including the
            # calls they make into other layers
            if not stack or stack[-1][0] != layer:
                self.layer_s[layer] += dt
            if systemization and not cold:
                return result
            stats.calls += 1
            stats.total_s += dt
            stats.child_s += child[0]
            if confusion and orig.cache_info().misses > misses:
                stats.add("misses", 1)
                stats.add("miss_s", dt)
            work = _work(name, signature, args, kwargs, result)
            for key, value in (work or {}).items():
                stats.add(key, value)
            return result

        functools.update_wrapper(traced, orig)
        if confusion:
            traced.cache_info = orig.cache_info
            traced.cache_clear = orig.cache_clear
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every span target; restore all originals on exit."""
        saved = []
        wrappers = {}
        try:
            for name, layer, holder, key, orig in patch_targets():
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, layer, orig)
                saved.append((holder, key, orig))
                setattr(holder, key, wrappers[name])
            yield self
        finally:
            for holder, key, orig in reversed(saved):
                setattr(holder, key, orig)

    def merged(self, other: "Tracer") -> "Tracer":
        """A new tracer holding the sums of both tracers' figures."""
        out = Tracer()
        for tracer in (self, other):
            for name, st in tracer.stats.items():
                acc = out.stats[name]
                acc.calls += st.calls
                acc.total_s += st.total_s
                acc.child_s += st.child_s
                for key, value in st.counters.items():
                    acc.add(key, value)
            for layer, secs in tracer.layer_s.items():
                out.layer_s[layer] += secs
        return out


def patch_targets():
    """(span, layer, holder, attribute, original) for every replaced name.

    A function is replaced under every name any loaded chankey module binds
    to it; a method is replaced on its class.
    """
    for _, _, module_name, _ in SPANS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "chankey" or n.startswith("chankey."))]
    out = []
    for name, layer, module_name, attr in SPANS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            out.append((name, layer, cls, meth, cls.__dict__[meth]))
            continue
        orig = getattr(module, attr)
        out.extend((name, layer, holder, key, orig) for holder in modules
                   for key, value in vars(holder).items() if value is orig)
    return out


# Figures that set-up dominates (codes are built and systemized once per
# template, the confusion cache fills once per correlation) are taken over
# the whole traced process; everything else over the traced window only.
WHOLE_PROCESS_SPANS = ("codec.construct_regular", "codec.construct_irregular",
                       "codec.systemization", "quantize.confusion")


def per_layer_metrics(window: Tracer, setup: Tracer, ops: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``ops`` is the number of sessions (or estimator calls, where a workload
    runs no sessions) in the traced window; counts are per op.
    """
    whole = window.merged(setup)
    s = window.stats

    def mean(name, scale, source=s):
        st = source[name]
        return st.total_s * scale / st.calls if st.calls else 0.0

    def per_op(value):
        return value / ops if ops else 0.0

    def per_symbol_ns(name):
        st = s[name]
        symbols = st.counters.get("symbols", 0)
        return st.total_s * 1e9 / symbols if symbols else 0.0

    def counter(name, key, source=s):
        return source[name].counters.get(key, 0)

    dec_calls = sum(s[d].calls for d in DECODERS)
    dec_s = sum(s[d].total_s for d in DECODERS)
    dec = {key: sum(counter(d, key) for d in DECODERS)
           for key in ("iterations", "edge_iters", "cap_hits", "satisfied")}
    rssi = s["capacity.simulate_rssi_pairs"]
    pipeline_self = sum(st.total_s - st.child_s for name, st in s.items()
                        if name.startswith("pipeline."))
    run_session = s["pipeline.run_session"]
    confusion = whole.stats["quantize.confusion"]

    out = {
        "channel.sample_paths.us": (mean("channel.sample_paths", 1e6), "us"),
        "channel.sample_paths.calls": (per_op(s["channel.sample_paths"].calls),
                                       "count/op"),
        "channel.time_coefficients.us": (
            mean("channel.time_coefficients", 1e6), "us"),
        "rng.split_streams.ms": (mean("rng.split_streams", 1e3), "ms"),
        "rng.split_streams.streams": (
            per_op(counter("rng.split_streams", "streams")), "count/op"),
        "sounding.interleave.calls": (per_op(s["sounding.interleave"].calls),
                                      "count/op"),
        "sounding.interleave.us": (mean("sounding.interleave", 1e6), "us"),
        "sounding.two_way_sound.calls": (
            per_op(s["sounding.two_way_sound"].calls), "count/op"),
        "pipeline.run_session.ms": (mean("pipeline.run_session", 1e3), "ms"),
        "pipeline.run_session.self_ms": (
            (run_session.total_s - run_session.child_s) * 1e3
            / run_session.calls if run_session.calls else 0.0, "ms"),
        "quantize.quantize.ns_per_symbol": (
            per_symbol_ns("quantize.quantize"), "ns/symbol"),
        "quantize.soft_evidence.ns_per_symbol": (
            per_symbol_ns("quantize.soft_evidence"), "ns/symbol"),
        "quantize.hard_evidence.ns_per_symbol": (
            per_symbol_ns("quantize.hard_evidence"), "ns/symbol"),
        "quantize.confusion.misses": (confusion.counters.get("misses", 0),
                                      "count"),
        "quantize.confusion.miss_ms": (
            confusion.counters.get("miss_s", 0.0) * 1e3, "ms"),
        "codec.construct_regular.s": (
            mean("codec.construct_regular", 1.0, whole.stats), "s"),
        "codec.construct_irregular.s": (
            mean("codec.construct_irregular", 1.0, whole.stats), "s"),
        "codec.systemization.s": (
            mean("codec.systemization", 1.0, whole.stats), "s"),
        "codec.syndrome.calls": (per_op(s["codec.syndrome"].calls),
                                 "count/op"),
        "codec.syndrome.us": (mean("codec.syndrome", 1e6), "us"),
        "codec.coset_index.us": (mean("codec.coset_index", 1e6), "us"),
    }
    for d in DECODERS:
        out[f"{d}.calls"] = (per_op(s[d].calls), "count/op")
        out[f"{d}.ms"] = (mean(d, 1e3), "ms")
    out.update({
        "codec.decode.iterations": (
            dec["iterations"] / dec_calls if dec_calls else 0.0, "count"),
        "codec.decode.ns_per_edge_iter": (
            dec_s * 1e9 / dec["edge_iters"] if dec["edge_iters"] else 0.0,
            "ns"),
        "codec.decode.cap_hits": (per_op(dec["cap_hits"]), "count/op"),
        "codec.decode.satisfied_ratio": (
            dec["satisfied"] / dec_calls if dec_calls else 0.0, "ratio"),
        "capacity.simulate_rssi_pairs.samples_per_s": (
            rssi.counters.get("samples", 0) / rssi.total_s
            if rssi.total_s else 0.0, "1/s"),
        "capacity.mi_estimate.ms": (mean("capacity.mi_estimate", 1e3), "ms"),
        "capacity.gaussian_mi_estimate.ms": (
            mean("capacity.gaussian_mi_estimate", 1e3), "ms"),
        "capacity.magphase_decomposition.s": (
            mean("capacity.magphase_decomposition", 1.0), "s"),
        "capacity.phase_offset_loss.s": (
            mean("capacity.phase_offset_loss", 1.0), "s"),
    })
    for layer in LAYERS:
        out[f"layer.{layer}.ms_per_op"] = (
            per_op(window.layer_s[layer] * 1e3), "ms")
    sim_s = (window.layer_s["channel"] + window.layer_s["rng"]
             + pipeline_self)
    out["split.sim_ms_per_op"] = (per_op(sim_s * 1e3), "ms")
    out["split.decode_ms_per_op"] = (
        per_op(window.layer_s["codec.decode"] * 1e3), "ms")
    return out


def zero_call_spans(window: Tracer, setup: Tracer) -> list:
    """Named spans never entered: a moved call must not read as free."""
    whole = window.merged(setup)
    return [name for name, *_ in SPANS
            if (whole if name in WHOLE_PROCESS_SPANS else window)
            .stats[name].calls == 0]
