"""In-memory spans for the traced run, and the layer wrappers that record them.

The traced run measures each layer from outside the package: it swaps a
layer's public entry points for timing wrappers, runs one round, and swaps
the originals back.  A name is wrapped where its caller looks it up —
``expand_uniform`` is imported by name into ``secagg.client``,
``secagg.masking`` and ``secagg.server``, so each of those bindings is
wrapped, plus the one in ``crypto.prg`` that ``expand_uniform_batch``
resolves at call time.

Every span carries one cross-layer key, ``(workload, round, chunk, stage,
client)``.  A span inherits the key of the span it runs inside and
overrides the fields its own arguments reveal (a client method knows its
client id and, through the chunk registry, its chunk).  Self time is a
span's duration minus the time of the spans nested in it; the stack is
per thread, and one round is in flight at a time, so nesting is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Span name -> the per-layer metric its self time feeds.
SELF_TIME_METRIC = {
    "engine": "engine.self_s",
    "core": "core.self_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "secagg.client.advertise": "secagg.client.advertise_s",
    "secagg.client.share_keys": "secagg.client.share_keys_s",
    "secagg.client.masked_input": "secagg.client.masked_input_s",
    "secagg.client.unmask": "secagg.client.unmask_s",
    "secagg.server": "secagg.server_s",
    "secagg.server.unmask": "secagg.server.unmask_s",
    "crypto.prg": "crypto.prg_s",
    "crypto.dh": "crypto.dh_s",
    "crypto.shamir": "crypto.shamir_s",
    "crypto.ae": "crypto.ae_s",
    "xnoise.add": "xnoise.add_s",
    "xnoise.remove": "xnoise.remove_s",
    "dp.encode": "dp.encode_s",
    "dp.decode": "dp.decode_s",
    "fl.train": "fl.train_s",
    "fl.eval": "fl.eval_s",
    "fleet.query": "fleet.query_s",
}

# Counters recorded at the span where the work happens.  They depend only
# on the workload's shape and dropout, never on timing, so they repeat
# exactly across runs with the same seed.
EXACT_COUNTERS = (
    "engine.requests",
    "wire.frames",
    "wire.up_bytes",
    "wire.down_bytes",
    "crypto.prg_elems",
    "crypto.dh_ops",
    "crypto.shamir_secrets",
    "crypto.ae_bytes",
    "xnoise.components_added",
    "xnoise.components_removed",
)

SETUP_ROUND = -1


@dataclass
class Span:
    name: str
    key: tuple  # (workload, round, chunk, stage, client)
    begin: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.begin - self.child_s


class Recorder:
    """Holds every span of a run in memory until the run writes them out."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.round = SETUP_ROUND
        self._local = threading.local()
        self._chunk_of: dict[int, int] = {}
        self._chunks_seen = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self.t0 = time.perf_counter()

    # -- key bookkeeping -------------------------------------------------
    def begin_round(self, index: int) -> None:
        self.round = index
        self._chunk_of.clear()
        self._chunks_seen = 0

    def end_round(self) -> None:
        self.round = SETUP_ROUND
        self._chunk_of.clear()

    def register_chunk(self, server, clients) -> None:
        """Map one sub-round's protocol objects to its chunk index.

        Chunk sub-rounds are built in chunk order, so the n-th round
        construction within a round is chunk n.
        """
        chunk = self._chunks_seen
        self._chunks_seen += 1
        self._chunk_of[id(server)] = chunk
        for client in clients:
            self._chunk_of[id(client.inner)] = chunk

    def chunk_of(self, obj) -> Optional[int]:
        return self._chunk_of.get(id(obj))

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **override) -> Span:
        stack = self._stack()
        if stack:
            workload, rnd, chunk, stage, client = stack[-1].key
        else:
            workload, rnd, chunk, stage, client = (
                self.workload, self.round, 0, "", -1,
            )
        if override.get("chunk") is not None:
            chunk = override["chunk"]
        stage = override.get("stage", stage)
        client = override.get("client", client)
        span = Span(name, (workload, rnd, chunk, stage, client), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.begin
        self.spans.append(span)

    # -- installing wrappers ----------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for module, attr, make in _wrapper_table(self):
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._patches.append((owner, name, original))
            setattr(owner, name, _rewrap(original, make))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------
    def round_metrics(self, index: int) -> dict[str, float]:
        """Per-layer self times and counters of one traced round."""
        out: dict[str, float] = defaultdict(float)
        for metric in SELF_TIME_METRIC.values():
            out[metric] = 0.0
        for counter in EXACT_COUNTERS:
            out[counter] = 0
        for span in self.spans:
            if span.key[1] != index:
                continue
            metric = SELF_TIME_METRIC.get(span.name)
            if metric is not None:
                out[metric] += span.self_s
            for counter, value in span.counts.items():
                out[counter] += value
        return dict(out)

    def setup_seconds(self, name: str) -> float:
        return sum(
            s.end - s.begin
            for s in self.spans
            if s.name == name and s.key[1] == SETUP_ROUND
        )

    def write_chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace-event JSON (loads in Perfetto)."""
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": f"perfbench {self.workload}"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "coordinator"}},
        ]
        clients = sorted({s.key[4] for s in self.spans if s.key[4] >= 0})
        events += [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": c,
             "args": {"name": f"client {c}"}}
            for c in clients
        ]
        for span in sorted(self.spans, key=lambda s: (s.begin, -s.end)):
            workload, rnd, chunk, stage, client = span.key
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.begin - self.t0) * 1e6, 3),
                "dur": round((span.end - span.begin) * 1e6, 3),
                "pid": 1,
                "tid": max(client, 0),
                "args": {
                    "workload": workload, "round": rnd, "chunk": chunk,
                    "stage": stage, "client": client,
                    "self_us": round(span.self_s * 1e6, 3), **span.counts,
                },
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({k for r in per_round for k in r})
    return {
        k: statistics.median(r.get(k, 0.0) for r in per_round) for k in names
    }


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rewrap(original, make: Callable):
    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(make(original.__func__))
    return make(original)


def _span(rec: Recorder, name: str, key=None, count=None):
    """Factory for a synchronous timing wrapper."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, **(key(args) if key else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper

    return make


def _async_span(rec: Recorder, name: str):
    def make(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    return make


def _chunk_hook(rec: Recorder):
    """Not a span: registers each sub-round's objects under its chunk."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            server, clients = fn(*args, **kwargs)
            rec.register_chunk(server, clients)
            return server, clients

        return wrapper

    return make


def _wire_encode_counts(args, frame) -> dict:
    from repro.wire.frame import KIND_REQUEST

    kind = args[0]
    counts = {"wire.frames": 1}
    if kind == KIND_REQUEST:
        counts["wire.down_bytes"] = len(frame)
        counts["engine.requests"] = 1
    else:  # RESPONSE and ERROR frames travel client -> server
        counts["wire.up_bytes"] = len(frame)
    return counts


def _wrapper_table(rec: Recorder) -> list[tuple[str, str, Callable]]:
    def client_op(stage):
        return lambda args: {
            "client": args[0].id, "stage": stage, "chunk": rec.chunk_of(args[0]),
        }

    def server_op(stage):
        return lambda args: {
            "client": -1, "stage": stage, "chunk": rec.chunk_of(args[0]),
        }

    one = lambda key: (lambda args, result: {key: 1})  # noqa: E731
    prg = _span(rec, "crypto.prg", count=lambda a, r: {"crypto.prg_elems": int(a[1])})
    dh = _span(rec, "crypto.dh", count=one("crypto.dh_ops"))
    ae = _span(rec, "crypto.ae", count=lambda a, r: {"crypto.ae_bytes": len(a[1])})
    fleet_query = _span(rec, "fleet.query")

    table = [
        # engine
        ("repro.engine.core", "RoundEngine.run_round", _async_span(rec, "engine")),
        ("repro.engine.core", "RoundEngine.run_chunked_round", _async_span(rec, "engine")),
        # wire: the codec and frame entry points the serializing transport calls
        ("repro.wire.codecs", "encode_payload_frame",
         _span(rec, "wire.encode", count=_wire_encode_counts)),
        ("repro.wire.codecs", "decode_payload", _span(rec, "wire.decode")),
        ("repro.engine.transport", "encode_frame",
         _span(rec, "wire.encode", count=_wire_encode_counts)),
        ("repro.engine.transport", "decode_frame", _span(rec, "wire.decode")),
        # secagg client
        ("repro.secagg.client", "SecAggClient.advertise_keys",
         _span(rec, "secagg.client.advertise", key=client_op("advertise_keys"))),
        ("repro.secagg.client", "SecAggClient.share_keys",
         _span(rec, "secagg.client.share_keys", key=client_op("share_keys"))),
        ("repro.secagg.client", "SecAggClient.masked_input",
         _span(rec, "secagg.client.masked_input", key=client_op("masked_input"))),
        ("repro.secagg.client", "SecAggClient.unmask",
         _span(rec, "secagg.client.unmask", key=client_op("unmask"))),
        # Stage-5 share disclosure decrypts like Unmasking and counts with it.
        ("repro.secagg.client", "SecAggClient.shares_of_extra_secret",
         _span(rec, "secagg.client.unmask", key=client_op("noise_shares"))),
        # secagg server (the workflow methods the engine dispatches)
        *[
            ("repro.secagg.workflow", f"SecAggWorkflowServer.{op}",
             _span(rec, "secagg.server", key=server_op(op)))
            for op in ("collect_advertise", "route_shares", "collect_masked",
                       "collect_consistency")
        ],
        ("repro.secagg.workflow", "SecAggWorkflowServer.collect_unmask",
         _span(rec, "secagg.server.unmask", key=server_op("collect_unmask"))),
        ("repro.xnoise.protocol", "XNoiseWorkflowServer.collect_unmask",
         _span(rec, "secagg.server.unmask", key=server_op("collect_unmask"))),
        # crypto
        ("repro.crypto.prg", "expand_uniform", prg),
        ("repro.secagg.client", "expand_uniform", prg),
        ("repro.secagg.masking", "expand_uniform", prg),
        ("repro.secagg.server", "expand_uniform", prg),
        ("repro.crypto.dh", "KeyAgreement.generate", dh),
        ("repro.crypto.dh", "KeyAgreement.agree", dh),
        ("repro.crypto.shamir", "ShamirSecretSharing.share",
         _span(rec, "crypto.shamir", count=one("crypto.shamir_secrets"))),
        ("repro.crypto.shamir", "ShamirSecretSharing.reconstruct",
         _span(rec, "crypto.shamir", count=one("crypto.shamir_secrets"))),
        ("repro.crypto.shamir", "ShamirSecretSharing.reconstruct_many",
         _span(rec, "crypto.shamir",
               count=lambda a, r: {"crypto.shamir_secrets": len(a[1])})),
        ("repro.crypto.ae", "AuthenticatedEncryption.encrypt", ae),
        ("repro.crypto.ae", "AuthenticatedEncryption.decrypt", ae),
        # xnoise
        ("repro.xnoise.protocol", "XNoiseClient.masked_input",
         _span(rec, "xnoise.add", key=client_op("masked_input"),
               count=lambda a, r: {
                   "xnoise.components_added": a[0].decomposition.n_components})),
        ("repro.xnoise.protocol", "XNoiseWorkflowServer.remove_noise",
         _span(rec, "xnoise.remove", key=server_op("remove_noise"),
               count=lambda a, r: {
                   "xnoise.components_removed": r.removed_noise_components})),
        ("repro.xnoise.protocol", "xnoise_round_components", _chunk_hook(rec)),
        # dp, fl
        ("repro.dp.skellam", "SkellamMechanism.encode_signal", _span(rec, "dp.encode")),
        ("repro.dp.skellam", "SkellamMechanism.decode", _span(rec, "dp.decode")),
        ("repro.fl.client", "LocalTrainer.compute_update", _span(rec, "fl.train")),
        ("repro.fl.server", "FedAvgServer.evaluate", _span(rec, "fl.eval")),
        ("repro.fl.server", "FedAvgServer.evaluate_perplexity", _span(rec, "fl.eval")),
        # fleet
        ("repro.fleet.fleet", "Fleet.build", _span(rec, "fleet.build")),
        *[
            ("repro.fleet.fleet", f"Fleet.{name}", fleet_query)
            for name in ("dropped", "straggler_factor", "link_seconds",
                         "round_cost", "broadcast_seconds", "upload_seconds")
        ],
        ("repro.fleet.availability", "FixedRateDropout.dropped", fleet_query),
    ]
    return table
