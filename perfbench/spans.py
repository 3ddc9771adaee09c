"""Span tracing around calls into reed's modules, from outside the program.

Each wrapped function records a span: its name, start, end, parent span,
the benchmark operation it belongs to, and a size (bytes or keys) where one
applies. A function is wrapped where its caller looks it up: ``reed.client``
imports ``chunk_stream``, ``fingerprint``, ``segment``, ``wrap_state`` and
``unwrap_state`` by name, so those are replaced in ``reed.client``; the rest
are replaced on the module or class that owns them. Spans stay in memory
until the run ends.

A span opened on a thread with no open span of its own (the client's CAONT
pool, the servers' handler threads) takes the current benchmark operation's
root span as its parent: the benchmark drives the program from one client
thread, so that operation is what the other threads are working for.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

MB = 1_000_000


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    size: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(i):
    return lambda args, result: len(args[i])


def _targets():
    """(owner, attribute, span name, size of the call or None)."""
    from reed import caont, client, keygen, rekeying, server
    return [
        (client, "chunk_stream", "chunking.chunk_stream", _arg(0)),
        (client, "fingerprint", "chunking.fingerprint",
         lambda args, result: args[0].length),
        (client, "segment", "chunking.segment", None),
        (client, "wrap_state", "rekeying.wrap_state", None),
        (client, "unwrap_state", "rekeying.unwrap_state", None),
        (rekeying, "wind", "rekeying.wind", None),
        (rekeying, "unwind", "rekeying.unwind", None),
        (rekeying, "wrap_state", "rekeying.wrap_state", None),
        (rekeying, "unwrap_state", "rekeying.unwrap_state", None),
        (caont, "encrypt_chunk", "caont.encrypt_chunk", _arg(1)),
        (caont, "decrypt_chunk", "caont.decrypt_chunk",
         lambda args, result: len(result)),
        (caont, "encrypt_stub_file", "caont.stub_file", None),
        (caont, "decrypt_stub_file", "caont.stub_file", None),
        (keygen.KeySession, "keys_for_fingerprints", "keygen.keys_for_fingerprints",
         lambda args, result: len(result)),
        (keygen.KeyManagerService, "sign_batch", "keygen.sign_batch", _arg(1)),
        (server.StorageService, "store_packages", "server.store_packages",
         lambda args, result: sum(len(data) for _, data in args[1])),
        (server.StorageService, "get_packages", "server.get_packages",
         lambda args, result: sum(len(data) for data in result)),
        (server.BlobStore, "put", "server.blob_put", None),
        (server.BlobStore, "get", "server.blob_get", None),
        (client.Connection, "request", "wire.request",
         lambda args, result: 5 + len(args[2])),
        (os, "fsync", "server.fsync", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops: dict[int, str] = {}  # operation id -> operation name
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            op = tracer._op
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append(Span(sid, parent, op, name, start,
                                         time.perf_counter(), 0))
                raise
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append(Span(sid, parent, op, name, start, end,
                                     size(args, result) if size else 0))
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, size in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def operation(self, name: str, fn, *args, **kwargs):
        """Time one benchmark operation; returns (result, wall seconds, CPU seconds).

        CPU seconds are the whole process's, so they count the client, its
        CAONT pool and both in-process services, but not time the host
        steals from the machine or time spent waiting on the disk. While
        the wrappers are installed the operation is also a root span.
        """
        if not self._saved:
            cpu = time.process_time()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            return result, end - start, time.process_time() - cpu
        sid = next(self._ids)
        self._op = sid
        self._root = sid
        self.ops[sid] = name
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(sid, None, sid, name, start, end, 0))
            self._op = 0
            self._root = None
        return result, end - start, time.process_time() - cpu

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("sid\tparent\top\tname\tstart\tend\tsize\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(f"{s.sid}\t{s.parent or 0}\t{s.op}\t{s.name}\t"
                         f"{s.start:.6f}\t{s.end:.6f}\t{s.size}\n")


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def layer_metrics(tracer: Tracer, rounds) -> dict:
    """Per-layer metrics from the traced rounds' spans, as {name: (value, unit)}.

    Counts and byte totals are per traced round; rates and per-call times
    pool every call in the traced rounds. Spans outside a benchmark
    operation (the benchmark's own checks) are left out.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    up_bytes = sum(r.up_bytes for r in traced)
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        if s.op:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append(s)
    uploads = {sid for sid, name in tracer.ops.items() if name == "upload"}
    downloads = {sid for sid, name in tracer.ops.items() if name == "download"}
    # refused reads unwrap nothing, so they are left out of unwrap_ms
    granted = {sid for sid, name in tracer.ops.items()
               if name not in ("denied", "reupload_read")}

    def total(name, ops=None):
        return sum(s.seconds for s in by_name[name] if ops is None or s.op in ops)

    def size(name, ops=None):
        return sum(s.size for s in by_name[name] if ops is None or s.op in ops)

    def count(name, ops=None):
        return sum(1 for s in by_name[name] if ops is None or s.op in ops)

    def ratio(a, b):
        return a / b if b else 0.0

    def rate(name):
        return ratio(size(name) / MB, total(name))

    def mean_ms(name, ops=None):
        return ratio(total(name, ops) * 1000, count(name, ops))

    def p95(samples):
        return statistics.quantiles(samples, n=20)[-1] if len(samples) > 1 else 0.0

    transform_wall = 0.0
    for op in uploads:
        enc = [s for s in by_name["caont.encrypt_chunk"] if s.op == op]
        if enc:
            transform_wall += max(s.end for s in enc) - min(s.start for s in enc)
    upload_self = sum(self_seconds(s, children[s.sid])
                      for s in by_name["upload"])
    new_bytes = statistics.mean(r.physical for r in traced)
    return {
        "chunking.chunk_MBps": (rate("chunking.chunk_stream"), "MB/s"),
        "chunking.fingerprint_MBps": (rate("chunking.fingerprint"), "MB/s"),
        "chunking.segment_ms_per_MB": (ratio(total("chunking.segment") * 1000,
                                             size("chunking.chunk_stream") / MB), "ms/MB"),
        "chunking.mean_chunk_KB": (ratio(size("chunking.fingerprint") / 1000,
                                         count("chunking.fingerprint")), "KB"),
        "caont.encrypt_MBps": (rate("caont.encrypt_chunk"), "MB/s"),
        "caont.decrypt_MBps": (rate("caont.decrypt_chunk"), "MB/s"),
        "caont.stub_file_ms": (mean_ms("caont.stub_file"), "ms"),
        "keygen.keys_requested": (size("keygen.keys_for_fingerprints") / n, "count"),
        "keygen.batches": (count("keygen.sign_batch") / n, "count"),
        "keygen.client_ms_per_key": (ratio(total("keygen.keys_for_fingerprints") * 1000,
                                           size("keygen.keys_for_fingerprints")), "ms"),
        "keygen.sign_ms_per_key": (ratio(total("keygen.sign_batch") * 1000,
                                         size("keygen.sign_batch")), "ms"),
        "rekeying.wind_ms": (mean_ms("rekeying.wind"), "ms"),
        "rekeying.unwrap_ms": (mean_ms("rekeying.unwrap_state", granted), "ms"),
        "rekeying.wrap_ms": (mean_ms("rekeying.wrap_state"), "ms"),
        "rekeying.unwind_steps": (ratio(count("rekeying.unwind", downloads),
                                        len(downloads)), "count/download"),
        "rekeying.rekey_lazy_ms_p95": (p95([x for r in traced
                                            for x in r.lazy_ms["cpu"]]), "ms"),
        "rekeying.rekey_active_ms_p95": (p95([x for r in traced
                                              for x in r.active_ms["cpu"]]), "ms"),
        "server.ingest_MBps": (rate("server.store_packages"), "MB/s"),
        "server.new_MB": (new_bytes / MB, "MB"),
        "server.duplicate_MB": ((size("server.store_packages") / n - new_bytes) / MB, "MB"),
        "server.read_MBps": (rate("server.get_packages"), "MB/s"),
        "server.blob_put_ms": (mean_ms("server.blob_put"), "ms"),
        "server.blob_get_ms": (mean_ms("server.blob_get"), "ms"),
        "server.fsyncs_per_MB": (ratio(count("server.fsync", uploads), up_bytes / MB),
                                 "count/MB"),
        "client.transform_wall_s": (transform_wall / n, "s"),
        "client.caont_busy_s": (total("caont.encrypt_chunk", uploads) / n, "s"),
        "client.upload_self_s": (upload_self / n, "s"),
        "wire.round_trips_per_MB": (ratio(count("wire.request", uploads), up_bytes / MB),
                                    "count/MB"),
        "wire.bytes_sent_per_logical_byte": (ratio(size("wire.request", uploads), up_bytes),
                                             "B/B"),
        "trace.overhead_pct": (100 * (statistics.median(r.busy_s() for r in traced)
                                      / statistics.median(r.busy_s() for r in plain) - 1),
                               "%"),
    }
