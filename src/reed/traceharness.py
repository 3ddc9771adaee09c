"""Replay fingerprint traces through the full pipeline and measure savings.

A trace is a sequence of snapshots, each a list of (fingerprint hex, chunk
size) records. Chunks are synthesized by repeating the fingerprint bytes to
the recorded size, so equal records give equal content. Each snapshot is
stored as one file on an in-process server and the cumulative logical,
physical, and stub byte counts are reported after every snapshot, for both
per-chunk and similarity (per-segment) key generation.

Text format: one record per line as ``fp_hex<TAB>size``; lines beginning
``#snapshot`` separate snapshots; blank lines are ignored.
"""

from __future__ import annotations

import contextlib
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Iterable

from . import caont
from .chunking import Chunk, SegmentationParams
from .client import ClientIdentity, StoreSession, register_identity, store_file
from .errors import TraceParseError
from .keygen import KeyManagerService, KeySession, ManagerKeyPair
from .server import ServerStats, StorageService
from .wire import LocalBackend

MAX_RECORD_SIZE = 65536


@dataclass(frozen=True)
class TraceRecord:
    fp_hex: str
    size: int


@dataclass
class SavingsReport:
    mode: str
    rows: list[ServerStats] = field(default_factory=list)  # after each snapshot
    key_requests: int = 0  # keys resolved, one per chunk or segment
    keys_sent: int = 0  # of those, the ones the manager signed; the rest hit the cache

    @property
    def totals(self) -> ServerStats:
        return self.rows[-1]

    def to_tsv(self) -> str:
        lines = ["snapshot\tlogical\tphysical\tstub\tsaving"]
        for snapshot, row in enumerate(self.rows):
            lines.append(f"{snapshot}\t{row.logical_bytes}\t{row.physical_bytes}"
                         f"\t{row.stub_bytes}\t{row.saving:.6f}")
        return "\n".join(lines) + "\n"


def synthesize_chunk(fp_hex: str, size: int) -> bytes:
    """Repeat the fingerprint bytes up to the recorded chunk size."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    pattern = bytes.fromhex(fp_hex)
    reps = size // len(pattern) + 1
    return (pattern * reps)[:size]


def parse_trace(text: str | Iterable[str],
                drop_zero_chunks: bool = False) -> list[list[TraceRecord]]:
    """Parse trace text into snapshots; raises TraceParseError with line number."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    snapshots: list[list[TraceRecord]] = []
    current: list[TraceRecord] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#snapshot"):
            if current is not None:
                snapshots.append(current)
            current = []
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TraceParseError("expected fp_hex<TAB>size", lineno)
        fp_hex, size_text = parts
        try:
            pattern = bytes.fromhex(fp_hex)
        except ValueError:
            raise TraceParseError(f"bad fingerprint hex {fp_hex!r}", lineno) from None
        if not pattern:
            raise TraceParseError("empty fingerprint", lineno)
        try:
            size = int(size_text)
        except ValueError:
            raise TraceParseError(f"bad size {size_text!r}", lineno) from None
        if not 1 <= size <= MAX_RECORD_SIZE:
            raise TraceParseError(f"size {size} outside [1, {MAX_RECORD_SIZE}]", lineno)
        if drop_zero_chunks and not any(pattern):
            continue
        if current is None:
            current = []
        current.append(TraceRecord(fp_hex=fp_hex, size=size))
    if current is not None:
        snapshots.append(current)
    return snapshots


def load_trace(path: str, drop_zero_chunks: bool = False) -> list[list[TraceRecord]]:
    with open(path) as fh:
        return parse_trace(fh.read(), drop_zero_chunks)


def format_trace(snapshots: list[list[TraceRecord]]) -> str:
    lines = []
    for i, snap in enumerate(snapshots):
        lines.append(f"#snapshot {i}")
        for rec in snap:
            lines.append(f"{rec.fp_hex}\t{rec.size}")
    return "\n".join(lines) + "\n"


def generate_trace(seed: int, snapshots: int, chunks_per_snapshot: int,
                   mutation_rate: float) -> list[list[TraceRecord]]:
    """Deterministic synthetic trace; each snapshot mutates the given fraction
    of the previous snapshot's records to fresh unique content."""
    if snapshots < 1:
        raise ValueError(f"snapshots must be at least 1, not {snapshots}")
    if chunks_per_snapshot < 0:
        raise ValueError(f"chunks_per_snapshot must be at least 0, not {chunks_per_snapshot}")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation rate must be within [0, 1]")
    rng = random.Random(seed)

    def fresh() -> TraceRecord:
        return TraceRecord(fp_hex=f"{rng.getrandbits(48):012x}",
                           size=rng.randint(2048, 16384))

    out: list[list[TraceRecord]] = []
    current = [fresh() for _ in range(chunks_per_snapshot)]
    out.append(current)
    for _ in range(snapshots - 1):
        current = [fresh() if rng.random() < mutation_rate else rec
                   for rec in current]
        out.append(current)
    return out


def replay(snapshots: list[list[TraceRecord]], mode: str,
           avg_segment_size: int = 1_048_576, avg_chunk_size: int = 8192) -> SavingsReport:
    """Store every snapshot as one file through the upload pipeline
    (``client.store_file``), entering with its synthesized chunks as one
    block; each snapshot is then a file its owner can download.

    Runs single-threaded against an in-process server so the report is a
    pure function of the trace and the parameters. Rows carry cumulative
    counters, mirroring how the server accumulates state over backups.
    """
    seg_params = SegmentationParams(avg_size=avg_segment_size,
                                    avg_chunk_size=avg_chunk_size)
    manager = KeyManagerService(ManagerKeyPair.generate())
    keys = KeySession(LocalBackend(manager))
    owner = ClientIdentity.create("trace")

    report = SavingsReport(mode=mode)
    with contextlib.ExitStack() as cleanup:
        workdir = cleanup.enter_context(tempfile.TemporaryDirectory(prefix="reed-trace-"))
        service = StorageService(os.path.join(workdir, "data"),
                                 os.path.join(workdir, "keys"))
        cleanup.callback(service.close)
        store = StoreSession(LocalBackend(service))
        register_identity(store, owner)
        for snap_idx, records in enumerate(snapshots):
            chunks = [Chunk(synthesize_chunk(r.fp_hex, r.size)) for r in records]
            store_file([(chunks, True)], f"trace-{snap_idx:06d}", policy=[owner.user_id],
                       identity=owner, store=store, keys=keys,
                       scheme=caont.SCHEME_ENHANCED, keying=mode, seg_params=seg_params)
            report.rows.append(store.stats())
    report.key_requests = keys.request_count
    report.keys_sent = keys.sent_count
    return report
