"""Content chunking, fingerprinting, and similarity segmentation.

Files are split into fixed-size or content-defined variable-size chunks,
each chunk is identified by its SHA-256 fingerprint, and chunk streams are
grouped into variable-size segments keyed by their minimum fingerprint.
Everything here is a pure function of the input bytes and is safe to call
from multiple workers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

Fingerprint = bytes  # 32-byte SHA-256 digest

# Rolling-hash compatibility constants. Both ends of a deployment must agree
# on these for cross-client deduplication; bump CHUNKING_VERSION on change.
CHUNKING_VERSION = 1
ROLLING_WINDOW = 48
ROLLING_POLY = 0x9E3779B97F4A7C15  # odd, so invertible mod 2**64

_M64 = 1 << 64
_POLY_INV = pow(ROLLING_POLY, -1, _M64)


@dataclass(frozen=True)
class Chunk:
    """A contiguous byte span produced by chunking."""

    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ChunkingParams:
    mode: str = "rabin"  # "fixed" | "rabin"
    fixed_size: int = 8192
    min_size: int = 2048
    avg_size: int = 8192
    max_size: int = 16384
    window: int = ROLLING_WINDOW

    def __post_init__(self):
        if self.mode not in ("fixed", "rabin"):
            raise ValueError(f"unknown chunking mode {self.mode!r}")
        if self.fixed_size < 1:
            raise ValueError("fixed_size must be >= 1")
        if not (1 <= self.min_size <= self.avg_size <= self.max_size):
            raise ValueError("need 1 <= min_size <= avg_size <= max_size")
        if self.mode == "rabin" and self.min_size < self.window:
            raise ValueError("min_size must be at least the rolling window")

    @property
    def boundary_mask(self) -> int:
        # Low bits of the rolling hash matched against all-ones; the bit
        # count is derived from the average chunk size.
        bits = max(1, round(math.log2(self.avg_size)))
        return (1 << bits) - 1


@dataclass(frozen=True)
class SegmentationParams:
    """Variable-size segmentation driven by chunk fingerprints.

    The minimum and maximum segment sizes are fixed at half and double the
    average. The divisor approximates the expected number of chunks per
    segment, so a boundary fires with probability ~1/divisor per chunk.
    """

    avg_size: int = 1_048_576
    avg_chunk_size: int = 8192

    def __post_init__(self):
        if self.avg_size < 1 or self.avg_chunk_size < 1:
            raise ValueError("sizes must be positive")

    @property
    def min_size(self) -> int:
        return self.avg_size // 2

    @property
    def max_size(self) -> int:
        return self.avg_size * 2

    @property
    def divisor(self) -> int:
        return max(1, math.ceil(self.avg_size / self.avg_chunk_size))


@dataclass
class Segment:
    chunks: list  # list[tuple[Chunk, Fingerprint]]
    total_bytes: int
    representative: Fingerprint


def fingerprint(chunk: Union[Chunk, bytes]) -> Fingerprint:
    """SHA-256 digest of the chunk content."""
    data = chunk.data if isinstance(chunk, Chunk) else chunk
    return hashlib.sha256(data).digest()


def fixed_chunk(data: bytes, size: int) -> list[Chunk]:
    """Split into fixed-size chunks; the final chunk may be shorter."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    return [Chunk(bytes(data[i:i + size])) for i in range(0, len(data), size)]


def _scan_dtype(mask: int):
    """Narrowest unsigned dtype of 16, 32 or 64 bits that holds the mask."""
    bits = mask.bit_length()
    if bits <= 16:
        return np.uint16
    if bits <= 32:
        return np.uint32
    return np.uint64


def _boundary_candidates(data: bytes, window: int, mask: int,
                         block: int = 1 << 16) -> np.ndarray:
    """Cut offsets where the windowed rolling hash matches the mask.

    The hash of the window ending at offset c is
        H = sum(data[c-window+j] * POLY**(window-1-j)) mod 2**64
    computed blockwise via prefix sums scaled by inverse powers of POLY.
    Only H's low bits under the mask are tested, and the low w bits of
    sums and products mod 2**64 depend only on the low w bits of their
    operands, so the scan runs mod 2**w in the narrowest dtype that holds
    the mask and finds exactly the candidates of the 64-bit hash. Buffers
    and the power tables are allocated once and reused across blocks.
    """
    n = len(data)
    if n < window:
        return np.empty(0, dtype=np.int64)
    dt = _scan_dtype(mask)
    modulus = 1 << (8 * np.dtype(dt).itemsize)
    maskw = dt(mask)
    last = n - window  # last valid window start
    max_k = min(block, last + 1)
    max_m = max_k + window - 1

    qp = np.full(max_m, dt(_POLY_INV % modulus))
    qp[0] = 1
    np.cumprod(qp, dtype=dt, out=qp)  # qp[j] = POLY^-j
    pw = np.full(max_k, dt(ROLLING_POLY % modulus))
    pw[0] = pow(ROLLING_POLY, window - 1, modulus)
    np.cumprod(pw, dtype=dt, out=pw)  # pw[i] = POLY^(i+window-1)

    prod = np.empty(max_m, dtype=dt)
    s = np.zeros(max_m + 1, dtype=dt)
    h = np.empty(max_k, dtype=dt)

    out = []
    i0 = 0
    while i0 <= last:
        k = min(block, last - i0 + 1)
        m = k + window - 1
        raw = np.frombuffer(data, dtype=np.uint8, count=m, offset=i0)
        np.multiply(raw, qp[:m], out=prod[:m])
        np.cumsum(prod[:m], dtype=dt, out=s[1:m + 1])  # s[0] stays 0
        np.subtract(s[window:window + k], s[:k], out=h[:k])
        np.multiply(h[:k], pw[:k], out=h[:k])
        np.bitwise_and(h[:k], maskw, out=h[:k])
        hits = np.nonzero(h[:k] == maskw)[0]
        if len(hits):
            out.append(hits + (i0 + window))
        i0 += k
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def rabin_chunk(data: bytes, params: ChunkingParams) -> list[Chunk]:
    """Content-defined chunking with min/max clamping.

    Boundaries are a pure function of the bytes inside the rolling window,
    so identical content produces identical cuts regardless of position.
    Candidates closer than min_size are skipped; a cut is forced at exactly
    max_size when no candidate fires in range.
    """
    n = len(data)
    if n == 0:
        return []
    candidates = _boundary_candidates(data, params.window, params.boundary_mask)
    cuts = []
    start = 0
    while start < n:
        lo = start + params.min_size
        hi = start + params.max_size
        idx = np.searchsorted(candidates, lo)
        cut = int(candidates[idx]) if idx < len(candidates) else None
        if cut is not None and cut <= min(hi, n):
            cuts.append(cut)
            start = cut
        elif hi < n:
            cuts.append(hi)
            start = hi
        else:
            cuts.append(n)
            start = n
    chunks = []
    prev = 0
    for c in cuts:
        chunks.append(Chunk(bytes(data[prev:c])))
        prev = c
    return chunks


def chunk_stream(data: bytes, params: ChunkingParams) -> list[Chunk]:
    if params.mode == "fixed":
        return fixed_chunk(data, params.fixed_size)
    return rabin_chunk(data, params)


def segment(pairs: Sequence[tuple], params: SegmentationParams) -> list[Segment]:
    """Group an ordered (Chunk, Fingerprint) stream into segments.

    A boundary is placed after a chunk when its fingerprint, taken as a
    big-endian integer, is congruent to divisor-1 modulo the divisor, once
    the running segment has reached the minimum size. A boundary is forced
    after any chunk whose inclusion pushes the segment past the maximum
    size, so a segment may overshoot the maximum by at most one chunk.
    The final segment of a stream may be smaller than the minimum.
    """
    if not pairs:
        raise ValueError("segment() requires a non-empty chunk list")
    divisor = params.divisor
    residue = divisor - 1
    segments: list[Segment] = []
    cur: list[tuple] = []
    total = 0

    def seal():
        nonlocal cur, total
        rep = min(fp for _, fp in cur)
        segments.append(Segment(chunks=cur, total_bytes=total, representative=rep))
        cur = []
        total = 0

    for chunk, fp in pairs:
        cur.append((chunk, fp))
        total += chunk.length
        if total > params.max_size:
            seal()
        elif total >= params.min_size and int.from_bytes(fp, "big") % divisor == residue:
            seal()
    if cur:
        seal()
    return segments
