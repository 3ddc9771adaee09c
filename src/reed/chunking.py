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
ROLLING_POLY = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Chunk:
    """A contiguous byte span produced by chunking."""

    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ChunkingParams:
    """Fixed mode cuts every avg_size bytes; Rabin chunks average avg_size
    and are bounded by the properties below, so clients agree on one size."""

    mode: str = "rabin"  # "fixed" | "rabin"
    avg_size: int = 8192

    def __post_init__(self):
        if self.mode not in ("fixed", "rabin"):
            raise ValueError(f"unknown chunking mode {self.mode!r}")
        if self.avg_size < 1:
            raise ValueError(f"avg_size must be at least 1, not {self.avg_size}")
        if self.mode == "rabin" and self.min_size < ROLLING_WINDOW:
            raise ValueError(f"avg_size must be at least {4 * ROLLING_WINDOW} under rabin, "
                             f"not {self.avg_size}")

    @property
    def min_size(self) -> int:
        return self.avg_size // 4

    @property
    def max_size(self) -> int:
        return 2 * self.avg_size

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
    Let W_s(i) be that hash over the s bytes starting at i. Two adjacent
    windows compose as W_{a+b}(i) = W_a(i) * POLY**b + W_b(i+a), so
    W_2s(i) = W_s(i) * POLY**s + W_s(i+s) doubles a window in one vectorised
    multiply-add, and the full window is composed from the doublings that
    its binary digits name: 48 = 32 + 16 gives
        H(i) = W_32(i) * POLY**16 + W_16(i+32).
    Only H's low bits under the mask are tested, and the low w bits of
    sums and products mod 2**64 depend only on the low w bits of their
    operands, so the scan runs mod 2**w in the narrowest dtype that holds
    the mask and finds exactly the candidates of the 64-bit hash. Window
    starts are scanned in blocks, which bound what one call allocates.
    """
    n = len(data)
    if n < window:
        return np.empty(0, dtype=np.int64)
    dt = _scan_dtype(mask)
    modulus = 1 << (8 * np.dtype(dt).itemsize)
    maskw = dt(mask)
    last = n - window  # last valid window start
    power = {e: dt(pow(ROLLING_POLY, e, modulus)) for e in range(window + 1)}

    out = []
    i0 = 0
    while i0 <= last:
        k = min(block, last - i0 + 1)
        cur = np.frombuffer(data, dtype=np.uint8, count=k + window - 1,
                            offset=i0).astype(dt)
        acc = None  # W_r over the starts it covers, r the window bits seen
        r, s = 0, 1  # cur holds W_s
        while True:
            if window & s:
                acc = cur if acc is None else cur[:len(acc) - s] * power[r] + acc[s:]
                r += s
            if 2 * s > window:
                break
            cur, s = cur[:-s] * power[s] + cur[s:], 2 * s
        hits = np.flatnonzero((acc & maskw) == maskw)
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
    candidates = _boundary_candidates(data, ROLLING_WINDOW,
                                      params.boundary_mask).tolist()
    min_size, max_size = params.min_size, params.max_size
    view = memoryview(data)
    chunks = []
    start = j = 0
    while start < n:
        lo = start + min_size
        hi = min(start + max_size, n)
        while j < len(candidates) and candidates[j] < lo:
            j += 1
        # candidates never pass n, so a cut at hi == n is the end of data
        cut = candidates[j] if j < len(candidates) and candidates[j] <= hi else hi
        chunks.append(Chunk(bytes(view[start:cut])))
        start = cut
    return chunks


def chunk_stream(data: bytes, params: ChunkingParams) -> list[Chunk]:
    if params.mode == "fixed":
        return fixed_chunk(data, params.avg_size)
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
        segments.append(Segment(chunks=cur, representative=rep))
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
