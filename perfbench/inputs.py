"""Seeded benchmark inputs: a disk image with snapshots, and files of mixed sizes.

Every input is written to disk one block at a time and hashed while it is
written, so the benchmark never holds a whole input in memory and the peak
RSS it reports is the program's. Each input is fsynced once written, so the
program's own fsyncs in the timed calls never flush the benchmark's writes.
The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

BLOCK = 1 << 20
KIB = 1 << 10


@dataclass(frozen=True)
class InputFile:
    path: str
    size: int
    sha256: str


def rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


class _Sink:
    """Writes a new file while counting and hashing the bytes; fsyncs on close."""

    def __init__(self, path: str):
        self.path = path
        self.fh = open(path, "wb")
        self.hash = hashlib.sha256()
        self.size = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.flush()
        os.fsync(self.fh.fileno())
        self.fh.close()

    def done(self) -> InputFile:
        return InputFile(self.path, self.size, self.hash.hexdigest())

    def write(self, data: bytes) -> None:
        self.fh.write(data)
        self.hash.update(data)
        self.size += len(data)

    def random(self, gen: np.random.Generator, n: int) -> None:
        while n > 0:
            k = min(n, BLOCK)
            self.write(gen.bytes(k))
            n -= k

    def zeros(self, n: int) -> None:
        while n > 0:
            k = min(n, BLOCK)
            self.write(bytes(k))
            n -= k


def write_image(path: str, size: int, seed: int) -> InputFile:
    """Base disk image of exactly ``size`` bytes, in 256 KiB regions.

    Of every eight regions, six are random data, one is half a zero run and
    half random data, and one repeats an earlier random region, which gives
    the image internal duplicates. The layout is the same for every seed;
    the seed picks the bytes and which region each repeat copies.
    """
    gen = rng(seed, 1)
    region = 256 * KIB
    with _Sink(path) as sink:
        j = 0
        while sink.size < size:
            n = min(size - sink.size, region)
            if j % 8 == 6:
                sink.zeros(n // 2)
                sink.random(rng(seed, 2, j), n - n // 2)
            elif j % 8 == 7:
                source = int(gen.integers(j // 8 + 1)) * 8 + int(gen.integers(6))
                sink.random(rng(seed, 2, source), n)
            else:
                sink.random(rng(seed, 2, j), n)
            j += 1
    return sink.done()


def write_snapshot(prev: InputFile, path: str, edits: int, seed: int,
                   index: int) -> InputFile:
    """Next snapshot: ``prev`` with ``edits`` inserts, deletes and overwrites.

    Edits of 1 to 64 KiB sit at sorted random offsets and cycle through the
    three kinds; an edit that would overlap the one before it is skipped.
    The previous snapshot is streamed, never loaded whole.
    """
    gen = rng(seed, 3, index)
    offsets = np.sort(gen.integers(0, prev.size, edits))
    lengths = gen.integers(KIB, 64 * KIB, edits)
    with open(prev.path, "rb") as src, _Sink(path) as sink:
        pos = 0

        def copy(n: int) -> None:
            while n > 0:
                block = src.read(min(n, BLOCK))
                sink.write(block)
                n -= len(block)

        for i, (offset, length) in enumerate(zip(offsets.tolist(), lengths.tolist())):
            if offset < pos:
                continue
            copy(offset - pos)
            pos = offset
            kind = i % 3
            if kind != 1:  # insert or overwrite: new bytes
                sink.random(gen, length)
            if kind != 0:  # delete or overwrite: drop old bytes
                skip = min(length, prev.size - pos)
                src.seek(skip, 1)
                pos += skip
        copy(prev.size - pos)
    return sink.done()


def write_random(path: str, size: int, seed: int, *tags: int) -> InputFile:
    with _Sink(path) as sink:
        sink.random(rng(seed, 4, *tags), size)
    return sink.done()


def size_ladder(count: int, smallest: int, largest: int) -> list[int]:
    """``count`` sizes spaced evenly on a log scale, smallest first."""
    ratio = (largest / smallest) ** (1 / max(1, count - 1))
    return [round(smallest * ratio ** i) for i in range(count)]
