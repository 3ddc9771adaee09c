import random

import pytest
from hypothesis import given, settings, strategies as st

from reed.chunking import (Chunk, ChunkingParams, ROLLING_POLY, ROLLING_WINDOW,
                           SegmentationParams, _boundary_candidates,
                           fingerprint, fixed_chunk, rabin_chunk, segment)

_M64 = 1 << 64


def oracle_candidates(data: bytes, mask: int, window: int = ROLLING_WINDOW) -> list[int]:
    """Independent per-byte rolling implementation of the window hash."""
    out = []
    h = 0
    drop = pow(ROLLING_POLY, window, _M64)
    for i, b in enumerate(data):
        h = (h * ROLLING_POLY + b) % _M64
        if i >= window:
            h = (h - data[i - window] * drop) % _M64
        if i >= window - 1 and (h & mask) == mask:
            out.append(i + 1)
    return out


def oracle_rabin(data: bytes, params: ChunkingParams) -> list[int]:
    """Brute-force cut selection over the oracle candidate stream."""
    candidates = oracle_candidates(data, params.boundary_mask)
    cuts = []
    start = 0
    n = len(data)
    while start < n:
        chosen = None
        for c in candidates:
            if start + params.min_size <= c <= min(start + params.max_size, n):
                chosen = c
                break
        if chosen is not None:
            cuts.append(chosen)
            start = chosen
        elif start + params.max_size < n:
            cuts.append(start + params.max_size)
            start += params.max_size
        else:
            cuts.append(n)
            start = n
        candidates = [c for c in candidates if c > start]
    return cuts


# -- fixed-size chunking -------------------------------------------------------


def test_fixed_chunk_arithmetic():
    chunks = fixed_chunk(bytes(10240), 4096)
    assert [c.length for c in chunks] == [4096, 4096, 2048]


def test_fixed_chunk_empty_input():
    assert fixed_chunk(b"", 4096) == []


def test_fixed_chunk_exact_boundary():
    chunks = fixed_chunk(bytes(4096), 4096)
    assert len(chunks) == 1 and chunks[0].length == 4096


def test_fixed_chunk_rejects_bad_size():
    with pytest.raises(ValueError):
        fixed_chunk(b"xy", 0)


@given(st.binary(max_size=5000), st.integers(min_value=1, max_value=700))
@settings(max_examples=40, deadline=None)
def test_fixed_chunk_reassembles(data, size):
    chunks = fixed_chunk(data, size)
    assert b"".join(c.data for c in chunks) == data
    assert all(c.length == size for c in chunks[:-1])
    if chunks:
        assert 1 <= chunks[-1].length <= size


# -- fingerprints ---------------------------------------------------------------


def test_fingerprint_of_empty_chunk():
    assert fingerprint(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_fingerprint_known_value():
    # reference SHA-256 of b"abc"
    assert fingerprint(Chunk(b"abc")).hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_fingerprint_deterministic():
    assert fingerprint(Chunk(b"same bytes")) == fingerprint(b"same bytes")


# -- content-defined chunking ------------------------------------------------------


def test_rabin_matches_reference_oracle():
    rng = random.Random(0xC0FFEE)
    data = rng.randbytes(160_000)
    params = ChunkingParams()
    chunks = rabin_chunk(data, params)
    got, pos = [], 0
    for c in chunks:
        pos += c.length
        got.append(pos)
    assert got == oracle_rabin(data, params)


def test_rabin_candidates_match_oracle():
    rng = random.Random(17)
    data = rng.randbytes(120_000)
    mask = ChunkingParams().boundary_mask
    assert _boundary_candidates(data, ROLLING_WINDOW, mask).tolist() == \
        oracle_candidates(data, mask)


@pytest.mark.parametrize("block", [997, 1 << 16, 1 << 20])
@pytest.mark.parametrize("bits", [1, 13, 16, 17, 32, 33, 40])
def test_rabin_candidates_match_oracle_at_width_edges(bits, block):
    # The scan runs in the narrowest of 16, 32 and 64 bits that holds the
    # mask; a mask of the top bit plus a few low bits hits often enough to
    # test that width's highest bit on random data.
    mask = (1 << (bits - 1)) | (0b111 if bits > 4 else 0)
    data = random.Random(bits).randbytes(150_000)
    assert _boundary_candidates(data, ROLLING_WINDOW, mask, block=block).tolist() == \
        oracle_candidates(data, mask)


@pytest.mark.parametrize("bits", [1, 13, 17, 33])
@pytest.mark.parametrize("window", [1, 2, 3, 31, 47, 49, 64])
def test_rabin_candidates_match_oracle_at_window_sizes(window, bits):
    # The scan composes the window from doublings named by its binary digits:
    # one digit (1, 2, 64), two (3, 49), several (31, 47), at every width.
    mask = (1 << (bits - 1)) | (0b111 if bits > 4 else 0)
    data = random.Random(window * 100 + bits).randbytes(30_000)
    assert _boundary_candidates(data, window, mask, block=997).tolist() == \
        oracle_candidates(data, mask, window)


def test_rabin_blocking_does_not_change_boundaries():
    rng = random.Random(18)
    data = rng.randbytes(100_000)
    mask = ChunkingParams().boundary_mask
    full = _boundary_candidates(data, ROLLING_WINDOW, mask).tolist()
    assert _boundary_candidates(data, ROLLING_WINDOW, mask, block=997).tolist() == full


def test_rabin_deterministic():
    rng = random.Random(1)
    data = rng.randbytes(1 << 20)
    params = ChunkingParams()
    first = [c.data for c in rabin_chunk(data, params)]
    second = [c.data for c in rabin_chunk(data, params)]
    assert first == second


def test_rabin_reassembly_and_bounds():
    rng = random.Random(2)
    data = rng.randbytes(1 << 20)
    params = ChunkingParams()
    chunks = rabin_chunk(data, params)
    assert b"".join(c.data for c in chunks) == data
    for c in chunks[:-1]:
        assert params.min_size <= c.length <= params.max_size
    assert chunks[-1].length <= params.max_size


def test_rabin_mean_chunk_size_in_range():
    rng = random.Random(3)
    data = rng.randbytes(1 << 20)
    chunks = rabin_chunk(data, ChunkingParams(avg_size=8192))
    mean = len(data) / len(chunks)
    assert 4096 <= mean <= 16384


def test_rabin_resynchronizes_on_shared_suffix():
    rng = random.Random(4)
    suffix = rng.randbytes(400_000)
    a = rng.randbytes(12_345) + suffix
    b = rng.randbytes(23_456) + suffix
    params = ChunkingParams()

    def suffix_cuts(data, prefix_len):
        pos = 0
        cuts = []
        for c in rabin_chunk(data, params):
            pos += c.length
            if pos > prefix_len:
                cuts.append(pos - prefix_len)
        return cuts

    ca = suffix_cuts(a, len(a) - len(suffix))
    cb = suffix_cuts(b, len(b) - len(suffix))
    common = sorted(set(ca) & set(cb))
    assert common, "streams never resynchronized"
    first = common[0]
    ia, ib = ca.index(first), cb.index(first)
    assert ca[ia:] == cb[ib:]
    # at most one differing boundary before the streams lock together
    assert ia <= 1 and ib <= 1


def test_rabin_empty_input():
    assert rabin_chunk(b"", ChunkingParams()) == []


def test_chunking_params_validation():
    with pytest.raises(ValueError):
        ChunkingParams(mode="nope")
    with pytest.raises(ValueError):
        ChunkingParams(min_size=8192, avg_size=4096)
    with pytest.raises(ValueError):
        ChunkingParams(min_size=16, avg_size=8192)  # below the window


# -- segmentation -----------------------------------------------------------------


def fp_of(value: int) -> bytes:
    return value.to_bytes(32, "big")


def pair_of(value: int, size: int = 8192):
    return Chunk(bytes([value % 251]) * size), fp_of(value)


def oracle_segment_offsets(fps: list[bytes], sizes: list[int],
                           params: SegmentationParams) -> list[int]:
    """Brute-force scan applying the modulo rule with min/max constraints."""
    bounds = []
    total = 0
    for i, (fp, size) in enumerate(zip(fps, sizes)):
        total += size
        if total > params.max_size:
            bounds.append(i + 1)
            total = 0
        elif total >= params.min_size and \
                int.from_bytes(fp, "big") % params.divisor == params.divisor - 1:
            bounds.append(i + 1)
            total = 0
    if total:
        bounds.append(len(fps))
    return bounds


def test_segment_single_small_chunk():
    params = SegmentationParams()
    segs = segment([pair_of(5, size=100)], params)
    assert len(segs) == 1
    assert segs[0].total_bytes == 100
    assert segs[0].representative == fp_of(5)


def test_segment_representatives_repeat():
    # three 4-chunk segments whose representatives come out A, D, A
    params = SegmentationParams(avg_size=32768, avg_chunk_size=8192)
    assert params.divisor == 4
    a, b, c = pair_of(4), pair_of(17), pair_of(34)       # residues 0, 1, 2
    t1, d, t2 = pair_of(4099), pair_of(259), pair_of(12291)  # residue 3 each
    e, f = pair_of(4352), pair_of(8706)
    stream = [a, b, c, t1, d, e, f, t2, a, b, c, d]
    segs = segment(stream, params)
    assert [len(s.chunks) for s in segs] == [4, 4, 4]
    assert [s.representative for s in segs] == [fp_of(4), fp_of(259), fp_of(4)]
    assert segs[0].representative == segs[2].representative


def test_segment_matches_brute_force_oracle():
    rng = random.Random(11)
    params = SegmentationParams(avg_size=4 * 8192, avg_chunk_size=8192)
    fps = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(300)]
    sizes = [rng.randint(2048, 16384) for _ in range(300)]
    pairs = [(Chunk(b"x" * s), fp) for fp, s in zip(fps, sizes)]
    segs = segment(pairs, params)
    offsets = []
    seen = 0
    for s in segs:
        seen += len(s.chunks)
        offsets.append(seen)
    assert offsets == oracle_segment_offsets(fps, sizes, params)


def test_segment_boundaries_are_prefix_pure():
    rng = random.Random(12)
    params = SegmentationParams(avg_size=4 * 8192, avg_chunk_size=8192)
    pairs = [pair_of(rng.getrandbits(40)) for _ in range(64)]
    base = segment(pairs, params)
    # permute the tail beyond the first segment; earlier boundaries hold
    head = len(base[0].chunks)
    shuffled = pairs[:head] + list(reversed(pairs[head:]))
    again = segment(shuffled, params)
    assert [c for c in again[0].chunks] == [c for c in base[0].chunks]
    assert again[0].representative == base[0].representative


def test_segment_size_law():
    rng = random.Random(13)
    params = SegmentationParams(avg_size=65536, avg_chunk_size=8192)
    pairs = [pair_of(rng.getrandbits(40), size=rng.randint(2048, 16384))
             for _ in range(400)]
    segs = segment(pairs, params)
    max_chunk = max(c.length for c, _ in pairs)
    for s in segs[:-1]:
        assert params.min_size <= s.total_bytes <= params.max_size + max_chunk
    assert segs[-1].total_bytes <= params.max_size + max_chunk
    assert sum(len(s.chunks) for s in segs) == len(pairs)


def test_segment_representative_is_minimum():
    rng = random.Random(14)
    params = SegmentationParams(avg_size=32768, avg_chunk_size=8192)
    pairs = [pair_of(rng.getrandbits(40)) for _ in range(50)]
    for s in segment(pairs, params):
        assert s.representative == min(fp for _, fp in s.chunks)


def test_segment_identical_streams_identical_segments():
    rng = random.Random(15)
    pairs = [pair_of(rng.getrandbits(40)) for _ in range(40)]
    params = SegmentationParams(avg_size=32768, avg_chunk_size=8192)
    one = segment(list(pairs), params)
    two = segment(list(pairs), params)
    assert [(s.total_bytes, s.representative) for s in one] == \
        [(s.total_bytes, s.representative) for s in two]


def test_segment_rejects_empty_stream():
    with pytest.raises(ValueError):
        segment([], SegmentationParams())


def test_segmentation_params_derived_values():
    params = SegmentationParams(avg_size=1_048_576, avg_chunk_size=8192)
    assert params.min_size == 524_288
    assert params.max_size == 2_097_152
    assert params.divisor == 128
