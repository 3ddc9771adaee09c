import hashlib
import os
import tempfile

import pytest

from reed import cli, traceharness
from reed.chunking import SegmentationParams
from reed.client import KEYING_CHUNK, KEYING_SIMILARITY, download, store_file
from reed.errors import TraceParseError
from reed.traceharness import (TraceRecord, format_trace, generate_trace, parse_trace,
                               replay, synthesize_chunk)


# -- chunk synthesis ------------------------------------------------------------


def test_synthesize_repeats_pattern():
    assert synthesize_chunk("ab", 5) == b"\xab" * 5
    assert synthesize_chunk("abcd", 5) == bytes.fromhex("abcdabcdab")
    assert synthesize_chunk("abcd", 2) == bytes.fromhex("abcd")


def test_synthesize_deterministic_and_injective():
    assert synthesize_chunk("0011aa", 100) == synthesize_chunk("0011aa", 100)
    assert synthesize_chunk("0011aa", 100) != synthesize_chunk("0011ab", 100)


def test_synthesize_rejects_bad_size():
    with pytest.raises(ValueError):
        synthesize_chunk("ab", 0)


# -- trace text format ------------------------------------------------------------


def test_format_parse_round_trip():
    trace = generate_trace(seed=1, snapshots=3, chunks_per_snapshot=10,
                           mutation_rate=0.5)
    assert parse_trace(format_trace(trace)) == trace


def test_parse_reports_line_numbers():
    with pytest.raises(TraceParseError) as exc:
        parse_trace("#snapshot 0\nzz-not-hex\t100\n")
    assert exc.value.line == 2
    with pytest.raises(TraceParseError) as exc:
        parse_trace("#snapshot 0\nab\t100\nab 100\n")
    assert exc.value.line == 3
    with pytest.raises(TraceParseError) as exc:
        parse_trace("#snapshot 0\nab\t0\n")
    assert exc.value.line == 2
    with pytest.raises(TraceParseError) as exc:
        parse_trace("#snapshot 0\nab\t65537\n")
    assert exc.value.line == 2


def test_zero_filled_chunk_filter():
    text = "#snapshot 0\n000000000000\t4096\nab12cd34ef56\t4096\n"
    assert len(parse_trace(text)[0]) == 2
    filtered = parse_trace(text, drop_zero_chunks=True)[0]
    assert filtered == [TraceRecord("ab12cd34ef56", 4096)]


# -- trace generator ------------------------------------------------------------------


def test_generator_rate_zero_snapshots_identical():
    trace = generate_trace(seed=2, snapshots=4, chunks_per_snapshot=50,
                           mutation_rate=0.0)
    assert all(snap == trace[0] for snap in trace[1:])


def test_generator_rate_one_all_unique():
    trace = generate_trace(seed=3, snapshots=3, chunks_per_snapshot=50,
                           mutation_rate=1.0)
    fps = [rec.fp_hex for snap in trace for rec in snap]
    assert len(set(fps)) == len(fps)


def test_generator_mutation_fraction_near_rate():
    trace = generate_trace(seed=4, snapshots=2, chunks_per_snapshot=400,
                           mutation_rate=0.1)
    changed = sum(1 for a, b in zip(trace[0], trace[1]) if a != b)
    assert 0.04 * 400 <= changed <= 0.20 * 400  # binomial tolerance around 10%


def test_generator_deterministic():
    assert generate_trace(5, 3, 20, 0.3) == generate_trace(5, 3, 20, 0.3)


def test_generator_validates_rate():
    with pytest.raises(ValueError):
        generate_trace(1, 2, 10, 1.5)


@pytest.mark.parametrize("snapshots, chunks, name", [
    (0, 2, "snapshots must be at least 1, not 0"),
    (-1, 2, "snapshots must be at least 1, not -1"),
    (2, -3, "chunks_per_snapshot must be at least 0, not -3"),
], ids=["no-snapshots", "negative-snapshots", "negative-chunks"])
def test_generator_refuses_bad_counts(snapshots, chunks, name):
    with pytest.raises(ValueError, match=name):
        generate_trace(1, snapshots, chunks, 0.1)


def test_generator_takes_one_snapshot_of_no_chunks():
    assert generate_trace(1, 1, 0, 0.1) == [[]]


# -- replay laws ------------------------------------------------------------------------


SMALL_SEG = dict(avg_segment_size=32768, avg_chunk_size=8192)


def test_replay_report_is_deterministic(tmp_path):
    trace = generate_trace(seed=6, snapshots=3, chunks_per_snapshot=60,
                           mutation_rate=0.2)
    one = replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    two = replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    assert one.to_tsv() == two.to_tsv()


def test_exact_duplicate_snapshot_law():
    snap = generate_trace(seed=7, snapshots=1, chunks_per_snapshot=80,
                          mutation_rate=0.0)[0]
    report = replay([snap, snap], KEYING_SIMILARITY, **SMALL_SEG)
    first, second = report.rows
    assert second.physical_bytes == first.physical_bytes  # zero new container bytes
    assert second.stub_bytes - first.stub_bytes == 64 * len(snap) + 28
    assert second.saving > first.saving  # saving strictly increases


def test_stub_bytes_equal_across_modes():
    trace = generate_trace(seed=8, snapshots=3, chunks_per_snapshot=70,
                           mutation_rate=0.15)
    sim = replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    chunk = replay(trace, KEYING_CHUNK, **SMALL_SEG)
    assert sim.totals.stub_bytes == chunk.totals.stub_bytes
    assert sim.totals.logical_bytes == chunk.totals.logical_bytes


def test_similarity_never_beats_chunk_dedup():
    trace = generate_trace(seed=9, snapshots=4, chunks_per_snapshot=80,
                           mutation_rate=0.2)
    sim = replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    chunk = replay(trace, KEYING_CHUNK, **SMALL_SEG)
    assert sim.totals.physical_bytes >= chunk.totals.physical_bytes


def test_key_request_counts_per_mode():
    trace = generate_trace(seed=10, snapshots=2, chunks_per_snapshot=100,
                           mutation_rate=0.1)
    sim = replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    chunk = replay(trace, KEYING_CHUNK, **SMALL_SEG)
    # per-chunk mode: one request per logical chunk, duplicates included
    assert chunk.key_requests == 200
    # similarity mode: exactly one request per segment
    from reed.chunking import Chunk, fingerprint, segment
    params = SegmentationParams(avg_size=SMALL_SEG["avg_segment_size"],
                                avg_chunk_size=SMALL_SEG["avg_chunk_size"])
    expected = 0
    for snap in trace:
        chunks = [Chunk(synthesize_chunk(r.fp_hex, r.size)) for r in snap]
        pairs = [(c, fingerprint(c)) for c in chunks]
        expected += len(segment(pairs, params))
    assert sim.key_requests == expected
    assert sim.key_requests < chunk.key_requests


def oracle_key_ids(snapshots, mode, seg_params: SegmentationParams):
    """(chunk content, key id) for every chunk, the key id being the chunk's
    fingerprint or its segment's minimum fingerprint."""
    for snap in snapshots:
        chunks = [synthesize_chunk(r.fp_hex, r.size) for r in snap]
        fps = [hashlib.sha256(c).digest() for c in chunks]
        if mode == KEYING_CHUNK:
            key_ids = fps
        else:
            key_ids = []
            group: list[int] = []
            size = 0
            for i, (fp, chunk) in enumerate(zip(fps, chunks)):
                group.append(i)
                size += len(chunk)
                fire = (size >= seg_params.min_size
                        and int.from_bytes(fp, "big") % seg_params.divisor
                        == seg_params.divisor - 1)
                if size > seg_params.max_size or fire or i == len(chunks) - 1:
                    rep = min(fps[j] for j in group)
                    key_ids.extend([rep] * len(group))
                    group, size = [], 0
        yield from zip(chunks, key_ids)


def oracle_physical(snapshots, mode, seg_params: SegmentationParams) -> int:
    """Count bytes of distinct (chunk content, key id) pairs directly."""
    return sum(len(chunk) for chunk, _ in set(oracle_key_ids(snapshots, mode, seg_params)))


@pytest.mark.parametrize("mode", [KEYING_CHUNK, KEYING_SIMILARITY])
def test_replay_matches_brute_force_oracle(mode):
    trace = generate_trace(seed=11, snapshots=4, chunks_per_snapshot=90,
                           mutation_rate=0.25)
    assert sum(len(s) for s in trace) <= 1000
    report = replay(trace, mode, **SMALL_SEG)
    params = SegmentationParams(avg_size=SMALL_SEG["avg_segment_size"],
                                avg_chunk_size=SMALL_SEG["avg_chunk_size"])
    assert report.totals.physical_bytes == oracle_physical(trace, mode, params)


@pytest.mark.parametrize("mode, resolved", [(KEYING_CHUNK, 6000), (KEYING_SIMILARITY, 58)])
def test_key_cache_on_the_mode_comparison_trace(mode, resolved):
    # acceptance criterion 10's trace, replayed through one key session
    trace = generate_trace(seed=0x5EED10, snapshots=10, chunks_per_snapshot=600,
                           mutation_rate=0.1)
    report = replay(trace, mode)
    params = SegmentationParams()
    assert report.key_requests == resolved
    assert report.keys_sent <= report.key_requests
    # the cache holds every key of this trace, so each distinct key id is sent once
    key_ids = {key_id for _, key_id in oracle_key_ids(trace, mode, params)}
    assert report.keys_sent == len(key_ids)
    assert report.totals.physical_bytes == oracle_physical(trace, mode, params)


def test_extreme_binning_repeated_representative():
    """Three 4-chunk segments keyed A, D, A: the shared chunks deduplicate,
    the chunk appearing under two different segment keys is stored twice."""
    size = 8192
    params = SegmentationParams(avg_size=4 * size, avg_chunk_size=size)
    assert params.divisor == 4

    def residue(fp_hex: str) -> int:
        digest = hashlib.sha256(synthesize_chunk(fp_hex, size)).digest()
        return int.from_bytes(digest, "big") % 4

    def digest_of(fp_hex: str) -> bytes:
        return hashlib.sha256(synthesize_chunk(fp_hex, size)).digest()

    pool = [f"{i:012x}" for i in range(1, 400)]
    boundary = [fp for fp in pool if residue(fp) == 3]
    interior = [fp for fp in pool if residue(fp) != 3]
    by_digest = sorted(pool, key=digest_of)

    a = by_digest[0]  # global minimum: representative of segments 1 and 3
    d = min(boundary, key=digest_of)
    if a == d:
        boundary.remove(d)
        d = min(boundary, key=digest_of)
    others = [fp for fp in interior if digest_of(fp) > digest_of(a) and fp != a]
    b, c = others[0], others[1]
    e, f = [fp for fp in interior if digest_of(fp) > digest_of(d)][:2]
    t1 = [fp for fp in boundary if fp != d][0]
    t2 = [fp for fp in boundary if fp not in (d, t1) and digest_of(fp) > digest_of(d)][0]

    snap = [TraceRecord(x, size) for x in
            [a, b, c, t1, d, e, f, t2, a, b, c, d]]
    report = replay([snap], KEYING_SIMILARITY, avg_segment_size=4 * size,
                    avg_chunk_size=size)
    # segments: [a b c t1] [d e f t2] [a b c d] with representatives a, d, a
    assert report.key_requests == 3
    # 8 distinct chunks, and d is stored once per distinct segment key
    assert report.totals.physical_bytes == 9 * size
    assert report.totals.logical_bytes == 12 * size


def test_ten_snapshot_overlap_ordering():
    # 90% inter-snapshot overlap: ordering and stub equality are exact laws;
    # both modes dedup well below logical
    trace = generate_trace(seed=12, snapshots=10, chunks_per_snapshot=120,
                           mutation_rate=0.1)
    sim = replay(trace, KEYING_SIMILARITY)
    chunk = replay(trace, KEYING_CHUNK)
    assert sim.totals.physical_bytes >= chunk.totals.physical_bytes
    assert sim.totals.stub_bytes == chunk.totals.stub_bytes
    assert sim.totals.physical_bytes < sim.totals.logical_bytes / 2
    assert chunk.totals.physical_bytes < chunk.totals.logical_bytes / 2


@pytest.mark.parametrize("mode", [KEYING_CHUNK, KEYING_SIMILARITY])
def test_every_replayed_snapshot_downloads_to_its_synthesized_chunks(monkeypatch, mode):
    trace = generate_trace(seed=15, snapshots=3, chunks_per_snapshot=50,
                           mutation_rate=0.2)
    restored = []

    def store_and_read(chunk_blocks, path, **kwargs):
        file_id = store_file(chunk_blocks, path, **kwargs)
        restored.append(download(file_id, identity=kwargs["identity"],
                                 store=kwargs["store"]))
        return file_id

    monkeypatch.setattr(traceharness, "store_file", store_and_read)
    replay(trace, mode, **SMALL_SEG)
    assert restored == [b"".join(synthesize_chunk(r.fp_hex, r.size) for r in snap)
                        for snap in trace]


def test_tsv_shape():
    trace = generate_trace(seed=13, snapshots=2, chunks_per_snapshot=30,
                           mutation_rate=0.0)
    text = replay(trace, KEYING_SIMILARITY, **SMALL_SEG).to_tsv()
    lines = text.strip().splitlines()
    assert lines[0] == "snapshot\tlogical\tphysical\tstub\tsaving"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 5
        float(fields[4])


# -- command line -------------------------------------------------------------------------


def test_trace_cli_gen_and_replay(tmp_path, capsys):
    trace_path = os.path.join(str(tmp_path), "t.trace")
    report_path = os.path.join(str(tmp_path), "r.tsv")
    assert cli.trace_main(["gen", "--seed", "5", "--snapshots", "2",
                           "--chunks", "40", "--mutate", "0.1",
                           "-o", trace_path]) == 0
    assert cli.trace_main(["replay", trace_path, "--mode", "similarity",
                           "--avg-segment", "32K", "--avg-chunk", "8192",
                           "--report", report_path]) == 0
    with open(report_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("snapshot\t")
    assert len(lines) == 3
    counts = dict(line.split("\t") for line in capsys.readouterr().err.splitlines())
    assert set(counts) == {"key_requests", "keys_sent"}
    assert 0 < int(counts["keys_sent"]) <= int(counts["key_requests"])


REPLAY_TSV = {
    "chunk": ("snapshot\tlogical\tphysical\tstub\tsaving\n"
              "0\t357895\t357895\t2588\t-0.007231\n"
              "1\t714847\t397261\t5176\t0.437031\n"
              "2\t1070220\t424357\t7764\t0.596232\n",
              "key_requests\t120\nkeys_sent\t48\n"),
    "similarity": ("snapshot\tlogical\tphysical\tstub\tsaving\n"
                   "0\t357895\t357895\t2588\t-0.007231\n"
                   "1\t714847\t478326\t5176\t0.323629\n"
                   "2\t1070220\t526447\t7764\t0.500840\n",
                   "key_requests\t21\nkeys_sent\t9\n"),
}


@pytest.mark.parametrize("mode", sorted(REPLAY_TSV))
def test_trace_cli_replay_output_is_pinned(tmp_path, capsys, mode):
    trace_path = str(tmp_path / "t.trace")
    assert cli.trace_main(["gen", "--seed", "5", "--snapshots", "3", "--chunks", "40",
                           "--mutate", "0.1", "-o", trace_path]) == 0
    assert cli.trace_main(["replay", trace_path, "--mode", mode, "--avg-segment", "32K",
                           "--avg-chunk", "8192"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == REPLAY_TSV[mode]


@pytest.mark.parametrize("argv, message", [
    (["replay", "{missing}", "--mode", "chunk"], "No such file or directory"),
    (["gen", "--seed", "1", "--snapshots", "2", "--chunks", "3", "--mutate", "2"],
     "mutation rate must be within [0, 1]"),
    (["replay", "{trace}", "--mode", "chunk", "--avg-segment", "0"],
     "--avg-segment: expected a size of at least 1 byte, got '0'"),
    (["replay", "{trace}", "--mode", "chunk", "--avg-chunk", "0"],
     "--avg-chunk: expected a size of at least 1 byte, got '0'"),
    (["gen", "--seed", "1", "--snapshots", "0", "--chunks", "2", "--mutate", "0.1"],
     "snapshots must be at least 1"),
    (["gen", "--seed", "1", "--snapshots", "2", "--chunks", "-3", "--mutate", "0.1"],
     "chunks_per_snapshot must be at least 0"),
    (["replay", "{trace}", "--mode", "chunk", "--avg-segment", "abc"],
     "--avg-segment: expected a size of the form <bytes>[K|M|G], got 'abc'"),
    (["replay", "{trace}", "--mode", "chunk", "--avg-chunk=-8K"],
     "--avg-chunk: expected a size of the form <bytes>[K|M|G], got '-8K'"),
], ids=["missing-trace", "mutate-2", "avg-segment-0", "avg-chunk-0", "snapshots-0",
        "chunks-negative", "avg-segment-abc", "avg-chunk-negative"])
def test_trace_cli_reports_a_bad_input_as_one_error_line(tmp_path, capsys, argv, message):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(format_trace(generate_trace(1, 1, 3, 0.0)))
    paths = dict(missing=str(tmp_path / "missing.trace"), trace=str(trace_path))
    assert cli.trace_main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_replay_removes_only_the_directory_it_made(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    trace = generate_trace(seed=14, snapshots=2, chunks_per_snapshot=10,
                           mutation_rate=0.5)
    replay(trace, KEYING_SIMILARITY, **SMALL_SEG)
    assert os.listdir(tmp_path) == []
