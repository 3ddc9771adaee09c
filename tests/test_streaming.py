"""The upload and download pipelines stream: same output as one pass, bounded memory.

The upload reads a file in TRANSFER_BATCH blocks and keys each block's
sealed segments as it goes; these tests hold its chunks, segment keys,
segment indices and key requests to the one-shot chunk_stream + segment
result over many read sizes, bound the memory of upload and download_to by
a block rather than the file, and check that the benchmark's span tracer
still sees every chunking and CAONT call.
"""

import hashlib
import io
import os
import random
import sys
import tracemalloc

import pytest

from reed import client
from reed.chunking import ChunkingParams, SegmentationParams, chunk_stream, fingerprint, segment
from reed.client import (KEYING_CHUNK, KEYING_SIMILARITY, StoreSession, download_to,
                         register_identity, upload)
from reed.keygen import KeyManagerService, KeySession
from reed.server import StorageService
from reed.wire import LocalBackend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MiB = 1 << 20

RABIN = ChunkingParams()
FIXED = ChunkingParams(mode="fixed", avg_size=8192)


class CountingKeys(KeySession):
    """Deterministic keys without a manager, counted as KeySession counts them."""

    def __init__(self):
        super().__init__(backend=None)

    def keys_for_fingerprints(self, fps):
        fps = list(fps)
        self.request_count += len(fps)
        return [hashlib.sha256(b"key" + fp).digest() for fp in fps]


def one_shot(data: bytes, params: ChunkingParams, keying: str,
             seg_params: SegmentationParams):
    """(chunk bytes, key, segment index) per chunk, and key requests, in one pass."""
    keys = CountingKeys()
    chunks = chunk_stream(data, params)
    fps = [fingerprint(c) for c in chunks]
    if keying == KEYING_CHUNK:
        out = [(c.data, k, i) for i, (c, k)
               in enumerate(zip(chunks, keys.keys_for_fingerprints(fps)))]
        return out, keys.request_count
    segments = segment(list(zip(chunks, fps)), seg_params)
    seg_keys = keys.keys_for_fingerprints([s.representative for s in segments])
    out = [(c.data, k, i) for i, (seg, k) in enumerate(zip(segments, seg_keys))
           for c, _ in seg.chunks]
    return out, keys.request_count


def streamed(chunk_blocks, keying: str, seg_params: SegmentationParams):
    keys = CountingKeys()
    out = [(c.data, k, i) for c, k, i
           in client._keyed_chunks(chunk_blocks, keying, keys, seg_params)]
    return out, keys.request_count


# read size, input size, segment size: reads of 1 B re-cut the carry on
# every read, so their input is small; the block size runs on several blocks
CASES = [(1, 40 * 1024, 16 * 1024),
         (2047, 600 * 1024, 64 * 1024),
         (2048, 600 * 1024, 64 * 1024),
         (16383, 600 * 1024, 64 * 1024),
         (16384, 600 * 1024, 64 * 1024),
         (16385, 600 * 1024, 64 * 1024),
         (client.TRANSFER_BATCH, 10 * MiB, MiB)]


@pytest.mark.parametrize("params", [RABIN, FIXED], ids=["rabin", "fixed"])
@pytest.mark.parametrize("read_size,size,seg_size", CASES,
                         ids=[str(c[0]) for c in CASES])
def test_streaming_matches_one_shot(params, read_size, size, seg_size):
    data = random.Random(read_size + size).randbytes(size)
    blocks = list(client._chunk_blocks(client._read_blocks(io.BytesIO(data), read_size),
                                       params))
    assert len(blocks) == size // read_size + 1
    seg_params = SegmentationParams(avg_size=seg_size, avg_chunk_size=8192)
    for keying in (KEYING_CHUNK, KEYING_SIMILARITY):
        got, got_requests = streamed(blocks, keying, seg_params)
        want, want_requests = one_shot(data, params, keying, seg_params)
        assert got == want, keying
        assert got_requests == want_requests, keying


def test_batches_split_at_the_transfer_size():
    sizes = [client.TRANSFER_BATCH // 2, client.TRANSFER_BATCH // 2, 1,
             client.TRANSFER_BATCH + 5, 3]
    assert list(client._batches(sizes, lambda n: n)) == \
        [sizes[:2], [1], [client.TRANSFER_BATCH + 5], [3]]
    assert list(client._batches([], len)) == []


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced above what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_upload_and_download_memory_does_not_grow_with_the_file(
        cluster, identities, tmp_path):
    alice = identities["alice"]
    cluster.register(alice)
    store, keys = cluster.store_session(), cluster.key_session()
    paths = {}
    for mib in (12, 36):
        paths[mib] = str(tmp_path / f"{mib}.bin")
        with open(paths[mib], "wb") as fh:
            fh.write(random.Random(mib).randbytes(mib * MiB))

    up, down, fids = {}, {}, {}

    def run_upload(mib):
        fids[mib] = upload(paths[mib], policy=["alice"], identity=alice,
                           store=store, keys=keys)

    def run_download(mib):
        with open(str(tmp_path / f"{mib}.out"), "wb") as sink:
            download_to(fids[mib], sink, identity=alice, store=store)

    for mib in (12, 36):
        up[mib] = traced_peak(run_upload, mib)
        down[mib] = traced_peak(run_download, mib)
        with open(paths[mib], "rb") as a, open(str(tmp_path / f"{mib}.out"), "rb") as b:
            assert a.read() == b.read()
    assert up[36] - up[12] < 8 * MiB, up
    assert down[36] - down[12] < 8 * MiB, down


def test_upload_frees_each_block_before_reading_the_next(manager_keypair, identities,
                                                         tmp_path):
    # In-process, so the peak counts the client alone. Holding one block's
    # chunks while the next is read and chunked reads about 26 MiB here;
    # freeing them, about 22.5 MiB.
    service = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    store = StoreSession(LocalBackend(service))
    keys = KeySession(LocalBackend(KeyManagerService(manager_keypair)))
    alice = identities["alice"]
    register_identity(store, alice)
    keys.public_key
    path = str(tmp_path / "24.bin")
    with open(path, "wb") as fh:
        fh.write(random.Random(24).randbytes(24 * MiB))
    try:
        peak = traced_peak(upload, path, policy=["alice"], identity=alice,
                           store=store, keys=keys)
    finally:
        service.close()
    assert peak < 24.5 * MiB, peak / MiB


def test_span_tracer_sees_every_stage(cluster, identities, tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    alice = identities["alice"]
    cluster.register(alice)
    size = client.TRANSFER_BATCH + 300_000  # two blocks
    path = str(tmp_path / "traced.bin")
    with open(path, "wb") as fh:
        fh.write(random.Random(5).randbytes(size))
    tracer = spans.Tracer()
    tracer.install()
    try:
        fid = upload(path, policy=["alice"], identity=alice,
                     store=cluster.store_session(), keys=cluster.key_session())
        data = client.download(fid, identity=alice, store=cluster.store_session())
    finally:
        tracer.uninstall()
    assert len(data) == size
    sizes, counts = {}, {}
    for s in tracer.spans:
        sizes[s.name] = sizes.get(s.name, 0) + s.size
        counts[s.name] = counts.get(s.name, 0) + 1
    assert size <= sizes["chunking.chunk_stream"] < size + 2 * RABIN.max_size
    assert counts["chunking.chunk_stream"] == 2
    assert counts["chunking.segment"] >= 1
    for name in ("chunking.fingerprint", "caont.encrypt_chunk", "caont.decrypt_chunk"):
        assert sizes[name] == size, name


def test_span_tracer_sees_an_active_rekey(cluster, identities, tmp_path):
    """The traced caont.stub_file spans cover rekeys: an active rekey shows
    its stub-file decrypt and re-encrypt, and the server's blob puts."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    alice = identities["alice"]
    cluster.register(alice)
    path = str(tmp_path / "rekeyed.bin")
    data = random.Random(6).randbytes(300_000)
    with open(path, "wb") as fh:
        fh.write(data)
    store = cluster.store_session()
    fid = upload(path, policy=["alice"], identity=alice, store=store,
                 keys=cluster.key_session())
    tracer = spans.Tracer()
    tracer.install()
    try:
        client.rekey_file(fid, new_policy=["alice"], mode="active", identity=alice,
                          store=store)
    finally:
        tracer.uninstall()
    counts = {}
    for s in tracer.spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    assert counts.get("caont.stub_file") == 2  # the decrypt and the re-encrypt
    assert counts.get("server.blob_put") == 2  # the wrapped state, then the stub file
    assert client.download(fid, identity=alice, store=store) == data
