"""The upload and download pipelines stream: same output as one pass, bounded memory.

The upload reads a file in TRANSFER_BATCH blocks and keys each block's
sealed segments as it goes; these tests hold its chunks, segment keys,
segment indices and key requests to the one-shot chunk_stream + segment
result over many read sizes, hold what the server stores to the same bytes
under two batch sizes, bound the memory of upload and download_to by a
block rather than the file, and check that the benchmark's span tracer
still sees every chunking and CAONT call.
"""

import hashlib
import io
import os
import random
import sys
import tracemalloc

import pytest

from reed import caont, client
from reed.chunking import ChunkingParams, SegmentationParams, chunk_stream, fingerprint, segment
from reed.client import (KEYING_CHUNK, KEYING_SIMILARITY, StoreSession, download_to,
                         register_identity, upload)
from reed.keygen import KeyManagerService, KeySession
from reed.rekeying import derive_file_key, unwind_to, unwrap_state
from reed.server import _BATCH_FP, _INDEX_RECORD, StorageService
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
         (client.TRANSFER_BATCH, 10 * MiB, MiB),
         (4 * MiB, 10 * MiB, MiB)]


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


@pytest.fixture
def in_process(manager_keypair, identities, tmp_path):
    """(store, keys) on services in this process, so a traced peak counts
    the client alone, with alice registered."""
    service = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    store = StoreSession(LocalBackend(service))
    keys = KeySession(LocalBackend(KeyManagerService(manager_keypair)))
    register_identity(store, identities["alice"])
    keys.public_key
    yield store, keys
    service.close()


def write_random(path: str, size: int, seed: int) -> str:
    with open(path, "wb") as fh:
        fh.write(random.Random(seed).randbytes(size))
    return path


def test_upload_frees_each_block_before_reading_the_next(in_process, identities, tmp_path):
    # With 1 MiB blocks this reads about 7.2 MiB; with 4 MiB blocks it read
    # about 21.3 MiB, and about 26 MiB when one block's chunks were still
    # held while the next was read and chunked.
    store, keys = in_process
    path = write_random(str(tmp_path / "24.bin"), 24 * MiB, 24)
    peak = traced_peak(upload, path, policy=["alice"], identity=identities["alice"],
                       store=store, keys=keys)
    assert peak < 10 * MiB, peak / MiB


def test_download_to_holds_about_one_batch(in_process, identities, tmp_path):
    # About 2.8 MiB with 1 MiB batches, and 8.8 MiB with 4 MiB batches.
    store, keys = in_process
    alice = identities["alice"]
    path = write_random(str(tmp_path / "24.bin"), 24 * MiB, 24)
    fid = upload(path, policy=["alice"], identity=alice, store=store, keys=keys)
    with open(str(tmp_path / "24.out"), "wb") as sink:
        peak = traced_peak(download_to, fid, sink, identity=alice, store=store)
    assert peak < 4 * MiB, peak / MiB
    with open(path, "rb") as a, open(str(tmp_path / "24.out"), "rb") as b:
        assert a.read() == b.read()


def package_records(data_root: str) -> list[bytes]:
    """The index log's package records, in order, without its batch records."""
    with open(os.path.join(data_root, "index.log"), "rb") as fh:
        log = fh.read()
    records = [log[i:i + _INDEX_RECORD.size] for i in range(0, len(log), _INDEX_RECORD.size)]
    return [r for r in records if not r.startswith(_BATCH_FP)]


def test_what_is_stored_does_not_depend_on_the_batch_size(manager_keypair, identities,
                                                           tmp_path, monkeypatch):
    # The second half repeats the first, so the 1 MiB batches send duplicates
    # of packages an earlier batch stored, where one 4 MiB batch holds both.
    alice = identities["alice"]
    half = random.Random(31).randbytes(3 * MiB // 2)
    data = half + half
    path = str(tmp_path / "file.bin")
    with open(path, "wb") as fh:
        fh.write(data)
    seen = {}
    for batch in (MiB, 4 * MiB):
        monkeypatch.setattr(client, "TRANSFER_BATCH", batch)
        root = tmp_path / str(batch)
        service = StorageService(str(root / "data"), str(root / "keys"))
        try:
            store = StoreSession(LocalBackend(service))
            keys = KeySession(LocalBackend(KeyManagerService(manager_keypair)))
            register_identity(store, alice)
            with open(path, "rb") as fh:
                fid = client.store_file(
                    client._chunk_blocks(client._read_blocks(fh, batch), RABIN), path,
                    policy=["alice"], identity=alice, store=store, keys=keys,
                    scheme=caont.SCHEME_ENHANCED, keying=KEYING_SIMILARITY,
                    seg_params=SegmentationParams())
            stub_version, stub_blob = store.get_stub(fid)
            state = unwrap_state(store.get_state(fid)[1], alice.access_key, alice.user_id)
            stats = store.stats()
            containers = root / "data" / "containers"
            seen[batch] = dict(
                containers={name: (containers / name).read_bytes()
                            for name in sorted(os.listdir(containers))},
                records=package_records(str(root / "data")),
                bytes=(stats.physical_bytes, stats.logical_bytes),
                recipe=client.Recipe.decode(store.get_recipe(fid)),
                stubs=bytes(caont.decrypt_stub_file(
                    stub_blob, derive_file_key(unwind_to(state, stub_version)))),
                key_requests=keys.request_count,
                download=client.download(fid, identity=alice, store=store))
        finally:
            service.close()
    small, large = seen[MiB], seen[4 * MiB]
    assert small["bytes"][1] == len(data)
    assert small["bytes"][0] < len(data)  # the repeated half was deduplicated
    assert small["download"] == data
    for key in small:
        assert small[key] == large[key], key


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
