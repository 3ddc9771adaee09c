import contextlib
import hashlib
import json
import os
import random
import socket
import stat
import struct
import threading

import pytest

from conftest import CrashPoints, assert_one_stub_record, tree_digest
from reed import wire
from reed.client import Connection, StoreSession
from reed.errors import (FingerprintMismatch, InvalidOperand, NotFound,
                         StorageUnavailable, VersionConflict)
from reed.server import _INDEX_RECORD as INDEX_RECORD
from reed.server import FingerprintIndex, FrameServer, StorageService
from reed.wire import LocalBackend


def item(data: bytes) -> tuple[bytes, bytes]:
    return hashlib.sha256(data).digest(), data


@pytest.fixture
def service(tmp_path):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    yield svc
    svc.close()


@pytest.fixture
def session(service):
    return StoreSession(LocalBackend(service))


# -- dedup and containers --------------------------------------------------------


def test_fresh_server_stats_zero(session):
    stats = session.stats()
    assert (stats.logical_bytes, stats.physical_bytes, stats.stub_bytes,
            stats.container_count, stats.index_entries) == (0, 0, 0, 0, 0)


def test_store_get_round_trip(session):
    items = [item(os.urandom(500)) for _ in range(5)]
    session.put_packages(items)
    got = session.get_packages([fp for fp, _ in items])
    assert got == [data for _, data in items]


def test_get_preserves_request_order(session):
    items = [item(os.urandom(100 + i)) for i in range(6)]
    session.put_packages(items)
    reordered = list(reversed(items))
    got = session.get_packages([fp for fp, _ in reordered])
    assert got == [data for _, data in reordered]


def test_duplicate_store_is_idempotent(session):
    data = os.urandom(4096)
    session.put_packages([item(data)])
    phys = session.stats().physical_bytes
    session.put_packages([item(data)])
    stats = session.stats()
    assert stats.physical_bytes == phys
    assert stats.logical_bytes == 2 * len(data)
    assert stats.index_entries == 1


def test_duplicates_within_one_batch(session):
    data = os.urandom(2048)
    stored = session.put_packages([item(data), item(data)])
    assert stored == 1
    assert session.stats().physical_bytes == len(data)


def test_fingerprint_mismatch_rejects_batch(service, session):
    good = item(os.urandom(100))
    bad = (bytes(32), os.urandom(100))
    with pytest.raises(FingerprintMismatch):
        session.put_packages([good, bad])
    assert session.stats().physical_bytes == 0
    assert good[0] not in service.index


def session_over(svc, transport: str, stack: contextlib.ExitStack) -> StoreSession:
    backend = LocalBackend(svc)
    if transport == "tcp":
        server = FrameServer(svc).start()
        stack.callback(server.stop)
        backend = stack.enter_context(Connection(*server.address))
    return StoreSession(backend)


def read_containers(data_root: str) -> bytes:
    croot = os.path.join(data_root, "containers")
    parts = []
    for name in sorted(os.listdir(croot)):
        with open(os.path.join(croot, name), "rb") as fh:
            parts.append(fh.read())
    return b"".join(parts)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_indexed_duplicate_is_acknowledged_by_its_length(tmp_path, transport):
    # The body of an indexed fingerprint is discarded unhashed, so a
    # same-length forgery is acknowledged without touching a container.
    data_root = str(tmp_path / "data")
    svc = StorageService(data_root, str(tmp_path / "keys"))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        session = session_over(svc, transport, stack)
        fp, data = item(os.urandom(3000))
        session.put_packages([(fp, data)])
        before = read_containers(data_root)
        assert session.put_packages([(fp, os.urandom(3000))]) == 0
        assert read_containers(data_root) == before
        assert session.get_packages([fp]) == [data]
        stats = session.stats()
        assert (stats.logical_bytes, stats.physical_bytes) == (6000, 3000)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_indexed_duplicate_of_another_length_rejects_the_batch(tmp_path, transport):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        session = session_over(svc, transport, stack)
        fp, data = item(os.urandom(3000))
        session.put_packages([(fp, data)])
        fresh = item(os.urandom(500))
        for forged in (data[:-1], data + b"x"):
            with pytest.raises(FingerprintMismatch, match="indexed with 3000 bytes"):
                session.put_packages([fresh, (fp, forged)])
        assert fresh[0] not in svc.index
        stats = session.stats()
        assert (stats.logical_bytes, stats.physical_bytes) == (3000, 3000)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_new_package_with_a_wrong_body_rejects_a_batch_of_duplicates(tmp_path, transport):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        session = session_over(svc, transport, stack)
        dup = item(os.urandom(3000))
        session.put_packages([dup])
        good = item(os.urandom(700))
        bad = (hashlib.sha256(b"other").digest(), os.urandom(700))
        with pytest.raises(FingerprintMismatch, match="does not hash"):
            session.put_packages([dup, good, bad])
        assert good[0] not in svc.index and bad[0] not in svc.index
        stats = session.stats()
        assert (stats.logical_bytes, stats.physical_bytes) == (3000, 3000)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_indexed_packages_are_not_hashed(tmp_path, transport, monkeypatch):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        session = session_over(svc, transport, stack)
        old = [item(os.urandom(1000 + i)) for i in range(3)]
        session.put_packages(old)
        new = item(os.urandom(2000))
        hashed = []
        real_sha256 = hashlib.sha256

        def sha256(data=b""):
            hashed.append(bytes(data))
            return real_sha256(data)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        assert session.put_packages(old + [new] + old) == 1
        monkeypatch.undo()
        assert hashed == [new[1]]
        assert session.get_packages([fp for fp, _ in old + [new]]) == \
            [data for _, data in old + [new]]


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_copies_of_a_new_fingerprint_are_hashed_once(tmp_path, transport, monkeypatch):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        session = session_over(svc, transport, stack)
        x = item(os.urandom(2000))
        calls = []
        real_sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data=b"": calls.append(1) or real_sha256(data))
        assert session.put_packages([x, x, x]) == 1
        monkeypatch.undo()
        assert len(calls) == 1
        stats = session.stats()
        assert (stats.logical_bytes, stats.physical_bytes) == (6000, 2000)


def test_a_later_copy_of_a_new_fingerprint_with_another_length_rejects_the_batch(
        service, session):
    other, x = item(os.urandom(300)), item(os.urandom(2000))
    for forged in (x[1][:-1], x[1] + b"x"):
        with pytest.raises(FingerprintMismatch, match="with 2000 bytes"):
            session.put_packages([other, x, (x[0], forged)])
    assert other[0] not in service.index and x[0] not in service.index
    stats = session.stats()
    assert (stats.logical_bytes, stats.physical_bytes, stats.index_entries) == (0, 0, 0)


def test_unknown_fingerprint_not_found(session):
    with pytest.raises(NotFound):
        session.get_packages([os.urandom(32)])


def test_container_rotation_at_capacity(service, session, tmp_path):
    rng = random.Random(0)
    items = [item(rng.randbytes(8192 - 64)) for _ in range(645)]  # ~5MB unique
    session.put_packages(items)
    stats = session.stats()
    assert stats.container_count >= 2
    croot = str(tmp_path / "data" / "containers")
    for name in os.listdir(croot):
        assert os.path.getsize(os.path.join(croot, name)) <= 4 * 1024 * 1024
    assert stats.physical_bytes == sum(len(d) for _, d in items)


# -- blobs, versions, CAS ------------------------------------------------------------


def test_blob_put_get_identity(session):
    session.put_recipe("file-a", b"recipe bytes")
    assert session.get_recipe("file-a") == b"recipe bytes"


def test_blob_missing_not_found(session):
    with pytest.raises(NotFound):
        session.get_recipe("nope")
    with pytest.raises(NotFound):
        session.get_stub("nope")


def test_an_empty_blob_id_is_an_invalid_operand(session, tmp_path):
    # an empty id would name the kind's directory itself
    ops = [(session.put_recipe, session.get_recipe),
           (lambda obj_id, blob: session.put_stub(obj_id, 0, blob), session.get_stub),
           (lambda obj_id, blob: session.put_state(obj_id, 0, blob), session.get_state),
           (session.put_user_key, session.get_user_key)]
    for put, get in ops:
        with pytest.raises(InvalidOperand):
            put("", b"blob")
        with pytest.raises(InvalidOperand):
            get("")
    assert [name for _, _, names in os.walk(tmp_path) for name in names
            if name.endswith(".tmp")] == []


def test_versioned_blob_current_pointer(session, tmp_path):
    session.put_stub("f", 0, b"v0")
    session.put_stub("f", 1, b"v1")
    assert session.get_stub("f") == (1, b"v1")
    session.put_stub("f", 0, b"again")  # below the current version: acknowledged, no change
    assert session.get_stub("f") == (1, b"v1")
    assert_one_stub_record(str(tmp_path / "data"), session, "f")


def test_state_cas_conflict(session):
    session.put_state("f", 0, b"s0")
    session.put_state("f", 1, b"s1", expected_prev=0)
    with pytest.raises(VersionConflict):
        session.put_state("f", 1, b"other", expected_prev=0)
    assert session.get_state("f") == (1, b"s1")


def test_stub_accounting_replaces_same_version(session):
    session.put_stub("f", 0, b"x" * 100)
    assert session.stats().stub_bytes == 100
    session.put_stub("f", 0, b"y" * 100)  # idempotent re-upload
    assert session.stats().stub_bytes == 100
    session.put_stub("f", 1, b"z" * 80)  # a rekeyed version replaces it
    assert session.stats().stub_bytes == 80
    session.put_stub("g", 0, b"w" * 30)  # another file adds
    assert session.stats().stub_bytes == 110


# -- one record per blob --------------------------------------------------------------


def stub_kind(tmp_path) -> str:
    return str(tmp_path / "data" / "blobs" / "stub")


def test_superseding_put_removes_older_versions(session, tmp_path):
    session.put_stub("f", 0, b"a" * 100)
    session.put_stub("f", 1, b"b" * 90)
    session.put_stub("f", 2, b"c" * 80)
    assert session.get_stub("f") == (2, b"c" * 80)
    assert_one_stub_record(str(tmp_path / "data"), session, "f")
    with open(os.path.join(stub_kind(tmp_path), b"f".hex()), "rb") as fh:
        assert fh.read() == struct.pack(">I", 2) + b"c" * 80


def test_superseding_put_of_the_current_version_replaces_it(session):
    session.put_stub("f", 0, b"a" * 100)
    session.put_stub("f", 1, b"b" * 90)
    session.put_stub("f", 1, b"c" * 70)  # a retried active rekey
    assert session.get_stub("f") == (1, b"c" * 70)
    assert session.stats().stub_bytes == 70


def test_stub_bytes_recounted_after_superseding_puts(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    for version in range(4):
        session.put_stub("f", version, bytes(100 + version))
    session.put_stub("g", 0, bytes(50))
    before = session.stats().stub_bytes
    assert before == 103 + 50
    svc.close()
    svc2 = StorageService(data_root, key_root)
    assert StoreSession(LocalBackend(svc2)).stats().stub_bytes == before
    svc2.close()


def test_put_syncs_the_record_before_its_rename_and_the_directory_after(
        session, tmp_path, monkeypatch):
    session.put_stub("f", 0, b"old")
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    session.put_stub("f", 1, b"new")
    record = os.path.join(stub_kind(tmp_path), b"f".hex())
    inode = os.stat(record).st_ino
    assert events == [("fsync", inode), ("replace", inode, record),
                      ("fsync", os.stat(stub_kind(tmp_path)).st_ino)]


@pytest.mark.parametrize("obj_id", ["f", "g"], ids=["replace", "new"])
def test_a_blob_put_takes_three_durable_steps(session, tmp_path, obj_id):
    session.put_stub("f", 0, b"old")  # the kind directory exists
    points = CrashPoints(str(tmp_path))
    with points.armed():
        session.put_stub(obj_id, 1, b"new")
    assert points.steps == ["os.fsync", "os.replace", "os.fsync"]


def test_a_blob_record_takes_the_mode_of_a_plain_open(session, tmp_path, umask_022):
    session.put_stub("f", 0, b"old")
    session.put_stub("f", 1, b"new")
    record = os.path.join(stub_kind(tmp_path), b"f".hex())
    assert stat.S_IMODE(os.stat(record).st_mode) == 0o644


def test_put_cut_at_its_rename_keeps_the_previous_version(tmp_path, monkeypatch):
    # Process death only: the put stops where os.replace would run, and no
    # written page is lost.
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    session.put_stub("f", 0, b"a" * 100)
    session.put_stub("g", 0, b"b" * 40)

    def cut(src, dst):
        raise OSError("process died here")

    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(StorageUnavailable):
        session.put_stub("f", 1, b"c" * 70)
    monkeypatch.undo()
    assert session.get_stub("f") == (0, b"a" * 100)
    assert b"f".hex() + ".tmp" in os.listdir(stub_kind(tmp_path))
    svc.close()
    svc2 = StorageService(data_root, key_root)
    session2 = StoreSession(LocalBackend(svc2))
    assert sorted(os.listdir(stub_kind(tmp_path))) == [b"f".hex(), b"g".hex()]
    assert session2.stats().stub_bytes == 100 + 40
    assert session2.get_stub("f") == (0, b"a" * 100)
    svc2.close()


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_put_below_current_changes_nothing_and_unknown_flags_are_refused(service,
                                                                         transport):
    with contextlib.ExitStack() as stack:
        backend = LocalBackend(service)
        if transport == "tcp":
            server = FrameServer(service).start()
            stack.callback(server.stop)
            backend = stack.enter_context(Connection(*server.address))
        session = StoreSession(backend)
        session.put_stub("f", 0, b"v0")
        session.put_stub("f", 2, b"v2")
        session.put_stub("f", 1, b"v1")  # an overtaken active rekey
        session.put_stub("f", 0, b"again")  # a version-0 re-upload
        assert session.get_stub("f") == (2, b"v2")
        payload = bytearray(wire.encode_blob_put("f", 3, b"v3"))
        flags_at = 1 + 4 + len(b"f") + 4
        for bad in (0x02, 0x04, 0x80, 0x07):  # 0x02 was the supersede bit
            payload[flags_at] = bad
            with pytest.raises(InvalidOperand, match="flags"):
                wire.call(backend, wire.MSG_STUB_FILE, bytes(payload))
        assert session.get_stub("f") == (2, b"v2")


def test_key_material_never_under_data_root(service, session, tmp_path):
    session.put_recipe("f", b"r")
    session.put_stub("f", 0, b"s")
    session.put_state("f", 0, b"k")
    session.put_user_key("alice", b"pem")
    data_kinds = set(os.listdir(tmp_path / "data" / "blobs"))
    key_kinds = set(os.listdir(tmp_path / "keys" / "blobs"))
    assert data_kinds == {"recipe", "stub"}
    assert key_kinds == {"state", "userkey"}


# -- durability ------------------------------------------------------------------------


def test_restart_preserves_acknowledged_writes(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    items = [item(os.urandom(3000)) for _ in range(40)]
    session.put_packages(items)
    session.put_recipe("f", b"recipe")
    session.put_stub("f", 0, b"stub blob")
    before = session.stats()
    svc.close()

    svc2 = StorageService(data_root, key_root)
    session2 = StoreSession(LocalBackend(svc2))
    assert all(fp in svc2.index for fp, _ in items)
    assert session2.get_packages([items[3][0]]) == [items[3][1]]
    assert session2.get_recipe("f") == b"recipe"
    after = session2.stats()
    assert after == before
    # re-sending the same upload adds no physical bytes
    session2.put_packages(items)
    assert session2.stats().physical_bytes == before.physical_bytes
    # and new writes keep working in the resumed container
    extra = item(os.urandom(1234))
    session2.put_packages([extra])
    assert session2.get_packages([extra[0]]) == [extra[1]]
    svc2.close()


def test_restart_recovers_open_container_tail(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    acked = item(os.urandom(2000))
    session.put_packages([acked])
    # simulate a crash that left container bytes without index records
    with open(os.path.join(data_root, "containers", "00000000.bin"), "ab") as fh:
        fh.write(b"garbage tail never acknowledged")
    svc.close()
    svc2 = StorageService(data_root, key_root)
    session2 = StoreSession(LocalBackend(svc2))
    assert session2.get_packages([acked[0]]) == [acked[1]]
    fresh = item(os.urandom(999))
    session2.put_packages([fresh])
    assert session2.get_packages([fresh[0]]) == [fresh[1]]
    assert session2.stats().physical_bytes == 2000 + 999
    svc2.close()


def container_bytes(data_root: str) -> int:
    croot = os.path.join(data_root, "containers")
    return sum(os.path.getsize(os.path.join(croot, name)) for name in os.listdir(croot))


def test_restart_cuts_a_torn_index_tail(tmp_path):
    # Models a process that died between the buffered writes of one batch's
    # index records; page-cache data lost by the machine is not modelled.
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    first = [item(os.urandom(1000)) for _ in range(3)]
    second = [item(os.urandom(1000)) for _ in range(3)]
    svc = StorageService(data_root, key_root)
    StoreSession(LocalBackend(svc)).put_packages(first)
    svc.close()
    with open(os.path.join(data_root, "index.log"), "ab") as fh:
        fh.write(b"\xee" * 20)
    svc = StorageService(data_root, key_root)
    StoreSession(LocalBackend(svc)).put_packages(second)
    svc.close()
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    items = first + second
    assert session.get_packages([fp for fp, _ in items]) == [data for _, data in items]
    assert session.stats().physical_bytes == container_bytes(data_root) == 6000
    svc.close()


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_oversized_package_refuses_the_whole_batch(tmp_path, transport):
    data_root = str(tmp_path / "data")
    svc = StorageService(data_root, str(tmp_path / "keys"), container_size=8192)
    small, big = item(os.urandom(3000)), item(os.urandom(9000))
    with contextlib.ExitStack() as stack:
        stack.callback(svc.close)
        backend = LocalBackend(svc)
        if transport == "tcp":
            server = FrameServer(svc).start()
            stack.callback(server.stop)
            backend = stack.enter_context(Connection(*server.address))
        session = StoreSession(backend)
        with pytest.raises(InvalidOperand, match="container size"):
            session.put_packages([small, big])
        assert session.stats().physical_bytes == 0
        assert session.put_packages([small]) == 1
    assert container_bytes(data_root) == 3000


def test_rotation_after_restart(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    first = [item(os.urandom(3000)) for _ in range(2)]
    second = [item(os.urandom(3000)) for _ in range(2)]
    svc = StorageService(data_root, key_root, container_size=8192)
    StoreSession(LocalBackend(svc)).put_packages(first)
    svc.close()
    svc2 = StorageService(data_root, key_root, container_size=8192)
    session2 = StoreSession(LocalBackend(svc2))
    session2.put_packages(second)  # the first of these rotates the resumed container
    everything = first + second
    fps = [fp for fp, _ in everything]
    assert session2.get_packages(fps) == [data for _, data in everything]
    assert session2.stats().container_count == 2
    svc2.close()


@pytest.mark.parametrize("size", [0, -1])
def test_a_container_size_below_one_is_refused_before_a_root_is_made(tmp_path, size):
    # a store of 0-byte containers would refuse every package put to it
    with pytest.raises(ValueError) as info:
        StorageService(str(tmp_path / "data"), str(tmp_path / "keys"), container_size=size)
    assert str(info.value) == f"container_size must be at least 1, not {size}"
    assert os.listdir(tmp_path) == []


def test_restart_with_empty_index_drops_stray_container_bytes(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    container = os.path.join(data_root, "containers", "00000000.bin")
    os.makedirs(os.path.dirname(container))
    with open(container, "wb") as fh:  # a crash before the first index record
        fh.write(os.urandom(1000))
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    fresh = [item(os.urandom(700)) for _ in range(2)]
    session.put_packages(fresh)
    assert session.get_packages([fp for fp, _ in fresh]) == [d for _, d in fresh]
    assert os.path.getsize(container) == 1400
    svc.close()


def test_restart_removes_container_left_by_rotation(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    first = [item(os.urandom(3000)) for _ in range(2)]
    second = [item(os.urandom(3000)) for _ in range(2)]
    svc = StorageService(data_root, key_root, container_size=8192)
    StoreSession(LocalBackend(svc)).put_packages(first)
    svc.close()
    # a rotation created container 1 and crashed before its index records
    with open(os.path.join(data_root, "containers", "00000001.bin"), "wb") as fh:
        fh.write(os.urandom(1000))
    svc2 = StorageService(data_root, key_root, container_size=8192)
    session2 = StoreSession(LocalBackend(svc2))
    session2.put_packages(second)
    everything = first + second
    fps = [fp for fp, _ in everything]
    assert session2.get_packages(fps) == [data for _, data in everything]
    assert session2.stats().container_count == 2
    svc2.close()


@pytest.mark.parametrize("cid, cut, message", [
    (0, None, "00000000.bin is missing: the index records 6000 bytes in it"),
    (1, 1, "00000001.bin holds 5999 bytes, 1 short of the 6000 the index records"),
    (2, 6000, "00000002.bin holds 0 bytes, 6000 short of the 6000 the index records"),
], ids=["sealed-missing", "sealed-short", "open-emptied"])
def test_a_container_short_of_its_index_refuses_the_open(tmp_path, cid, cut, message):
    # Two packages fill each 8 KiB container: 0 and 1 are sealed, 2 is open.
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root, container_size=8192)
    StoreSession(LocalBackend(svc)).put_packages([item(os.urandom(3000)) for _ in range(6)])
    svc.close()
    containers = os.path.join(data_root, "containers")
    path = os.path.join(containers, f"{cid:08d}.bin")
    if cut is None:
        os.remove(path)
    else:
        os.truncate(path, 6000 - cut)
    before = {name: os.path.getsize(os.path.join(containers, name))
              for name in os.listdir(containers)}
    with pytest.raises(StorageUnavailable) as raised:
        StorageService(data_root, key_root, container_size=8192)
    assert str(raised.value) == f"container {message}"
    # the refused open changed no container
    assert {name: os.path.getsize(os.path.join(containers, name))
            for name in os.listdir(containers)} == before


def test_reading_the_open_container_issues_no_fsync(session, monkeypatch):
    items = [item(os.urandom(700 + i)) for i in range(5)]
    session.put_packages(items)
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
    assert session.get_packages([fp for fp, _ in items]) == [d for _, d in items]
    assert calls == []


def sync_events(monkeypatch) -> list:
    """Each fsync as ("fsync", inode) and each rename, from now on."""
    events = []
    real_fsync, real_replace, real_rename = os.fsync, os.replace, os.rename

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def renamer(name, real):
        def rename(src, dst):
            events.append((name, src, dst))
            real(src, dst)
        return rename

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", renamer("replace", real_replace))
    monkeypatch.setattr(os, "rename", renamer("rename", real_rename))
    return events


def inode(path) -> int:
    return os.stat(path).st_ino


def test_a_batch_is_one_index_fsync_after_its_container_and_renames_nothing(
        service, session, tmp_path, monkeypatch):
    data_root = tmp_path / "data"
    container, index = data_root / "containers" / "00000000.bin", data_root / "index.log"
    events = sync_events(monkeypatch)
    first = item(os.urandom(500))
    session.put_packages([first])  # creates the container
    assert events == [("fsync", inode(data_root / "containers")),
                      ("fsync", inode(container)),
                      ("fsync", inode(index))]
    events.clear()
    session.put_packages([item(os.urandom(700)), first])
    assert events == [("fsync", inode(container)), ("fsync", inode(index))]
    events.clear()
    session.put_packages([first, first])  # duplicates only
    assert events == [("fsync", inode(index))]
    events.clear()
    session.put_packages([])  # no bytes, so nothing to make durable
    assert events == []
    assert "counters.json" not in os.listdir(data_root)
    assert (session.stats().logical_bytes, session.stats().physical_bytes) == (2700, 1200)


def test_rotation_syncs_the_new_container_and_its_directory_before_the_index(
        tmp_path, monkeypatch):
    data_root = tmp_path / "data"
    svc = StorageService(str(data_root), str(tmp_path / "keys"), container_size=8192)
    session = StoreSession(LocalBackend(svc))
    session.put_packages([item(os.urandom(3000)) for _ in range(2)])
    events = sync_events(monkeypatch)
    session.put_packages([item(os.urandom(3000)) for _ in range(2)])  # rotates
    croot = data_root / "containers"
    assert events == [("fsync", inode(croot / "00000000.bin")),
                      ("fsync", inode(croot)),
                      ("fsync", inode(croot / "00000001.bin")),
                      ("fsync", inode(data_root / "index.log"))]
    svc.close()


def test_open_syncs_each_directory_it_creates_and_the_log_it_creates(tmp_path,
                                                                     monkeypatch):
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)  # a directory with its entries, a file with its size
        synced.append((st.st_ino, sorted(os.listdir(fd)) if stat.S_ISDIR(st.st_mode)
                       else st.st_size))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    data_root = tmp_path / "root" / "data"
    svc = StorageService(str(data_root), str(tmp_path / "keys"))
    monkeypatch.undo()
    assert (inode(tmp_path), ["keys", "root"]) in synced
    assert (inode(tmp_path / "root"), ["data"]) in synced
    # the log's empty batch record, then the log's name
    marked = (inode(data_root / "index.log"), INDEX_RECORD.size)
    assert synced.index(marked) < synced.index((inode(data_root), ["index.log"]))
    assert (inode(data_root), ["blobs", "containers", "index.log"]) in synced
    assert (inode(tmp_path / "keys"), ["blobs"]) in synced
    svc.close()


def test_a_log_tail_without_its_batch_record_is_cut_with_its_container_bytes(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    index = os.path.join(data_root, "index.log")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    acked = [item(os.urandom(1000)) for _ in range(2)]
    session.put_packages(acked)
    kept, before = os.path.getsize(index), session.stats()
    cut = [item(os.urandom(1000)) for _ in range(2)]
    session.put_packages(cut + acked)
    svc.close()
    # the second batch's package records and container bytes landed, and
    # its batch record did not
    with open(index, "r+b") as fh:
        fh.truncate(os.path.getsize(index) - INDEX_RECORD.size)
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    assert os.path.getsize(index) == kept
    assert session.stats() == before
    assert all(fp not in svc.index for fp, _ in cut)
    assert container_bytes(data_root) == 2000
    assert session.get_packages([fp for fp, _ in acked]) == [d for _, d in acked]
    svc.close()


def test_a_batch_naming_the_zero_fingerprint_is_refused(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    svc = StorageService(data_root, key_root)
    session = StoreSession(LocalBackend(svc))
    session.put_packages([item(os.urandom(100))])
    before = session.stats()
    for data in (b"", os.urandom(100)):
        with pytest.raises(FingerprintMismatch):
            session.put_packages([item(os.urandom(50)), (bytes(32), data)])
    assert session.stats() == before
    svc.close()
    svc = StorageService(data_root, key_root)
    assert StoreSession(LocalBackend(svc)).stats() == before
    assert bytes(32) not in svc.index
    svc.close()


def make_old_root(data_root: str) -> None:
    """Rewrite a data root into the layout before batch records: an index
    log of package records only, and the logical bytes in counters.json."""
    index = os.path.join(data_root, "index.log")
    with open(index, "rb") as fh:
        log = fh.read()
    records = [log[off:off + INDEX_RECORD.size]
               for off in range(0, len(log), INDEX_RECORD.size)]
    batches = [r for r in records if r[:32] == bytes(32)]
    logical = sum(INDEX_RECORD.unpack(r)[3] for r in batches)
    with open(index, "wb") as fh:
        fh.write(b"".join(r for r in records if r not in batches))
        fh.write(b"\xee" * 20)  # a torn record, which the old open cut too
    with open(os.path.join(data_root, "counters.json"), "w") as fh:
        json.dump({"logical_bytes": logical}, fh)


def batch_records(data_root: str) -> list[int]:
    with open(os.path.join(data_root, "index.log"), "rb") as fh:
        log = fh.read()
    return [length for fp, _, _, length in INDEX_RECORD.iter_unpack(log)
            if fp == bytes(32)]


def test_a_new_log_is_marked_so_a_cut_first_batch_is_dropped(tmp_path):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    index = os.path.join(data_root, "index.log")
    svc = StorageService(data_root, key_root)
    assert batch_records(data_root) == [0]
    marked = os.path.getsize(index)
    cut = [item(os.urandom(1000)) for _ in range(2)]
    StoreSession(LocalBackend(svc)).put_packages(cut)
    svc.close()
    with open(index, "r+b") as fh:
        fh.truncate(os.path.getsize(index) - INDEX_RECORD.size)
    svc = StorageService(data_root, key_root)
    assert os.path.getsize(index) == marked
    assert (svc.stats().logical_bytes, svc.stats().index_entries) == (0, 0)
    assert container_bytes(data_root) == 0
    svc.close()


def make_old_objects(root: str, kind: str, obj_id: str) -> str:
    """An object of the blob layout before one record per blob: a directory
    holding a file per version and a CURRENT pointer."""
    obj_dir = os.path.join(root, "blobs", kind, obj_id.encode("utf-8").hex())
    os.makedirs(obj_dir)
    for name, data in (("0000000000.bin", b"version zero"),
                       ("0000000001.bin", b"version one!!"), ("CURRENT", b"1")):
        with open(os.path.join(obj_dir, name), "wb") as fh:
            fh.write(data)
    return obj_dir


@pytest.mark.parametrize("layout", ["index-log", "blob-objects", "key-root-objects"])
def test_an_old_root_is_refused_and_left_as_it_was(tmp_path, layout):
    data_root, key_root = str(tmp_path / "data"), str(tmp_path / "keys")
    if layout == "blob-objects":
        old = [make_old_objects(data_root, "stub", "f"),
               make_old_objects(key_root, "state", "f")]
        refusal = f"{old[0]} is a directory"
    else:
        svc = StorageService(data_root, key_root, container_size=8192)
        session = StoreSession(LocalBackend(svc))
        first = [item(os.urandom(3000)) for _ in range(3)]
        session.put_packages(first)
        session.put_packages(first + [item(os.urandom(2000))])
        session.put_stub("f", 0, b"a" * 100)
        session.put_state("f", 0, b"s" * 50)
        svc.close()
        # a put that was never acknowledged, which an open would remove
        with open(os.path.join(stub_kind(tmp_path), b"g".hex() + ".tmp"), "wb") as fh:
            fh.write(b"unacknowledged")
        if layout == "index-log":
            make_old_root(data_root)
            refusal = "index.log holds package records and no batch record"
        else:
            old = make_old_objects(key_root, "userkey", "alice")
            refusal = f"{old} is a directory"
    before = tree_digest(str(tmp_path))
    for _ in range(2):
        with pytest.raises(StorageUnavailable, match=refusal):
            StorageService(data_root, key_root, container_size=8192)
        assert tree_digest(str(tmp_path)) == before


def test_a_logical_count_beyond_a_record_length_survives_a_reopen(tmp_path):
    path = str(tmp_path / "index.log")
    index = FingerprintIndex(path)
    logical = 5 * 2**32 + 7
    fp = hashlib.sha256(b"package").digest()
    index.append([(fp, 0, 0, 100)], logical)
    index.close()
    index = FingerprintIndex(path)
    try:
        assert (index.logical_bytes, index.physical_bytes, len(index)) == (logical, 100, 1)
        assert index.get(fp) == (0, 0, 100)
    finally:
        index.close()
    assert batch_records(str(tmp_path)) == [0] + [2**32 - 1] * 5 + [12]


# -- TCP framing --------------------------------------------------------------------------


def test_wire_round_trip_over_tcp(tmp_path):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    server = FrameServer(svc).start()
    try:
        with Connection(*server.address) as conn:
            session = StoreSession(conn)
            items = [item(os.urandom(1000)) for _ in range(3)]
            session.put_packages(items)
            assert session.get_packages([fp for fp, _ in items]) == \
                [d for _, d in items]
            session.put_user_key("alice", b"pem bytes")
            assert session.get_user_key("alice") == b"pem bytes"
            stats = session.stats()
            assert stats.physical_bytes == 3000
            with pytest.raises(NotFound):
                session.get_recipe("missing")
    finally:
        server.stop()
        svc.close()


def test_stats_round_trip_over_ipv6_loopback(tmp_path):
    svc = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    server = FrameServer(svc, "::1", 0).start()
    try:
        host, port = server.address
        assert host == "::1"
        with Connection("::1", port) as conn:
            assert StoreSession(conn).stats().logical_bytes == 0
    finally:
        server.stop()
        svc.close()


@pytest.mark.parametrize("size", [0, 1, 8 << 20])
def test_frame_round_trip_over_socketpair(size):
    payload = random.Random(size).randbytes(size)
    a, b = socket.socketpair()
    with a, b:
        # with a timeout the socket is non-blocking underneath, so an 8 MiB
        # frame goes out and comes in over several partial calls
        a.settimeout(30)
        b.settimeout(30)
        writer = threading.Thread(target=wire.write_frame, args=(a, 0x42, payload))
        writer.start()
        got_type, got = wire.read_frame(b)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert got_type == 0x42 and got == payload


@pytest.mark.parametrize("sent", [b"\x00\x00", struct.pack(">IB", 100, 0x42) + bytes(40)])
def test_peer_closing_mid_frame_raises_connection_error(sent):
    a, b = socket.socketpair()
    with a, b:
        a.sendall(sent)
        a.close()
        with pytest.raises(ConnectionError):
            wire.read_frame(b)


def test_fingerprints_decoded_from_a_received_buffer_are_bytes():
    fps = [os.urandom(32) for _ in range(3)]
    got = wire.decode_fingerprint_list(bytearray(wire.encode_fingerprint_list(fps)))
    assert all(type(fp) is bytes for fp in got)
    assert set(got) == set(fps)


def test_fingerprint_list_shorter_than_its_count_is_rejected():
    payload = wire.encode_fingerprint_list([os.urandom(32) for _ in range(2)])
    with pytest.raises(InvalidOperand, match="truncated"):
        wire.decode_fingerprint_list(bytearray(payload[:-1]))


def test_package_lists_decode_as_views_of_the_frame():
    blobs = [os.urandom(n) for n in (0, 1, 700)]
    frame = bytearray(wire.encode_byte_list(blobs))
    got = wire.decode_byte_list(frame)
    assert all(type(view) is memoryview and view.readonly for view in got)
    assert [bytes(view) for view in got] == blobs
    frame[-1] ^= 0xFF  # a view, not a copy, sees the frame change
    assert got[-1][-1] == blobs[-1][-1] ^ 0xFF

    items = [(os.urandom(32), blob) for blob in blobs]
    frame = bytearray(wire.encode_package_items(items))
    got_items = wire.decode_package_items(frame)
    assert all(type(fp) is bytes and type(view) is memoryview for fp, view in got_items)
    assert [(fp, bytes(view)) for fp, view in got_items] == items
    frame[-1] ^= 0xFF
    assert got_items[-1][1][-1] == blobs[-1][-1] ^ 0xFF


@pytest.mark.parametrize("decode, encode", [
    (wire.decode_byte_list, wire.encode_byte_list),
    (wire.decode_package_items,
     lambda blobs: wire.encode_package_items([(bytes([i]) * 32, b) for i, b in enumerate(blobs)])),
], ids=["byte-list", "package-items"])
def test_package_lists_reject_every_truncation_and_trailing_bytes(decode, encode):
    payload = encode([b"", b"ab", os.urandom(40)])
    assert [bytes(x[-1] if isinstance(x, tuple) else x) for x in decode(payload)] == [
        b"", b"ab", payload[-40:]]
    for cut in range(len(payload)):
        with pytest.raises(InvalidOperand, match="truncated"):
            decode(bytearray(payload[:cut]))
    with pytest.raises(InvalidOperand, match="trailing"):
        decode(payload + b"\x00")
    with pytest.raises(InvalidOperand, match="truncated"):
        decode(b"\xff\xff\xff\xff")  # a count with no items behind it


def test_unknown_message_type_is_rejected(service):
    backend = LocalBackend(service)
    msg_type, payload = backend.request(0x55, b"")
    with pytest.raises(InvalidOperand):
        wire.raise_for_frame(msg_type, payload)


def test_malformed_payload_is_rejected(service):
    backend = LocalBackend(service)
    msg_type, payload = backend.request(wire.MSG_GET_PACKAGES, b"\xff\xff")
    assert msg_type == wire.MSG_ERROR


def test_error_frame_codec():
    payload = wire.encode_error(wire.ERR_NOT_FOUND, "missing thing")
    with pytest.raises(NotFound, match="missing thing"):
        wire.raise_for_frame(wire.MSG_ERROR, payload)
