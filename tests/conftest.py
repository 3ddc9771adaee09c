import contextlib
import glob
import hashlib
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import strategies as st

from reed.client import (ClientIdentity, Connection, StoreSession,
                         register_identity)
from reed.errors import NotFound
from reed.keygen import KeyManagerService, KeySession, ManagerKeyPair
from reed.server import ContainerStore, FingerprintIndex, FrameServer, StorageService


@pytest.fixture(scope="session", autouse=True)
def no_leaked_trace_dirs():
    """Fail the run if it leaves a new reed-trace-* directory in the temp dir."""
    def trace_dirs():
        return set(glob.glob(os.path.join(tempfile.gettempdir(), "reed-trace-*")))

    before = trace_dirs()
    yield
    leaked = sorted(trace_dirs() - before)
    assert not leaked, f"the run left trace work directories behind: {leaked}"


def private_operands(keys):
    """Values to raise to d: any residue, plus 1, n-1 and multiples of p or q,
    where one CRT half is zero."""
    n, p, q = keys.n, keys.p, keys.q
    return st.one_of(st.integers(1, n - 1), st.sampled_from([1, n - 1]),
                     st.integers(1, q - 1).map(lambda k: k * p),
                     st.integers(1, p - 1).map(lambda k: k * q))


def assert_one_stub_record(data_root: str, store, file_id: str) -> None:
    """The server keeps one stub file for file_id, and stub_bytes counts it
    alone, so no older stub file is left for an old file key to open."""
    kind_dir = os.path.join(data_root, "blobs", "stub")
    name = file_id.encode("utf-8").hex()
    assert [n for n in os.listdir(kind_dir) if n.split(".")[0] == name] == [name]
    assert os.path.isfile(os.path.join(kind_dir, name))
    assert store.stats().stub_bytes == len(store.get_stub(file_id)[1])


def tree_digest(root: str) -> str:
    """Every directory and file under root, with each file's bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        h.update(b"d" + os.path.relpath(dirpath, root).encode() + b"\0")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                h.update(b"f" + os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return h.hexdigest()


@pytest.fixture
def umask_022():
    """The common default umask, under which a plain open() makes files
    readable by everyone."""
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.fixture(scope="session")
def manager_keypair():
    return ManagerKeyPair.generate()


@pytest.fixture(scope="session")
def identities():
    # RSA access keys are the slow part; share one set across the session.
    return {name: ClientIdentity.create(name) for name in ("alice", "bob", "carol")}


class Cluster:
    """One storage server plus one key manager, with session helpers."""

    def __init__(self, root: str, manager_keypair: ManagerKeyPair, **manager_kwargs):
        self.root = root
        self.data_root = os.path.join(root, "data")
        self.key_root = os.path.join(root, "keys")
        self.service = StorageService(self.data_root, self.key_root)
        self.store_server = FrameServer(self.service).start()
        self.manager_service = KeyManagerService(manager_keypair, **manager_kwargs)
        self.manager_server = FrameServer(self.manager_service).start()
        self._connections = []

    def _connect(self, server: FrameServer) -> Connection:
        conn = Connection(*server.address)
        self._connections.append(conn)
        return conn

    def store_session(self) -> StoreSession:
        return StoreSession(self._connect(self.store_server))

    def key_session(self) -> KeySession:
        return KeySession(self._connect(self.manager_server))

    def register(self, *identities: ClientIdentity) -> None:
        session = self.store_session()
        for identity in identities:
            register_identity(session, identity)

    def restart_storage(self) -> None:
        """Simulate a server crash/restart over the same on-disk state."""
        self.store_server.stop()
        self.service.close()
        self.service = StorageService(self.data_root, self.key_root)
        self.store_server = FrameServer(self.service).start()

    def stop(self) -> None:
        for conn in self._connections:
            conn.close()
        self.store_server.stop()
        self.manager_server.stop()
        self.service.close()


@pytest.fixture
def cluster(tmp_path, manager_keypair):
    c = Cluster(str(tmp_path), manager_keypair)
    yield c
    c.stop()


# -- crash points ------------------------------------------------------------------


class Crash(BaseException):
    """The cut. No ``except Exception`` in the program catches it, as none
    catches a process death."""


class CrashPoints:
    """Cuts a run at its k-th durable step (1-based), or counts the steps of
    a run with no cut.

    The durable steps are each os.fsync, each os.replace, each container
    append and each index append; the cut one raises Crash instead of
    running. Two models say what survives the cut:

    - process death (lose_unsynced False): everything written so far;
    - lost unsynced data (lose_unsynced True): each file as it was at its
      last fsync, and each directory's entries as they were at its last
      fsync. So the index log and the containers are cut back to their last
      fsynced length, and a file created or renamed since its directory's
      last fsync is dropped or renamed back. A file never fsynced is empty,
      a directory never fsynced is empty, and what base holds when the run
      is armed counts as fsynced.

    Files are tracked by inode, which a file made after another is removed
    may reuse; the scripted runs here remove no file whose old version a
    directory could still name.
    """

    def __init__(self, base: str, cut: int | None = None, lose_unsynced: bool = False):
        self.base, self.cut, self.lose_unsynced = base, cut, lose_unsynced
        self.steps: list[str] = []
        self._files: dict[int, bytes] = {}  # inode -> content at its last fsync
        self._dirs: dict[int, dict[str, tuple[int, bool]]] = {}  # inode -> entries

    def _step(self, name: str) -> None:
        self.steps.append(name)
        if len(self.steps) == self.cut:
            raise Crash(f"cut at step {self.cut}: {name}")

    def _synced(self, path: str) -> None:
        if os.path.isdir(path):
            with os.scandir(path) as entries:
                self._dirs[os.stat(path).st_ino] = {
                    e.name: (e.inode(), e.is_dir(follow_symlinks=False)) for e in entries}
        else:
            with open(path, "rb") as fh:
                self._files[os.fstat(fh.fileno()).st_ino] = fh.read()

    @contextlib.contextmanager
    def armed(self):
        for dirpath, _, filenames in os.walk(self.base):
            self._synced(dirpath)
            for name in filenames:
                self._synced(os.path.join(dirpath, name))
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            self._step("os.fsync")
            real_fsync(fd)
            self._synced(os.readlink(f"/proc/self/fd/{fd}"))

        def replace(src, dst):
            self._step("os.replace")
            real_replace(src, dst)

        def step_before(name, method):
            def stepped(*args, **kwargs):
                self._step(name)
                return method(*args, **kwargs)
            return stepped

        with mock.patch.object(os, "fsync", fsync), \
                mock.patch.object(os, "replace", replace), \
                mock.patch.object(ContainerStore, "append",
                                  step_before("container append", ContainerStore.append)), \
                mock.patch.object(FingerprintIndex, "append",
                                  step_before("index append", FingerprintIndex.append)):
            yield self

    def settle(self) -> None:
        """Leave base holding what the model keeps after the cut."""
        if self.lose_unsynced:
            root = os.stat(self.base).st_ino
            shutil.rmtree(self.base)
            self._rebuild(self.base, root)

    def _rebuild(self, path: str, inode: int) -> None:
        os.mkdir(path)
        for name, (child, is_dir) in self._dirs.get(inode, {}).items():
            if is_dir:
                self._rebuild(os.path.join(path, name), child)
            else:
                with open(os.path.join(path, name), "wb") as fh:
                    fh.write(self._files.get(child, b""))


def abandon(service: StorageService) -> None:
    """Drop a service as a process death would: what it wrote reaches its
    files, and nothing more is fsynced."""
    for fh in (service.index._fh, service.containers._fh):
        if fh is not None:
            fh.close()


class Ledger:
    """The package batches and blob puts a service was asked for, in order,
    each marked once it is acknowledged. After a cut only the last one can
    be unacknowledged: it was in flight."""

    def __init__(self):
        self.batches: list[list] = []  # [items as bytes, acknowledged]
        self.puts: list[list] = []  # [(kind, id), version, blob, acknowledged]

    def watch(self, service: StorageService) -> None:
        store_packages = service.store_packages

        def record_batch(items):
            entry = [[(bytes(fp), bytes(data)) for fp, data in items], False]
            self.batches.append(entry)
            result = store_packages(items)
            entry[1] = True
            return result

        service.store_packages = record_batch
        for blobs in (service.data_blobs, service.key_blobs):
            blobs.put = self._recording_put(blobs.put)

    def _recording_put(self, put):
        def record_put(kind, obj_id, version, blob, expected_prev=None):
            entry = [(kind, obj_id), version, bytes(blob), False]
            self.puts.append(entry)
            put(kind, obj_id, version, blob, expected_prev)
            entry[3] = True
        return record_put


def durability_problems(service: StorageService, ledger: Ledger,
                        lose_unsynced: bool) -> list[str]:
    """What a service reopened after a cut got wrong about the run in
    ledger; empty if every acknowledged write survived whole."""
    problems = []
    acked = [items for items, ok in ledger.batches if ok]
    inflight = next((items for items, ok in ledger.batches if not ok), None)
    last_put = ledger.puts[-1] if ledger.puts else None
    stored = {fp: data for items in acked for fp, data in items}
    try:
        fps = list(stored)
        if [bytes(p) for p in service.get_packages(fps)] != [stored[fp] for fp in fps]:
            problems.append("an acknowledged package reads back wrong")
    except Exception as exc:
        problems.append(f"acknowledged packages do not read back: {exc!r}")

    stats = service.stats()
    indexed = sum(length for _, (_, _, length) in service.index.entries())
    croot = os.path.join(service.data_root, "containers")
    on_disk = sum(os.path.getsize(os.path.join(croot, n)) for n in os.listdir(croot))
    if not stats.physical_bytes == indexed == on_disk:
        problems.append(f"physical_bytes {stats.physical_bytes}, index lengths {indexed}, "
                        f"container bytes {on_disk}")

    logical = sum(len(data) for items in acked for _, data in items)
    allowed = {logical}
    if inflight is not None:
        new = {fp for fp, _ in inflight} - set(stored)
        present = {fp in service.index for fp in new}
        if len(present) > 1:
            problems.append("the batch in flight is partly indexed")
        # a batch that did land counts whole; under process death a batch of
        # duplicates may have landed without leaving a trace in the index
        landed = logical + sum(len(data) for _, data in inflight)
        if present == {True}:
            allowed = {landed}
        elif not new and not lose_unsynced:
            allowed.add(landed)
    if stats.logical_bytes not in allowed:
        problems.append(f"logical_bytes {stats.logical_bytes}, expected one of "
                        f"{sorted(allowed)}")

    current: dict[tuple[str, str], tuple[int, bytes]] = {}
    for key, version, blob, ok in ledger.puts:
        if ok and (key not in current or version >= current[key][0]):
            current[key] = (version, blob)
    stub_bytes = 0
    for key in {key for key, *_ in ledger.puts}:
        kind, obj_id = key
        allowed_blobs = {current.get(key)}
        if not last_put[3] and last_put[0] == key and (
                key not in current or last_put[1] >= current[key][0]):
            allowed_blobs.add((last_put[1], last_put[2]))
        store = service.key_blobs if kind in ("state", "userkey") else service.data_blobs
        try:
            got = store.get(kind, obj_id)
        except NotFound:
            got = None
        if got not in allowed_blobs:
            problems.append(f"{kind}/{obj_id} holds version "
                            f"{None if got is None else got[0]}, expected one of "
                            f"{sorted(v for v, _ in filter(None, allowed_blobs))}")
        if kind == "stub" and got is not None:
            stub_bytes += len(got[1])
    if stats.stub_bytes != stub_bytes:
        problems.append(f"stub_bytes {stats.stub_bytes}, stub records {stub_bytes}")
    return problems
