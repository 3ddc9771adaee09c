import glob
import os
import tempfile

import pytest
from hypothesis import strategies as st

from reed.client import (ClientIdentity, Connection, StoreSession,
                         register_identity)
from reed.keygen import KeyManagerService, KeySession, ManagerKeyPair
from reed.server import FrameServer, StorageService


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
