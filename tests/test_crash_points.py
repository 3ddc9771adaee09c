"""Every acknowledged write survives a cut at any durable step.

A scripted run is cut at its k-th durable step, for every k, under each
model of conftest.CrashPoints. The reopened service must still hold every
acknowledged package, blob and file, with counters that agree with its
index and its containers.
"""

import hashlib
import os
import random
import shutil

import pytest

from conftest import Crash, CrashPoints, Ledger, abandon, durability_problems
from reed.chunking import ChunkingParams
from reed.client import StoreSession, download, register_identity, rekey_file, upload
from reed.keygen import KeyManagerService, KeySession
from reed.rekeying import ACTIVE
from reed.server import StorageService
from reed.wire import LocalBackend

CONTAINER = 8192
CHUNKS = ChunkingParams(min_size=1024, avg_size=2048, max_size=4096)


def item(data: bytes) -> tuple[bytes, bytes]:
    return hashlib.sha256(data).digest(), data


def scripted_run(session, keys, identities, files, done) -> None:
    """Package batches that cross rotations, a batch of duplicates only, two
    uploads of one content (the second sends only duplicates) and an active
    rekey; each file is added to done once its upload returns."""
    alice, bob = identities["alice"], identities["bob"]
    register_identity(session, alice)
    register_identity(session, bob)
    rng = random.Random(7)
    first = [item(rng.randbytes(3000)) for _ in range(3)]
    second = [item(rng.randbytes(3000)) for _ in range(3)]
    session.put_packages(first)
    session.put_packages(second + first[:1])
    session.put_packages(first + second)
    for path, policy in zip(files, (["alice", "bob"], ["alice"])):
        file_id = upload(path, policy=policy, identity=alice, store=session, keys=keys,
                         chunk_params=CHUNKS)
        done.append((file_id, path))
    rekey_file(done[0][0], new_policy=["alice"], mode=ACTIVE, identity=alice,
               store=session)


@pytest.fixture(scope="module")
def script(tmp_path_factory, manager_keypair, identities):
    """Runs the script on a fresh root under a CrashPoints, and checks the
    root reopened after the cut."""
    work = tmp_path_factory.mktemp("crash-points")
    content = random.Random(11).randbytes(24 * 1024)
    files = [str(work / name) for name in ("a.bin", "b.bin")]
    for path in files:
        with open(path, "wb") as fh:
            fh.write(content)
    keys = KeySession(LocalBackend(KeyManagerService(manager_keypair)))

    def run(cut: int | None, lose_unsynced: bool) -> tuple[CrashPoints, list[str]]:
        base = str(work / "root")
        shutil.rmtree(base, ignore_errors=True)
        os.mkdir(base)
        data_root, key_root = os.path.join(base, "data"), os.path.join(base, "keys")
        service = StorageService(data_root, key_root, container_size=CONTAINER)
        ledger = Ledger()
        ledger.watch(service)
        done: list = []
        points = CrashPoints(base, cut, lose_unsynced)
        try:
            with points.armed():
                scripted_run(StoreSession(LocalBackend(service)), keys, identities,
                             files, done)
        except Crash:
            abandon(service)
        else:
            service.close()
        points.settle()
        reopened = StorageService(data_root, key_root, container_size=CONTAINER)
        try:
            problems = durability_problems(reopened, ledger, lose_unsynced)
            ledger.watch(reopened)
            session = StoreSession(LocalBackend(reopened))
            for file_id, path in done:
                try:
                    if download(file_id, identity=identities["alice"],
                                store=session) != content:
                        problems.append(f"{os.path.basename(path)} reads back wrong")
                except Exception as exc:
                    problems.append(f"{os.path.basename(path)} does not read back: {exc!r}")
            fresh = item(os.urandom(5000))
            session.put_packages([fresh])
            if session.get_packages([fresh[0]]) != [fresh[1]]:
                problems.append("a batch after the reopen reads back wrong")
            problems += durability_problems(reopened, ledger, lose_unsynced)
        finally:
            reopened.close()
        return points, problems

    return run


@pytest.mark.parametrize("lose_unsynced", [False, True],
                         ids=["process-death", "lost-unsynced-data"])
def test_every_cut_point_keeps_acknowledged_writes(script, lose_unsynced):
    points, problems = script(None, lose_unsynced)
    assert problems == []
    steps = points.steps
    assert {"os.fsync", "os.replace", "container append", "index append"} <= set(steps)
    failures = []
    for k in range(1, len(steps) + 1):
        points, problems = script(k, lose_unsynced)
        assert len(points.steps) == k
        failures += [f"k={k} ({steps[k - 1]}): {p}" for p in problems]
    assert failures == []
