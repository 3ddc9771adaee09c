import contextlib
import gc
import hashlib
import inspect
import json
import os
import random
import sys
import warnings

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from cryptography.hazmat.primitives.ciphers import Cipher

from conftest import assert_one_stub_record, tree_digest
from reed import caont, cli, wire
from reed.chunking import ChunkingParams, SegmentationParams
from reed.client import (ClientIdentity, Connection, Recipe, StoreSession, download,
                         file_id_for, register_identity, rekey_file, upload)
from reed.config import Config, parse_address, parse_size
from reed.errors import (AccessDenied, AuthenticationFailure, IntegrityViolation,
                         NotFound, NotOwner, PolicyEmpty, SchemeNotAllowed, UnknownUser,
                         VersionConflict)
from reed.keygen import KeyManagerService, KeySession, ManagerKeyPair
from reed.rekeying import (DerivationKeyPair, derive_file_key, generate_access_keypair,
                           unwrap_state)
from reed.server import StorageService

FIXED_8K = ChunkingParams(mode="fixed", avg_size=8192)


def write_file(tmp_path, name: str, data: bytes) -> str:
    path = os.path.join(str(tmp_path), name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@pytest.fixture
def ready(cluster, identities):
    cluster.register(*identities.values())
    return cluster


@pytest.mark.parametrize("size", [0, 1, 100, 8192, 1 << 20])
def test_upload_download_identity(ready, identities, tmp_path, size):
    rng = random.Random(size)
    data = rng.randbytes(size)
    path = write_file(tmp_path, "f.bin", data)
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=ready.store_session(), keys=ready.key_session())
    got = download(fid, identity=identities["alice"], store=ready.store_session())
    assert got == data


@pytest.mark.parametrize("scheme, keying", [(caont.SCHEME_ENHANCED, "similarity"),
                                             (caont.SCHEME_BASIC, "chunk")],
                         ids=["enhanced-similarity", "basic-chunk"])
def test_round_trip_builds_no_cipher_object(ready, identities, tmp_path, monkeypatch,
                                            scheme, keying):
    # Every keystream runs on the thread's re-keyed libcrypto context; a
    # cryptography Cipher per chunk would fail here.
    def refuse(*args, **kwargs):
        raise AssertionError("a Cipher object was built on the CAONT path")

    data = random.Random(scheme).randbytes(3 << 20)
    path = write_file(tmp_path, "f.bin", data)
    store, keys = ready.store_session(), ready.key_session()
    monkeypatch.setattr(Cipher, "__init__", refuse)
    fid = upload(path, policy=["alice"], identity=identities["alice"], store=store,
                 keys=keys, scheme=scheme, keying=keying)
    assert download(fid, identity=identities["alice"], store=store) == data
    # and neither kind of rekey builds one to unwrap, wind or re-wrap the state
    for version, mode in enumerate(("lazy", "active"), start=1):
        assert rekey_file(fid, new_policy=["alice", "bob"], mode=mode,
                          identity=identities["alice"], store=store) == version
    assert download(fid, identity=identities["bob"], store=store) == data


def test_fixed_mode_round_trip(ready, identities, tmp_path):
    data = random.Random(1).randbytes(100_000)
    path = write_file(tmp_path, "f.bin", data)
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=ready.store_session(), keys=ready.key_session(),
                 chunk_params=FIXED_8K)
    assert download(fid, identity=identities["alice"],
                    store=ready.store_session()) == data


def test_basic_scheme_with_per_chunk_keying(ready, identities, tmp_path):
    data = random.Random(2).randbytes(50_000)
    path = write_file(tmp_path, "f.bin", data)
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=ready.store_session(), keys=ready.key_session(),
                 scheme=caont.SCHEME_BASIC, keying="chunk")
    assert download(fid, identity=identities["alice"],
                    store=ready.store_session()) == data


def test_basic_scheme_refused_under_segment_keying(ready, identities, tmp_path):
    path = write_file(tmp_path, "f.bin", b"data")
    with pytest.raises(SchemeNotAllowed):
        upload(path, policy=["alice"], identity=identities["alice"],
               store=ready.store_session(), keys=ready.key_session(),
               scheme=caont.SCHEME_BASIC)


@pytest.mark.parametrize("scheme, keying", [(caont.SCHEME_BASIC, "Similarity"),
                                             (caont.SCHEME_ENHANCED, "foo"),
                                             (caont.SCHEME_BASIC, "foo")])
def test_unknown_keying_refused_before_any_package(ready, identities, tmp_path,
                                                   scheme, keying):
    path = write_file(tmp_path, "f.bin", random.Random(14).randbytes(100_000))
    with pytest.raises(ValueError, match="^keying must be one of chunk, similarity"):
        upload(path, policy=["alice"], identity=identities["alice"],
               store=ready.store_session(), keys=ready.key_session(),
               scheme=scheme, keying=keying)
    assert ready.service.stats().logical_bytes == 0  # refused before any package


def test_unknown_scheme_refused_even_for_an_empty_file(ready, identities, tmp_path):
    # an empty file transforms no chunk, so only the up-front check refuses it
    path = write_file(tmp_path, "f.bin", b"")
    store = ready.store_session()
    with pytest.raises(ValueError, match="^unknown scheme id 7$"):
        upload(path, policy=["alice"], identity=identities["alice"], store=store,
               keys=ready.key_session(), scheme=7)
    with pytest.raises(NotFound):
        store.get_recipe(file_id_for("alice", path))


def test_empty_policy_rejected(ready, identities, tmp_path):
    path = write_file(tmp_path, "f.bin", b"data")
    with pytest.raises(PolicyEmpty):
        upload(path, policy=[], identity=identities["alice"],
               store=ready.store_session(), keys=ready.key_session())
    assert ready.service.stats().logical_bytes == 0  # refused before any package


def test_unregistered_policy_member_rejected(ready, identities, tmp_path):
    path = write_file(tmp_path, "f.bin", b"data")
    with pytest.raises(UnknownUser):
        upload(path, policy=["alice", "mallory"], identity=identities["alice"],
               store=ready.store_session(), keys=ready.key_session())
    assert ready.service.stats().logical_bytes == 0  # refused before any package


@pytest.mark.parametrize("policy", [["alice", ""], [""]])
def test_an_empty_policy_member_is_refused(ready, identities, tmp_path, policy):
    path = write_file(tmp_path, "f.bin", b"data")
    with pytest.raises(UnknownUser, match="^the policy names an empty user id$"):
        upload(path, policy=policy, identity=identities["alice"],
               store=ready.store_session(), keys=ready.key_session())
    assert ready.service.stats().logical_bytes == 0  # refused before any package


@pytest.mark.parametrize("user_id", ["", "u" * 126, "\u00e9" * 63],
                         ids=["empty", "126-bytes", "126-utf8-bytes"])
def test_no_identity_is_made_for_an_id_the_server_cannot_name(monkeypatch, user_id):
    monkeypatch.setattr(DerivationKeyPair, "generate", lambda: pytest.fail("made keys"))
    with pytest.raises(ValueError, match=rf"^user id {user_id!r} must be 1 to 125 "
                                         r"UTF-8 bytes$"):
        ClientIdentity.create(user_id)


def test_an_identity_is_made_for_an_id_of_125_bytes():
    assert ClientIdentity.create("u" * 125).user_id == "u" * 125


def test_duplicate_content_adds_no_container_bytes(ready, identities, tmp_path):
    data = random.Random(3).randbytes(1 << 20)
    store = ready.store_session()
    keys = ready.key_session()
    p1 = write_file(tmp_path, "one.bin", data)
    p2 = write_file(tmp_path, "two.bin", data)
    upload(p1, policy=["alice"], identity=identities["alice"], store=store, keys=keys)
    phys = store.stats().physical_bytes
    fid2 = upload(p2, policy=["alice"], identity=identities["alice"],
                  store=store, keys=keys)
    stats = store.stats()
    assert stats.physical_bytes == phys
    assert stats.logical_bytes == 2 * len(data)
    assert download(fid2, identity=identities["alice"], store=store) == data


def test_cross_client_dedup(ready, identities, tmp_path):
    data = random.Random(4).randbytes(1 << 19)
    store = ready.store_session()
    pa = write_file(tmp_path, "alice.bin", data)
    pb = write_file(tmp_path, "bob.bin", data)
    upload(pa, policy=["alice"], identity=identities["alice"],
           store=store, keys=ready.key_session())
    phys = store.stats().physical_bytes
    fid_b = upload(pb, policy=["bob"], identity=identities["bob"],
                   store=ready.store_session(), keys=ready.key_session())
    assert store.stats().physical_bytes == phys  # same manager key, same packages
    assert download(fid_b, identity=identities["bob"],
                    store=ready.store_session()) == data


def test_revoked_user_cannot_download(ready, identities, tmp_path):
    data = b"shared secret data" * 100
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    assert download(fid, identity=identities["bob"], store=store) == data
    rekey_file(fid, new_policy=["alice"], mode="lazy",
               identity=identities["alice"], store=store)
    with pytest.raises(AccessDenied):
        download(fid, identity=identities["bob"], store=store)
    assert download(fid, identity=identities["alice"], store=store) == data


def test_lazy_rekey_defers_stub_reencryption(ready, identities, tmp_path):
    data = random.Random(5).randbytes(200_000)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    stub_before = store.get_stub(fid)
    version = rekey_file(fid, new_policy=["alice"], mode="lazy",
                         identity=identities["alice"], store=store)
    assert version == 1
    assert store.get_stub(fid) == stub_before
    # reading through the new state unwinds once to the stub's version
    assert download(fid, identity=identities["alice"], store=store) == data


def test_active_rekey_moves_only_stub_bytes(ready, identities, tmp_path):
    data = random.Random(6).randbytes(1 << 20)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    _, wrapped = store.get_state(fid)
    old_state = unwrap_state(wrapped, identities["alice"].access_key, "alice")
    old_file_key = derive_file_key(old_state)
    containers = os.path.join(ready.data_root, "containers")
    before = tree_digest(containers)
    _, old_stub_blob = store.get_stub(fid)

    rekey_file(fid, new_policy=["alice"], mode="active",
               identity=identities["alice"], store=store)

    assert tree_digest(containers) == before  # zero container bytes touched
    new_version, new_stub_blob = store.get_stub(fid)
    assert new_version == 1
    assert new_stub_blob != old_stub_blob
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(new_stub_blob, old_file_key)
    new_state = unwrap_state(store.get_state(fid)[1], identities["alice"].access_key, "alice")
    assert (caont.decrypt_stub_file(new_stub_blob, derive_file_key(new_state))
            == caont.decrypt_stub_file(old_stub_blob, old_file_key))  # same stubs
    assert download(fid, identity=identities["alice"], store=store) == data


def test_member_revoked_by_active_rekey_cannot_read_old_stubs(ready, identities,
                                                              tmp_path):
    data = random.Random(9).randbytes(300_000)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    _, wrapped = store.get_state(fid)
    bob_key = derive_file_key(unwrap_state(wrapped, identities["bob"].access_key, "bob"))
    rekey_file(fid, new_policy=["alice"], mode="active",
               identity=identities["alice"], store=store)
    assert_one_stub_record(ready.data_root, store, fid)  # bob's stub file is gone
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(store.get_stub(fid)[1], bob_key)
    assert download(fid, identity=identities["alice"], store=store) == data


def test_download_after_an_active_rekey_of_thousands_of_chunks(ready, identities,
                                                                tmp_path):
    """Each chunk pairs with its own stub of the rekeyed stub file, across
    transfer batches: 2,561 chunks of 2 KiB, the last one short."""
    data = random.Random(11).randbytes(5 * (1 << 20) + 100)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session(),
                 chunk_params=ChunkingParams(mode="fixed", avg_size=2048))
    assert Recipe.decode(store.get_recipe(fid)).chunk_count == 2561
    rekey_file(fid, new_policy=["alice"], mode="active",
               identity=identities["alice"], store=store)
    version, blob = store.get_stub(fid)
    assert version == 1
    assert len(blob) == 2561 * caont.STUB_SIZE + caont.STUB_FILE_OVERHEAD
    assert download(fid, identity=identities["alice"], store=store) == data


@pytest.mark.parametrize("change", [-1, 1], ids=["one-stub-short", "one-stub-over"])
def test_a_stub_file_that_does_not_match_the_recipe_aborts_download(
        ready, identities, tmp_path, change):
    data = random.Random(12).randbytes(100_000)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    file_key = derive_file_key(unwrap_state(store.get_state(fid)[1],
                                            identities["alice"].access_key, "alice"))
    plain = caont.decrypt_stub_file(store.get_stub(fid)[1], file_key)
    plain = plain[:-caont.STUB_SIZE] if change < 0 else plain + bytes(caont.STUB_SIZE)
    store.put_stub(fid, 0, caont.encrypt_stub_file(plain, file_key))
    with pytest.raises(IntegrityViolation, match="stub count"):
        download(fid, identity=identities["alice"], store=store)


class RekeyAfterRead:
    """A reader's store: an active rekey lands right after one named read."""

    def __init__(self, store, read, rekey):
        self._store = store
        self._read = read
        self.rekey = rekey

    def __getattr__(self, name):
        call = getattr(self._store, name)
        if name != self._read:
            return call

        def read_then_rekey(*args):
            got = call(*args)
            if self.rekey:
                self.rekey, rekey = None, self.rekey
                rekey()
            return got
        return read_then_rekey


@pytest.mark.parametrize("read", ["get_recipe", "get_stub", "get_state"])
def test_download_survives_a_racing_active_rekey(ready, identities, tmp_path, read):
    data = random.Random(10).randbytes(150_000)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    for _ in range(2):
        rekey_file(fid, new_policy=["alice", "bob"], mode="lazy",
                   identity=identities["alice"], store=store)
    reader = RekeyAfterRead(
        ready.store_session(), read,
        lambda: rekey_file(fid, new_policy=["alice", "bob"], mode="active",
                           identity=identities["alice"], store=store))
    assert download(fid, identity=identities["bob"], store=reader) == data
    assert reader.rekey is None
    assert store.get_stub(fid)[0] == 3
    assert_one_stub_record(ready.data_root, store, fid)


def test_stub_bytes_count_only_current_stub_files(ready, identities, tmp_path):
    store = ready.store_session()
    fids = []
    for i in range(2):
        path = write_file(tmp_path, f"f{i}.bin", random.Random(20 + i).randbytes(120_000))
        fids.append(upload(path, policy=["alice"], identity=identities["alice"],
                           store=store, keys=ready.key_session()))
    for i in range(6):
        rekey_file(fids[i % 2], new_policy=["alice"], mode="lazy" if i % 3 else "active",
                   identity=identities["alice"], store=store)

    def current_stub_bytes(session):
        return sum(len(session.get_stub(fid)[1]) for fid in fids)

    assert store.stats().stub_bytes == current_stub_bytes(store)
    ready.restart_storage()
    store = ready.store_session()
    assert store.stats().stub_bytes == current_stub_bytes(store)


def test_rekey_by_non_owner_fails(ready, identities, tmp_path):
    path = write_file(tmp_path, "f.bin", b"owner only")
    store = ready.store_session()
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    with pytest.raises(NotOwner):
        rekey_file(fid, new_policy=["bob"], mode="lazy",
                   identity=identities["bob"], store=store)


def test_corrupted_package_aborts_download(ready, identities, tmp_path):
    data = random.Random(7).randbytes(300_000)
    path = write_file(tmp_path, "f.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice"], identity=identities["alice"],
                 store=store, keys=ready.key_session())
    containers = os.path.join(ready.data_root, "containers")
    target = os.path.join(containers, sorted(os.listdir(containers))[0])
    with open(target, "r+b") as fh:
        fh.seek(5000)
        byte = fh.read(1)
        fh.seek(5000)
        fh.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(IntegrityViolation):
        download(fid, identity=identities["alice"], store=store)


def test_uploads_to_fresh_stores_are_byte_identical(tmp_path, manager_keypair,
                                                     identities):
    from conftest import Cluster
    data = random.Random(8).randbytes(1 << 20)
    path = write_file(tmp_path, "same.bin", data)
    digests = []
    for run in range(2):
        c = Cluster(str(tmp_path / f"run{run}"), manager_keypair)
        try:
            c.register(identities["alice"])
            upload(path, policy=["alice"], identity=identities["alice"],
                   store=c.store_session(), keys=c.key_session())
            digests.append(tree_digest(os.path.join(c.data_root, "containers")))
        finally:
            c.stop()
    assert digests[0] == digests[1]


def rsa_pem(private: bool) -> bytes:
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    if private:
        return key.private_bytes(serialization.Encoding.PEM,
                                 serialization.PrivateFormat.PKCS8,
                                 serialization.NoEncryption())
    return key.public_key().public_bytes(serialization.Encoding.PEM,
                                         serialization.PublicFormat.SubjectPublicKeyInfo)


def test_cli_refuses_an_rsa_access_key_naming_its_file(ready, tmp_path, capsys):
    # access_key.pem held an RSA-2048 key before access keys were X25519
    cfg = make_config(tmp_path, ready, "rsauser")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "rsauser"]) == 0
    identity_dir = os.path.join(str(tmp_path), "rsauser-identity")
    key_path = os.path.join(identity_dir, "access_key.pem")
    with open(key_path, "wb") as fh:
        fh.write(rsa_pem(private=True))
    before = tree_digest(identity_dir)
    message = f"{key_path} holds no X25519 private key: it predates X25519 access keys"
    with pytest.raises(ValueError, match=f"^{message}"):
        ClientIdentity.load(identity_dir)
    capsys.readouterr()
    out_path = os.path.join(str(tmp_path), "r.bin")
    assert cli.main(["--config", cfg, "download", "ab" * 32, "-o", out_path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert tree_digest(identity_dir) == before
    assert not os.path.exists(out_path)


@pytest.mark.parametrize("record", ["rsa", "low-order"])
def test_upload_to_a_member_that_cannot_be_wrapped_to_sends_no_package(
        ready, identities, tmp_path, monkeypatch, record):
    if record == "rsa":  # a user key registered before access keys were X25519
        pem, fault = rsa_pem(private=False), "not an X25519 public key"
    else:  # a point of low order, with which every exchange fails
        pem = X25519PublicKey.from_public_bytes(bytes(32)).public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo)
        fault = "exchange with it fails"
    store = ready.store_session()
    store.put_user_key("mallory", pem)
    sent = []
    monkeypatch.setattr(StoreSession, "put_packages", lambda self, items: sent.append(items))
    path = write_file(tmp_path, "f.bin", random.Random(15).randbytes(100_000))
    with pytest.raises(UnknownUser, match=f"'mallory'.*{fault}"):
        upload(path, policy=["alice", "mallory"], identity=identities["alice"],
               store=store, keys=ready.key_session())
    assert sent == []
    with pytest.raises(NotFound):
        store.get_recipe(file_id_for("alice", path))


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_a_registered_user_key_is_never_replaced(ready, identities, tmp_path, transport):
    store = (StoreSession(wire.LocalBackend(ready.service)) if transport == "local"
             else ready.store_session())
    bob = identities["bob"]
    impostor = ClientIdentity("bob", generate_access_keypair(), bob.derivation)
    register_identity(store, bob)  # the same bytes again are acknowledged
    with pytest.raises(VersionConflict, match="^user 'bob' already has a different key"):
        register_identity(store, impostor)
    assert store.get_user_key("bob") == bob.public_record()
    data = random.Random(17).randbytes(30_000)
    path = write_file(tmp_path, "f.bin", data)
    fid = upload(path, policy=["alice", "bob"], identity=identities["alice"], store=store,
                 keys=ready.key_session())
    assert download(fid, identity=bob, store=store) == data
    with pytest.raises(AccessDenied):
        download(fid, identity=impostor, store=store)


def test_an_uploaded_recipe_holds_neither_its_path_nor_its_file_id(ready, identities,
                                                                   tmp_path):
    data = random.Random(18).randbytes(100_000)
    path = write_file(tmp_path, "private-name.bin", data)
    store = ready.store_session()
    fid = upload(path, policy=["alice"], identity=identities["alice"], store=store,
                 keys=ready.key_session(), chunk_params=FIXED_8K)
    blob = store.get_recipe(fid)
    recipe = Recipe.decode(blob)
    assert (recipe.chunk_count, recipe.size) == (13, len(data))
    assert len(blob) == 14 + 40 * 13
    for leak in (path.encode(), b"private-name", fid.encode(), bytes.fromhex(fid)):
        assert leak not in blob


def test_identity_save_load_keeps_primes(identities, tmp_path):
    alice = identities["alice"]
    alice.save(str(tmp_path))
    assert ClientIdentity.load(str(tmp_path)).derivation == alice.derivation


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_identity_files_are_private(identities, tmp_path, umask_022, existing):
    names = ("access_key.pem", "identity.json")
    if existing:
        for name in names:
            (tmp_path / name).write_bytes(b"")
            os.chmod(tmp_path / name, 0o644)
    identities["alice"].save(str(tmp_path))
    for name in names:
        assert os.stat(tmp_path / name).st_mode & 0o077 == 0
    assert ClientIdentity.load(str(tmp_path)).derivation == identities["alice"].derivation


def test_no_key_material_on_the_wire(ready, identities, tmp_path):
    captured: list[bytes] = []

    class RecordingConnection(Connection):
        def request(self, msg_type, payload):
            captured.append(payload)
            return super().request(msg_type, payload)

    with RecordingConnection(*ready.store_server.address) as store_conn, \
            RecordingConnection(*ready.manager_server.address) as key_conn:
        store, keys = StoreSession(store_conn), KeySession(key_conn)

        seen_keys: list[bytes] = []
        original = keys.keys_for_fingerprints

        def spy(fps):
            out = original(fps)
            seen_keys.extend(out)
            return out

        keys.keys_for_fingerprints = spy

        data = random.Random(9).randbytes(400_000)
        path = write_file(tmp_path, "f.bin", data)
        fid = upload(path, policy=["alice"], identity=identities["alice"],
                     store=store, keys=keys)

    _, wrapped = ready.store_session().get_state(fid)
    state = unwrap_state(wrapped, identities["alice"].access_key, "alice")
    secrets = list(seen_keys)
    secrets.append(derive_file_key(state))
    secrets.append(state.value.to_bytes(state.width, "big"))
    assert secrets and all(len(s) >= 32 for s in secrets)

    blob = b"\x00".join(captured)
    for secret in secrets:
        assert secret not in blob


# -- command line -----------------------------------------------------------------------


def make_config(tmp_path, cluster, name: str) -> str:
    sh, sp = cluster.store_server.address
    mh, mp = cluster.manager_server.address
    path = os.path.join(str(tmp_path), f"{name}.ini")
    with open(path, "w") as fh:
        fh.write(f"""
[client]
server = {sh}:{sp}
manager = {mh}:{mp}
identity_dir = {tmp_path}/{name}-identity
""")
    return path


def test_cli_keygen_register_refuses_an_empty_user_before_making_keys(tmp_path, capsys):
    config = tmp_path / "reed.ini"
    config.write_text(f"[client]\nidentity_dir = {tmp_path}/ids\n")
    assert cli.main(["--config", str(config), "keygen-register", "--user", ""]) == 1
    assert capsys.readouterr().err == "error: user id '' must be 1 to 125 UTF-8 bytes\n"
    assert not (tmp_path / "ids").exists()


def test_cli_upload_refuses_a_policy_naming_an_empty_user(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "trailing")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "trailing"]) == 0
    path = write_file(tmp_path, "f.bin", b"data")
    capsys.readouterr()
    assert cli.main(["--config", cfg, "upload", path, "--policy", "trailing,"]) == 1
    assert capsys.readouterr().err == "error: the policy names an empty user id\n"
    assert ready.service.stats().logical_bytes == 0


def test_cli_end_to_end(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "cliuser")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "cliuser"]) == 0
    data = random.Random(10).randbytes(150_000)
    path = write_file(tmp_path, "cli.bin", data)
    assert cli.main(["--config", cfg, "upload", path, "--policy", "cliuser"]) == 0
    fid = capsys.readouterr().out.strip().splitlines()[-1]
    assert fid == file_id_for("cliuser", path)

    out_path = os.path.join(str(tmp_path), "out.bin")
    assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 0
    with open(out_path, "rb") as fh:
        assert fh.read() == data

    assert cli.main(["--config", cfg, "stats"]) == 0
    stats_out = capsys.readouterr().out
    assert "physical_bytes" in stats_out

    assert cli.main(["--config", cfg, "rekey", fid, "--policy", "cliuser",
                     "--mode", "active"]) == 0

    # a registered outsider is denied with exit code 2
    outsider_cfg = make_config(tmp_path, ready, "outsider")
    assert cli.main(["--config", outsider_cfg, "keygen-register",
                     "--user", "outsider"]) == 0
    assert cli.main(["--config", outsider_cfg, "download", fid,
                     "-o", out_path]) == 2


def test_cli_commands_close_their_sockets(ready, tmp_path, capsys, monkeypatch):
    # a socket left to the garbage collector raises its ResourceWarning
    # inside __del__, which reports it to sys.unraisablehook
    unclosed = []
    monkeypatch.setattr(sys, "unraisablehook", unclosed.append)
    cfg = make_config(tmp_path, ready, "closer")
    path = write_file(tmp_path, "closer.bin", random.Random(12).randbytes(50_000))
    out_path = os.path.join(str(tmp_path), "closer.out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert cli.main(["--config", cfg, "keygen-register", "--user", "closer"]) == 0
        assert cli.main(["--config", cfg, "upload", path, "--policy", "closer"]) == 0
        fid = capsys.readouterr().out.strip().splitlines()[-1]
        assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 0
        assert cli.main(["--config", cfg, "rekey", fid, "--policy", "closer"]) == 0
        assert cli.main(["--config", cfg, "stats"]) == 0
        gc.collect()
    assert [str(u.exc_value) for u in unclosed] == []


def test_cli_integrity_exit_code(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "intuser")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "intuser"]) == 0
    data = random.Random(11).randbytes(100_000)
    path = write_file(tmp_path, "c.bin", data)
    assert cli.main(["--config", cfg, "upload", path, "--policy", "intuser"]) == 0
    fid = capsys.readouterr().out.strip().splitlines()[-1]
    containers = os.path.join(ready.data_root, "containers")
    target = os.path.join(containers, sorted(os.listdir(containers))[0])
    with open(target, "r+b") as fh:
        fh.seek(100)
        fh.write(b"\xff\xff\xff\xff")
    out_path = os.path.join(str(tmp_path), "x.bin")
    assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 3


def test_cli_missing_config_exits_with_an_error(tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "missing.ini")
    assert cli.main(["--config", missing, "stats"]) == 1
    assert capsys.readouterr().err == f"error: config file {missing} does not exist\n"


def test_cli_bad_server_address_exits_with_an_error(tmp_path, capsys):
    cfg = os.path.join(str(tmp_path), "bad.ini")
    with open(cfg, "w") as fh:
        fh.write("[client]\nserver = nohost\n")
    assert cli.main(["--config", cfg, "stats"]) == 1
    assert capsys.readouterr().err == ("error: [client] server: expected host:port, "
                                       "got 'nohost'\n")


def refuse_to_act(monkeypatch, manager_keypair) -> None:
    """Make connecting, listening and serving fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command went on past a bad address")

    for name in ("Connection", "FrameServer", "_serve_until_interrupt"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "_identity", lambda cfg: None)
    monkeypatch.setattr(ManagerKeyPair, "load_or_create",
                        staticmethod(lambda path: manager_keypair))


@pytest.mark.parametrize("section, key, command", [
    ("client", "manager", "upload"),
    ("server", "listen", "serve-store"),
    ("manager", "listen", "serve-manager"),
])
def test_cli_bad_address_names_its_key(tmp_path, capsys, monkeypatch, manager_keypair,
                                       section, key, command):
    config = tmp_path / "reed.ini"
    config.write_text(f"[{section}]\n{key} = nohost\n")
    monkeypatch.chdir(tmp_path)
    refuse_to_act(monkeypatch, manager_keypair)
    argv = ["--config", str(config), command]
    if command == "upload":
        argv += ["f", "--policy", "a"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: [{section}] {key}: expected host:port, "
                                       f"got 'nohost'\n")
    assert os.listdir(tmp_path) == ["reed.ini"]


@pytest.mark.parametrize("section, key, command", [
    ("client", "server", "stats"),
    ("server", "listen", "serve-store"),
])
def test_cli_refuses_an_out_of_range_port(tmp_path, capsys, monkeypatch, manager_keypair,
                                          section, key, command):
    config = tmp_path / "reed.ini"
    config.write_text(f"[{section}]\n{key} = 127.0.0.1:70000\n")
    monkeypatch.chdir(tmp_path)
    refuse_to_act(monkeypatch, manager_keypair)
    assert cli.main(["--config", str(config), command]) == 1
    assert capsys.readouterr().err == (f"error: [{section}] {key}: port out of range "
                                       f"0-65535, got '127.0.0.1:70000'\n")
    assert not os.path.exists(tmp_path / "reed-data")  # the default data_root


def test_cli_refuses_a_batch_cap_of_zero(tmp_path, capsys, monkeypatch, manager_keypair):
    config = tmp_path / "reed.ini"
    config.write_text("[manager]\nbatch_cap = 0\n")
    refuse_to_act(monkeypatch, manager_keypair)
    assert cli.main(["--config", str(config), "serve-manager"]) == 1
    assert capsys.readouterr().err == "error: [manager] batch_cap must be at least 1, not 0\n"


@pytest.mark.parametrize("setting, message", [
    ("rate_capacity = 0", "[manager] rate_capacity must be at least 1, not 0"),
    ("rate_refill = nan", "[manager] rate_refill must be a finite number of at least 0, "
                          "not nan"),
    ("rate_refill = -1", "[manager] rate_refill must be a finite number of at least 0, "
                         "not -1.0"),
    ("rate_refill = inf", "[manager] rate_refill must be a finite number of at least 0, "
                          "not inf"),
], ids=["capacity-0", "refill-nan", "refill-negative", "refill-inf"])
def test_cli_refuses_a_rate_that_breaks_the_limiter_naming_its_key(
        tmp_path, capsys, monkeypatch, manager_keypair, setting, message):
    config = tmp_path / "reed.ini"
    config.write_text(f"[manager]\n{setting}\n")
    refuse_to_act(monkeypatch, manager_keypair)
    assert cli.main(["--config", str(config), "serve-manager"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_refuses_a_container_size_of_zero_before_making_a_root(
        tmp_path, capsys, monkeypatch, manager_keypair):
    config = tmp_path / "reed.ini"
    config.write_text("[server]\ncontainer_size = 0\n")
    monkeypatch.chdir(tmp_path)
    refuse_to_act(monkeypatch, manager_keypair)
    assert cli.main(["--config", str(config), "serve-store"]) == 1
    assert capsys.readouterr().err == \
        "error: [server] container_size must be at least 1, not 0\n"
    assert os.listdir(tmp_path) == ["reed.ini"]


def test_cli_refuses_an_identity_without_primes_naming_its_file(ready, tmp_path, capsys):
    # identity.json kept only n, e and d before identities kept the primes
    cfg = make_config(tmp_path, ready, "oldid")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "oldid"]) == 0
    identity_dir = os.path.join(str(tmp_path), "oldid-identity")
    meta_path = os.path.join(identity_dir, "identity.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["derivation"] = {k: meta["derivation"][k] for k in ("n", "e", "d")}
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    before = tree_digest(identity_dir)
    with pytest.raises(ValueError, match=f"^{meta_path} has no primes p and q"):
        ClientIdentity.load(identity_dir)
    capsys.readouterr()
    assert cli.main(["--config", cfg, "rekey", "ab" * 32, "--policy", "oldid"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {meta_path} has no primes p and q")
    assert tree_digest(identity_dir) == before


def test_cli_bad_recipe_exits_with_an_error(ready, tmp_path, capsys):
    """A recipe of format 1, which held the file id, path, size and state
    version, or of a format not yet written, exits 3 naming its format."""
    cfg = make_config(tmp_path, ready, "recipeuser")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "recipeuser"]) == 0
    fid = "ab" * 32
    format_1 = b"".join([wire.u32(1), bytes.fromhex(fid), wire.prefixed(b"/f"), wire.u64(3),
                         wire.u64(1), bytes([caont.SCHEME_ENHANCED, 1]), wire.u32(0),
                         bytes(32), wire.u32(3), wire.u32(0)])
    out_path = os.path.join(str(tmp_path), "r.bin")
    for fmt, blob in [(1, format_1), (3, wire.u32(3))]:
        ready.store_session().put_recipe(fid, blob)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 3
        assert capsys.readouterr().err == (
            f"error: unsupported recipe format {fmt}: this build reads only format 2\n")
        assert not os.path.exists(out_path)


def recipe_blob(scheme: int = caont.SCHEME_ENHANCED, keying: int = 1) -> bytes:
    """A recipe of one 3-byte chunk, written field by field."""
    return b"".join([wire.u32(2), wire.u64(1), bytes([scheme, keying]),
                     bytes(32), wire.u32(3), wire.u32(0)])


@pytest.mark.parametrize("blob, fault", [
    (recipe_blob()[:-1], "damaged recipe: truncated payload"),
    (recipe_blob() + b"\x00", "damaged recipe: trailing bytes in payload"),
    (recipe_blob(scheme=7), "recipe names no scheme: scheme byte 7"),
    (recipe_blob(keying=2), "recipe names no keying: keying byte 2"),
], ids=["truncated", "trailing-byte", "unknown-scheme", "unknown-keying"])
def test_a_damaged_recipe_is_an_integrity_violation(blob, fault):
    with pytest.raises(IntegrityViolation) as info:
        Recipe.decode(blob)
    assert str(info.value) == fault


def test_cli_truncated_recipe_exits_with_the_integrity_code(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "truncated")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "truncated"]) == 0
    fid = "cd" * 32
    ready.store_session().put_recipe(fid, recipe_blob()[:-1])
    out_path = os.path.join(str(tmp_path), "t.bin")
    capsys.readouterr()
    assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 3
    assert capsys.readouterr().err == "error: damaged recipe: truncated payload\n"
    assert not os.path.exists(out_path)


def test_cli_emptied_package_exits_with_the_integrity_code(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "emptied")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "emptied"]) == 0
    path = write_file(tmp_path, "e.bin", random.Random(16).randbytes(50_000))
    assert cli.main(["--config", cfg, "upload", path, "--policy", "emptied"]) == 0
    fid = capsys.readouterr().out.strip().splitlines()[-1]
    # The first entry now names an empty package, which the server takes,
    # since it hashes to its fingerprint.
    store = ready.store_session()
    empty = hashlib.sha256(b"").digest()
    store.put_packages([(empty, b"")])
    recipe = Recipe.decode(store.get_recipe(fid))
    _, length, index = recipe.entries[0]
    recipe.entries[0] = (empty, length, index)
    store.put_recipe(fid, recipe.encode())
    out_path = os.path.join(str(tmp_path), "e.out")
    assert cli.main(["--config", cfg, "download", fid, "-o", out_path]) == 3
    assert capsys.readouterr().err == "error: a package must be at least 65 bytes\n"
    assert not os.path.exists(out_path)


def test_cli_failed_download_leaves_no_partial_file(ready, tmp_path, capsys):
    cfg = make_config(tmp_path, ready, "tmpuser")
    assert cli.main(["--config", cfg, "keygen-register", "--user", "tmpuser"]) == 0
    data = random.Random(13).randbytes(300_000)
    path = write_file(tmp_path, "t.bin", data)
    assert cli.main(["--config", cfg, "upload", path, "--policy", "tmpuser"]) == 0
    fid = capsys.readouterr().out.strip().splitlines()[-1]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    kept = str(out_dir / "kept.bin")
    assert cli.main(["--config", cfg, "download", fid, "-o", kept]) == 0
    assert os.listdir(out_dir) == ["kept.bin"]
    with open(kept, "rb") as fh:
        assert fh.read() == data

    containers = os.path.join(ready.data_root, "containers")
    target = os.path.join(containers, sorted(os.listdir(containers))[0])
    with open(target, "r+b") as fh:
        fh.seek(200_000)  # a chunk after the first ones
        byte = fh.read(1)
        fh.seek(200_000)
        fh.write(bytes([byte[0] ^ 0x01]))
    fresh = str(out_dir / "fresh.bin")
    assert cli.main(["--config", cfg, "download", fid, "-o", fresh]) == 3
    assert cli.main(["--config", cfg, "download", fid, "-o", kept]) == 3
    assert os.listdir(out_dir) == ["kept.bin"]
    with open(kept, "rb") as fh:
        assert fh.read() == data


def stub_upload(monkeypatch) -> dict:
    """Run upload commands up to upload(), whose keyword arguments land in
    the dict returned, and connect nothing."""
    seen = {}
    monkeypatch.setattr(cli, "_identity", lambda cfg: None)
    monkeypatch.setattr(cli, "_store_session", lambda cfg: contextlib.nullcontext())
    monkeypatch.setattr(cli, "_key_session", lambda cfg: contextlib.nullcontext())
    monkeypatch.setattr(cli, "upload", lambda path, **kw: seen.update(kw) or "fid")
    return seen


def test_cli_upload_segments_for_the_chunking_it_uses(tmp_path, monkeypatch):
    config = tmp_path / "reed.ini"
    config.write_text("[chunk]\navg_size = 4096\n")
    seen = stub_upload(monkeypatch)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a", "--fixed"]) == 0
    assert seen["chunk_params"] == ChunkingParams(mode="fixed", avg_size=4096)
    assert seen["seg_params"].avg_chunk_size == 4096


@pytest.mark.parametrize("settings", ["", "mode = rabin\n"], ids=["default", "rabin"])
def test_cli_upload_fixed_checks_the_chunk_size_under_fixed(tmp_path, monkeypatch,
                                                            settings):
    # 128 is below the rabin floor of 192, and fixed chunking takes it
    config = tmp_path / "reed.ini"
    config.write_text(f"[chunk]\n{settings}avg_size = 128\n")
    seen = stub_upload(monkeypatch)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a", "--fixed"]) == 0
    assert seen["chunk_params"] == ChunkingParams(mode="fixed", avg_size=128)


@pytest.mark.parametrize("settings, flags, message", [
    ("avg_size = 128", [], "[chunk] avg_size: avg_size must be at least 192 under rabin, "
                           "not 128"),
    ("mode = fixed\navg_size = 128", ["--rabin"],
     "[chunk] avg_size: avg_size must be at least 192 under rabin, not 128"),
    ("mode = fixed\navg_size = 0", [], "[chunk] avg_size: avg_size must be at least 1, "
                                       "not 0"),
    ("mode = cdc", ["--fixed"], "[chunk] mode: unknown chunking mode 'cdc'"),
], ids=["rabin-128", "flag-rabin-128", "fixed-0", "unknown-mode"])
def test_cli_upload_names_the_chunk_key_it_refuses(tmp_path, capsys, monkeypatch,
                                                   settings, flags, message):
    config = tmp_path / "reed.ini"
    config.write_text(f"[chunk]\n{settings}\n")
    seen = stub_upload(monkeypatch)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert seen == {}


def test_cli_upload_refuses_a_segment_size_of_zero_naming_its_key(tmp_path, capsys,
                                                                  monkeypatch):
    config = tmp_path / "reed.ini"
    config.write_text("[segment]\navg_size = 0\n")
    seen = stub_upload(monkeypatch)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a"]) == 1
    assert capsys.readouterr().err == ("error: [segment] avg_size: expected a size of at "
                                       "least 1 byte, got '0'\n")
    assert seen == {}


@pytest.mark.parametrize("setting, message", [
    ("scheme = aes", "scheme must be one of basic, enhanced, not 'aes'"),
    ("keying = Similarity", "keying must be one of chunk, similarity, not 'Similarity'"),
])
def test_cli_refuses_an_unknown_name_before_connecting(tmp_path, capsys, monkeypatch,
                                                       setting, message):
    config = tmp_path / "reed.ini"
    config.write_text(f"[client]\n{setting}\n")

    def refuse(cfg):
        raise AssertionError("the upload went on past an unknown name")

    for name in ("_identity", "_store_session", "_key_session"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_config_setting_nothing_builds_the_library_defaults(tmp_path, monkeypatch,
                                                              manager_keypair):
    config = tmp_path / "empty.ini"
    config.write_text("")
    monkeypatch.chdir(tmp_path)  # the default data and key roots are relative
    seen = stub_upload(monkeypatch)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a"]) == 0
    defaults = inspect.signature(upload).parameters
    for key in ("scheme", "keying"):
        assert seen.get(key, defaults[key].default) == defaults[key].default
    assert seen["chunk_params"] == ChunkingParams()
    assert seen["seg_params"] == SegmentationParams(avg_chunk_size=ChunkingParams().avg_size)

    services = []

    class Unstarted:  # a FrameServer that listens on nothing
        address = ("127.0.0.1", 0)

        def __init__(self, service, host, port):
            services.append(service)

        def start(self):
            return self

    monkeypatch.setattr(cli, "FrameServer", Unstarted)
    monkeypatch.setattr(cli, "_serve_until_interrupt", lambda server, service=None: None)
    monkeypatch.setattr(ManagerKeyPair, "load_or_create",
                        staticmethod(lambda path: manager_keypair))
    assert cli.main(["--config", str(config), "serve-store"]) == 0
    assert cli.main(["--config", str(config), "serve-manager"]) == 0
    store, manager = services
    default_store = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    try:
        assert store.containers.capacity == default_store.containers.capacity
    finally:
        store.close()
        default_store.close()
    default_manager = KeyManagerService(manager_keypair)
    assert ((manager.limiter.capacity, manager.limiter.refill_rate, manager.batch_cap)
            == (default_manager.limiter.capacity, default_manager.limiter.refill_rate,
                default_manager.batch_cap))


@pytest.mark.parametrize("text, size", [("8192", 8192), ("1M", 1 << 20), ("1.5K", 1536),
                                        (" 2g ", 2 << 30), ("0", 0)])
def test_parse_size_reads_bytes_and_binary_suffixes(text, size):
    assert parse_size(text) == size


@pytest.mark.parametrize("text", ["abc", "", "K", "12X", "1.5", "-1", "-1K", "-0.5M",
                                  "nanK", "infG"])
def test_parse_size_names_the_bad_text_and_the_form(text):
    with pytest.raises(ValueError) as info:
        parse_size(text)
    assert str(info.value) == f"expected a size of the form <bytes>[K|M|G], got {text!r}"


@pytest.mark.parametrize("text, address", [("[::1]:9601", ("::1", 9601)),
                                           ("127.0.0.1:80", ("127.0.0.1", 80)),
                                           ("store.example:0", ("store.example", 0))])
def test_parse_address_strips_the_brackets_of_an_ipv6_literal(text, address):
    assert parse_address(text) == address


@pytest.mark.parametrize("text", ["h:\u0668\u0660", "[::1]", "[]:80", "[::1:80", ":80",
                                  "h:"])
def test_parse_address_refuses_a_port_of_other_than_ascii_digits(text):
    # "h:\u0668\u0660" is h with port 80 in Arabic-Indic digits
    with pytest.raises(ValueError, match="^expected host:port, got "):
        parse_address(text)


@pytest.mark.parametrize("section, key, value, read", [
    ("chunk", "avg_size", "2x", lambda cfg: cfg.chunk_params()),
    ("segment", "avg_size", "-1M", lambda cfg: cfg.segment_params(ChunkingParams())),
    ("manager", "rate_refill", "fast",
     lambda cfg: cfg.options("manager", rate_refill=float)),
])
def test_config_names_the_section_and_key_of_a_bad_value(tmp_path, section, key, value,
                                                        read):
    config = tmp_path / "reed.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"^\[{section}\] {key}: .*{value!r}"):
        read(Config.load(str(config)))


@pytest.mark.parametrize("key", ["fixed_size", "min_size", "max_size"])
def test_a_removed_chunk_key_is_refused_by_name(tmp_path, key):
    config = tmp_path / "reed.ini"
    config.write_text(f"[chunk]\navg_size = 8192\n{key} = 4096\n")
    with pytest.raises(ValueError, match=rf"^\[chunk\] {key} was removed: fixed mode "
                                         r"cuts at avg_size"):
        Config.load(str(config)).chunk_params()


def test_cli_refuses_a_removed_chunk_key_before_connecting(tmp_path, capsys, monkeypatch):
    config = tmp_path / "reed.ini"
    config.write_text("[chunk]\nfixed_size = 4096\n")
    for name in ("_store_session", "_key_session"):
        monkeypatch.setattr(cli, name, lambda cfg: pytest.fail("connected"))
    monkeypatch.setattr(cli, "_identity", lambda cfg: None)
    assert cli.main(["--config", str(config), "upload", "f", "--policy", "a",
                     "--fixed"]) == 1
    assert capsys.readouterr().err.startswith("error: [chunk] fixed_size was removed")


def test_cli_reports_a_bad_config_size_naming_its_key(tmp_path, capsys, monkeypatch):
    config = tmp_path / "reed.ini"
    config.write_text("[server]\ncontainer_size = 4X\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", str(config), "serve-store"]) == 1
    assert capsys.readouterr().err == ("error: [server] container_size: expected a size "
                                       "of the form <bytes>[K|M|G], got '4X'\n")
    assert os.listdir(tmp_path) == ["reed.ini"]  # refused before any root is made
