import dataclasses
import hashlib
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_one_stub_record, private_operands
from reed import caont, rekeying, wire
from reed.client import StoreSession
from reed.errors import (AccessDenied, AtInitialState, AuthenticationFailure,
                         NotOwner, PolicyEmpty, PrivateKeyFault, UnknownUser,
                         VersionConflict)
from reed.rekeying import (DerivationKeyPair, KeyState, derive_file_key,
                           generate_access_keypair, new_state, unwind,
                           unwind_to, unwrap_state, wind, wrap_state,
                           wrapped_policy, wrapped_version)
from reed.server import StorageService
from reed.wire import LocalBackend


@pytest.fixture(scope="module")
def owner_keys():
    return DerivationKeyPair.generate()


@pytest.fixture(scope="module")
def access_keys():
    return {name: generate_access_keypair() for name in ("alice", "bob", "carol")}


@pytest.fixture(scope="module")
def directory(access_keys):
    return {name: key.public_key() for name, key in access_keys.items()}


def members(directory, *users):
    """The part of directory that a policy of users resolves to."""
    return {user: directory[user] for user in sorted(users)}


# -- key regression ------------------------------------------------------------


def test_wind_unwind_inverse_chains(owner_keys):
    state = new_state("alice", owner_keys)
    for k in range(1, 6):
        forward = state
        for _ in range(k):
            forward = wind(forward, owner_keys)
        assert forward.version == k
        back = forward
        for _ in range(k):
            back = unwind(back)
        assert back == state


def test_wind_requires_private_key(owner_keys):
    state = new_state("alice", owner_keys)
    with pytest.raises(NotOwner):
        wind(state, None)
    with pytest.raises(NotOwner):
        wind(state, DerivationKeyPair.generate())  # some other owner's keys


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wind_equals_full_exponent(owner_keys, data):
    value = data.draw(private_operands(owner_keys))
    state = KeyState(owner_id="alice", version=3, value=value,
                     owner_n=owner_keys.n, owner_e=owner_keys.e)
    wound = wind(state, owner_keys)
    assert wound.value == pow(value, owner_keys.d, owner_keys.n)
    assert wound.version == 4


def test_faulty_crt_exponent_never_winds(owner_keys):
    faulty = dataclasses.replace(owner_keys)
    object.__setattr__(faulty, "dp", faulty.dp ^ 2)
    state = new_state("alice", owner_keys)
    wound = None
    with pytest.raises(PrivateKeyFault):
        wound = wind(state, faulty)
    assert wound is None


def test_unwind_at_version_zero(owner_keys):
    with pytest.raises(AtInitialState):
        unwind(new_state("alice", owner_keys))


def test_unwind_needs_only_embedded_public_part(owner_keys):
    # the state value plus (n, e) ride inside the state itself
    s1 = wind(new_state("alice", owner_keys), owner_keys)
    assert unwind(s1).version == 0


def test_unwind_to(owner_keys):
    state = new_state("alice", owner_keys)
    s3 = state
    for _ in range(3):
        s3 = wind(s3, owner_keys)
    assert unwind_to(s3, 0) == state
    assert unwind_to(s3, 3) == s3
    with pytest.raises(AtInitialState):
        unwind_to(state, 2)


def test_initial_states_are_distinct(owner_keys):
    assert new_state("alice", owner_keys).value != new_state("alice", owner_keys).value


def test_version_strictly_increases(owner_keys):
    state = new_state("alice", owner_keys)
    wound = wind(state, owner_keys)
    assert wound.version == state.version + 1


# -- file keys ------------------------------------------------------------------


def test_file_key_reference_recompute(owner_keys):
    state = new_state("alice", owner_keys)
    width = (owner_keys.n.bit_length() + 7) // 8
    expected = hashlib.sha256(state.value.to_bytes(width, "big")
                              + struct.pack(">I", state.version)).digest()
    assert derive_file_key(state) == expected
    assert len(expected) == 32


def test_file_key_changes_across_versions(owner_keys):
    state = new_state("alice", owner_keys)
    assert derive_file_key(state) != derive_file_key(wind(state, owner_keys))


def test_equal_states_equal_keys(owner_keys):
    state = new_state("alice", owner_keys)
    assert derive_file_key(state) == derive_file_key(unwind(wind(state, owner_keys)))


# -- policy wraps ------------------------------------------------------------------


def test_wrap_unwrap_round_trip(owner_keys, access_keys, directory):
    state = new_state("alice", owner_keys)
    blob = wrap_state(state, members(directory, "alice", "bob"))
    assert unwrap_state(blob, access_keys["alice"], "alice") == state
    assert unwrap_state(blob, access_keys["bob"], "bob") == state
    assert wrapped_version(blob) == 0
    assert wrapped_policy(blob) == ["alice", "bob"]


def test_absent_user_cannot_unwrap(owner_keys, access_keys, directory):
    blob = wrap_state(new_state("alice", owner_keys), members(directory, "alice"))
    with pytest.raises(AccessDenied):
        unwrap_state(blob, access_keys["carol"], "carol")


def test_wrong_private_key_denied(owner_keys, access_keys, directory):
    blob = wrap_state(new_state("alice", owner_keys), members(directory, "alice", "bob"))
    with pytest.raises(AccessDenied):
        unwrap_state(blob, access_keys["carol"], "alice")


def test_tampered_wrap_denied(owner_keys, access_keys, directory):
    blob = wrap_state(new_state("alice", owner_keys), members(directory, "alice"))
    for pos in (0, 4, 12, len(blob) // 2, len(blob) - 1):
        mod = bytearray(blob)
        mod[pos] ^= 1
        with pytest.raises(AccessDenied):
            unwrap_state(bytes(mod), access_keys["alice"], "alice")


def test_wrap_rejects_empty_policy(owner_keys, directory):
    with pytest.raises(PolicyEmpty):
        wrap_state(new_state("alice", owner_keys), {})


def test_wrap_size_grows_linearly_with_policy(owner_keys):
    keys = {f"u{i}": generate_access_keypair() for i in range(4)}
    directory = {name: key.public_key() for name, key in keys.items()}
    state = new_state("u0", owner_keys)
    sizes = [len(wrap_state(state, members(directory, *list(directory)[:i + 1])))
             for i in range(4)]
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    assert all(d == deltas[0] for d in deltas)  # one encapsulation per user
    assert len(wrapped_policy(wrap_state(state, members(directory, "u0")))) == 1


def test_single_user_policy_has_one_encapsulation(owner_keys, directory):
    blob = wrap_state(new_state("alice", owner_keys), members(directory, "alice"))
    assert wrapped_policy(blob) == ["alice"]


# -- decryptability across versions --------------------------------------------------


def test_decryptability_matrix(owner_keys):
    """A reader at version v opens stub files of versions <= v and no newer."""
    states = [new_state("alice", owner_keys)]
    for _ in range(3):
        states.append(wind(states[-1], owner_keys))
    stub_blobs = [caont.encrypt_stub_file(os.urandom(64), derive_file_key(s))
                  for s in states]
    for held in range(len(states)):
        for target in range(len(states)):
            if target <= held:
                key = derive_file_key(unwind_to(states[held], target))
                caont.decrypt_stub_file(stub_blobs[target], key)
            else:
                # no unwind sequence reaches a future version
                with pytest.raises(AtInitialState):
                    unwind_to(states[held], target)
                for v in range(held + 1):
                    key = derive_file_key(unwind_to(states[held], v))
                    with pytest.raises(Exception):
                        caont.decrypt_stub_file(stub_blobs[target], key)


# -- rekey procedure over a real store ------------------------------------------------


@pytest.fixture
def store(tmp_path):
    service = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    yield StoreSession(LocalBackend(service))
    service.close()


def _seed_file(store, owner_keys, access_keys, directory, policy=("alice", "bob")):
    state = new_state("alice", owner_keys)
    stubs = os.urandom(3 * caont.STUB_SIZE)  # the plaintext of a 3-chunk stub file
    store.put_stub("file-1", 0, caont.encrypt_stub_file(stubs, derive_file_key(state)))
    store.put_state("file-1", 0, wrap_state(state, members(directory, *policy)))
    for name in ("alice", "bob", "carol"):
        store.put_user_key(name, rekeying.access_public_pem(access_keys[name]))
    return state, stubs


def test_lazy_rekey_moves_only_the_state(store, owner_keys, access_keys, directory):
    state, stubs = _seed_file(store, owner_keys, access_keys, directory)
    stub_before = store.get_stub("file-1")
    version = rekeying.rekey(store, file_id="file-1", new_policy=["alice"],
                             mode="lazy", user_id="alice",
                             access_private_key=access_keys["alice"],
                             derivation=owner_keys)
    assert version == 1
    assert store.get_stub("file-1") == stub_before  # untouched
    got_version, wrapped = store.get_state("file-1")
    assert got_version == 1
    new = unwrap_state(wrapped, access_keys["alice"], "alice")
    # the new state still reads the old stub file after one unwind
    old_key = derive_file_key(unwind_to(new, 0))
    assert caont.decrypt_stub_file(stub_before[1], old_key) == stubs


def test_active_rekey_reencrypts_stubs(store, owner_keys, access_keys, directory):
    state, stubs = _seed_file(store, owner_keys, access_keys, directory)
    _, old_blob = store.get_stub("file-1")
    rekeying.rekey(store, file_id="file-1", new_policy=["alice"], mode="active",
                   user_id="alice", access_private_key=access_keys["alice"],
                   derivation=owner_keys)
    new_version, new_blob = store.get_stub("file-1")
    assert new_version == 1
    assert new_blob != old_blob
    new_state_obj = unwrap_state(store.get_state("file-1")[1],
                                 access_keys["alice"], "alice")
    assert caont.decrypt_stub_file(new_blob, derive_file_key(new_state_obj)) == stubs
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(new_blob, derive_file_key(state))


def test_active_rekey_leaves_no_stub_file_for_old_keys(store, owner_keys, access_keys,
                                                       directory, tmp_path):
    state, _ = _seed_file(store, owner_keys, access_keys, directory)
    bob_key = derive_file_key(unwrap_state(store.get_state("file-1")[1],
                                           access_keys["bob"], "bob"))
    for mode in ("lazy", "active"):
        rekeying.rekey(store, file_id="file-1", new_policy=["alice"], mode=mode,
                       user_id="alice", access_private_key=access_keys["alice"],
                       derivation=owner_keys)
    current, _ = store.get_stub("file-1")
    assert current == 2
    assert_one_stub_record(str(tmp_path / "data"), store, "file-1")
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(store.get_stub("file-1")[1], bob_key)


class RekeyInsideGetStub:
    """A store whose first stub read runs another rekey, before or after it reads."""

    def __init__(self, store, rekey, first):
        self._store = store
        self.rekey = rekey
        self.first = first

    def __getattr__(self, name):
        return getattr(self._store, name)

    def get_stub(self, file_id):
        rekey, self.rekey = self.rekey, None
        if rekey and self.first:
            rekey()
        got = self._store.get_stub(file_id)
        if rekey and not self.first:
            rekey()
        return got


@pytest.mark.parametrize("first", [True, False], ids=["before-read", "after-read"])
def test_overtaken_active_rekey_succeeds(store, owner_keys, access_keys, directory,
                                         first, tmp_path):
    _, stubs = _seed_file(store, owner_keys, access_keys, directory)

    def active(on):
        return rekeying.rekey(on, file_id="file-1", new_policy=["alice"], mode="active",
                              user_id="alice", access_private_key=access_keys["alice"],
                              derivation=owner_keys)

    racing = RekeyInsideGetStub(store, lambda: active(store), first)
    assert active(racing) == 1  # overtaken after its state commit, and not an error
    assert racing.rekey is None
    version, blob = store.get_stub("file-1")
    assert version == 2
    assert_one_stub_record(str(tmp_path / "data"), store, "file-1")
    state = unwrap_state(store.get_state("file-1")[1], access_keys["alice"], "alice")
    assert caont.decrypt_stub_file(blob, derive_file_key(state)) == stubs


class CountingBackend:
    def __init__(self, backend):
        self._backend = backend
        self.sent = []

    def request(self, msg_type, payload):
        self.sent.append((msg_type, payload[0]))
        return self._backend.request(msg_type, payload)


def test_active_rekey_adds_no_request(tmp_path, owner_keys, access_keys, directory):
    service = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    backend = CountingBackend(LocalBackend(service))
    store = StoreSession(backend)
    _seed_file(store, owner_keys, access_keys, directory)
    backend.sent.clear()
    rekeying.rekey(store, file_id="file-1", new_policy=["alice", "bob"], mode="active",
                   user_id="alice", access_private_key=access_keys["alice"],
                   derivation=owner_keys)
    service.close()
    get, put = wire.BLOB_GET, wire.BLOB_PUT
    assert backend.sent == [
        (wire.MSG_WRAPPED_STATE, get), (wire.MSG_USER_KEY, get), (wire.MSG_USER_KEY, get),
        (wire.MSG_WRAPPED_STATE, put), (wire.MSG_STUB_FILE, get), (wire.MSG_STUB_FILE, put)]


def test_rekey_revokes_absent_users(store, owner_keys, access_keys, directory):
    _seed_file(store, owner_keys, access_keys, directory)
    rekeying.rekey(store, file_id="file-1", new_policy=["alice"], mode="lazy",
                   user_id="alice", access_private_key=access_keys["alice"],
                   derivation=owner_keys)
    _, wrapped = store.get_state("file-1")
    with pytest.raises(AccessDenied):
        unwrap_state(wrapped, access_keys["bob"], "bob")


def test_rekey_requires_ownership(store, owner_keys, access_keys, directory):
    _seed_file(store, owner_keys, access_keys, directory)
    with pytest.raises(NotOwner):
        rekeying.rekey(store, file_id="file-1", new_policy=["bob"], mode="lazy",
                       user_id="bob", access_private_key=access_keys["bob"],
                       derivation=DerivationKeyPair.generate())


def test_rekey_unknown_policy_member(store, owner_keys, access_keys, directory):
    _seed_file(store, owner_keys, access_keys, directory)
    with pytest.raises(UnknownUser):
        rekeying.rekey(store, file_id="file-1", new_policy=["alice", "mallory"],
                       mode="lazy", user_id="alice",
                       access_private_key=access_keys["alice"],
                       derivation=owner_keys)


def test_concurrent_rekeys_serialize_on_version(store, owner_keys, access_keys,
                                                directory):
    state, _ = _seed_file(store, owner_keys, access_keys, directory)
    # a second writer that read version 0 loses the compare-and-set
    rekeying.rekey(store, file_id="file-1", new_policy=["alice"], mode="lazy",
                   user_id="alice", access_private_key=access_keys["alice"],
                   derivation=owner_keys)
    stale = wrap_state(wind(state, owner_keys), members(directory, "alice"))
    with pytest.raises(VersionConflict):
        store.put_state("file-1", 1, stale, expected_prev=0)


@pytest.mark.parametrize("mode", ["lazy", "active"])
def test_rekey_with_empty_policy_writes_nothing(tmp_path, owner_keys, access_keys,
                                                directory, mode):
    service = StorageService(str(tmp_path / "data"), str(tmp_path / "keys"))
    backend = CountingBackend(LocalBackend(service))
    store = StoreSession(backend)
    _seed_file(store, owner_keys, access_keys, directory)
    before = store.get_state("file-1"), store.get_stub("file-1")
    backend.sent.clear()
    with pytest.raises(PolicyEmpty):
        rekeying.rekey(store, file_id="file-1", new_policy=[], mode=mode,
                       user_id="alice", access_private_key=access_keys["alice"],
                       derivation=owner_keys)
    assert all(op != wire.BLOB_PUT for _, op in backend.sent)
    assert (store.get_state("file-1"), store.get_stub("file-1")) == before
    service.close()
