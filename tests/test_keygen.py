import dataclasses
import hashlib
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import private_operands
from reed import keygen, wire
from reed.chunking import Chunk, Segment
from reed.errors import (InvalidOperand, PrivateKeyFault, RateLimited,
                         SignatureInvalid, ZeroFingerprint)
from reed.keygen import (KEY_CACHE_ENTRIES, KeyManagerService, KeySession,
                         ManagerKeyPair, TokenBucket, blind, derive_chunk_key, unblind)
from reed.rekeying import DerivationKeyPair, new_state, wind
from reed.wire import LocalBackend


@pytest.fixture(scope="module")
def pair():
    return ManagerKeyPair.generate()


@pytest.fixture
def service(pair):
    return KeyManagerService(pair)


@pytest.fixture
def session(service):
    return KeySession(LocalBackend(service))


def direct_key(pair: ManagerKeyPair, fp: bytes) -> bytes:
    """Oracle: the key by direct modular exponentiation with the private d."""
    s = pow(int.from_bytes(fp, "big"), pair.d, pair.n)
    return hashlib.sha256(s.to_bytes(pair.public.width, "big")).digest()


def test_protocol_matches_direct_exponentiation(pair, session):
    for _ in range(10):
        fp = os.urandom(32)
        assert session.keys_for_fingerprints([fp])[0] == direct_key(pair, fp)


def test_same_fingerprint_two_blindings_same_key(pair, service):
    # two sessions, so that the second key is not served from the first's cache
    one, two = KeySession(LocalBackend(service)), KeySession(LocalBackend(service))
    fp = os.urandom(32)
    assert one.keys_for_fingerprints([fp])[0] == two.keys_for_fingerprints([fp])[0]
    assert one.sent_count == two.sent_count == 1


def test_blinding_hides_fingerprint(pair):
    fp = os.urandom(32)
    one = blind(fp, pair.public)
    two = blind(fp, pair.public)
    assert one.value != two.value  # fresh randomness on the wire
    assert one.value != int.from_bytes(fp, "big")


def test_identity_blinding_hook(pair):
    fp = os.urandom(32)
    req = blind(fp, pair.public, r=1)
    assert req.value == int.from_bytes(fp, "big")


def test_blind_rejects_zero_fingerprint(pair):
    with pytest.raises(ZeroFingerprint):
        blind(bytes(32), pair.public)


def test_sign_one_is_fixed_point(pair, service):
    assert service.sign_batch([1], "c")[0] == 1


def test_sign_rejects_out_of_range(pair, service):
    with pytest.raises(InvalidOperand):
        service.sign_batch([0], "c")
    with pytest.raises(InvalidOperand):
        service.sign_batch([pair.n], "c")


def test_unblind_detects_tampering(pair, service):
    fp = os.urandom(32)
    req = blind(fp, pair.public)
    signed = service.sign_batch([req.value], "c")[0]
    with pytest.raises(SignatureInvalid):
        unblind(signed ^ 1, req)


def test_unblind_accepts_only_valid_signature(pair, service):
    fp = os.urandom(32)
    req = blind(fp, pair.public)
    key = unblind(service.sign_batch([req.value], "c")[0], req)
    assert key == direct_key(pair, fp)
    assert len(key) == 32


def test_derived_key_uses_fixed_width_encoding(pair):
    width = pair.public.width
    assert width == 128  # 1024-bit modulus
    s = 7  # tiny value: leading zeros must be part of the preimage
    assert derive_chunk_key(s, width) == hashlib.sha256(s.to_bytes(128, "big")).digest()


# -- rate limiting -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_capacity_one_bucket_rejects_second_request(pair):
    clock = FakeClock()
    service = KeyManagerService(pair, rate_capacity=1, rate_refill=1.0, clock=clock)
    service.sign_batch([2], "c")
    with pytest.raises(RateLimited):
        service.sign_batch([2], "c")
    clock.now += 1.0  # one token refilled
    service.sign_batch([2], "c")


def test_batch_consumes_one_token_per_element(pair):
    clock = FakeClock()
    service = KeyManagerService(pair, rate_capacity=5, rate_refill=0.0, clock=clock)
    service.sign_batch([2, 3, 4], "c")
    assert service.limiter.tokens("c") == 2
    with pytest.raises(RateLimited):
        service.sign_batch([2, 3, 4], "c")
    service.sign_batch([2, 3], "c")


def test_limiter_is_per_client(pair):
    clock = FakeClock()
    service = KeyManagerService(pair, rate_capacity=1, rate_refill=0.0, clock=clock)
    service.sign_batch([2], "a")
    service.sign_batch([2], "b")
    with pytest.raises(RateLimited):
        service.sign_batch([2], "a")


def test_bucket_never_exceeds_capacity():
    clock = FakeClock()
    bucket = TokenBucket(capacity=3, refill_rate=100.0, clock=clock)
    assert bucket.try_acquire("c", 3)
    clock.now += 1000.0
    assert bucket.tokens("c") == 3.0


# -- batching -----------------------------------------------------------------------


def test_batch_equals_sequential_signs(pair, service):
    values = [int.from_bytes(os.urandom(16), "big") for _ in range(8)]
    batch = service.sign_batch(values, "c")
    sequential = [service.sign_batch([v], "c")[0] for v in values]
    assert batch == sequential


def test_batch_cap_enforced(pair):
    service = KeyManagerService(pair, batch_cap=4)
    with pytest.raises(InvalidOperand):
        service.sign_batch([2] * 5, "c")


def test_session_splits_large_fingerprint_lists(pair):
    service = KeyManagerService(pair, batch_cap=4)
    sizes = []
    sign_batch = service.sign_batch
    service.sign_batch = lambda values, client_id: (sizes.append(len(values))
                                                    or sign_batch(values, client_id))
    session = KeySession(LocalBackend(service))  # learns the cap with the public key
    fps = [os.urandom(32) for _ in range(11)]
    keys = session.keys_for_fingerprints(fps)
    assert keys == [direct_key(pair, fp) for fp in fps]
    assert sizes == [4, 4, 3]
    assert session.request_count == 11


# -- key cache ----------------------------------------------------------------------


def test_cached_and_sent_keys_equal_the_oracle(pair, service):
    session = KeySession(LocalBackend(service))
    a, b, c, d = (os.urandom(32) for _ in range(4))
    first = session.keys_for_fingerprints([a, b, a, c, b])
    assert first == [direct_key(pair, fp) for fp in [a, b, a, c, b]]
    assert session.sent_count == service.signed_count == 3  # each once, within a call
    second = session.keys_for_fingerprints([c, d, a, d])
    assert second == [direct_key(pair, fp) for fp in [c, d, a, d]]
    assert session.sent_count == service.signed_count == 4  # and across calls
    assert session.request_count == 9  # every key resolved counts


def test_misses_are_sent_in_first_seen_order(pair):
    service = KeyManagerService(pair, batch_cap=2)
    sent = []
    sign_batch = service.sign_batch
    service.sign_batch = lambda values, client_id: (sent.append(len(values))
                                                    or sign_batch(values, client_id))
    session = KeySession(LocalBackend(service))
    a, b, c, d, e = (os.urandom(32) for _ in range(5))
    session.keys_for_fingerprints([b])
    fps = [a, b, c, a, d, c, e]
    assert session.keys_for_fingerprints(fps) == [direct_key(pair, fp) for fp in fps]
    assert sent == [1, 2, 2]  # b, then the misses a c d e split by the cap


def test_cache_evicts_least_recently_used(pair, service, monkeypatch):
    monkeypatch.setattr(keygen, "KEY_CACHE_ENTRIES", 4)
    session = KeySession(LocalBackend(service))
    a, b, c, d, e = (os.urandom(32) for _ in range(5))
    session.keys_for_fingerprints([a, b, c, d])
    session.keys_for_fingerprints([a])  # a is now the most recently used
    session.keys_for_fingerprints([e])  # evicts b
    assert session.sent_count == 5
    assert session.keys_for_fingerprints([a, c, d, e]) == [
        direct_key(pair, fp) for fp in [a, c, d, e]]
    assert session.sent_count == 5
    assert session.keys_for_fingerprints([b])[0] == direct_key(pair, b)  # evicts a
    assert session.sent_count == 6
    session.keys_for_fingerprints([a])
    assert session.sent_count == 7


def test_response_failing_unblind_caches_nothing(pair, service):
    tamper = True

    class Tampering:
        """Flips the last bit of a keygen reply: the batch's last key fails."""

        def __init__(self):
            self._local = LocalBackend(service)

        def request(self, msg_type, payload):
            resp_type, body = self._local.request(msg_type, payload)
            if tamper and msg_type == wire.MSG_KEYGEN:
                body = body[:-1] + bytes([body[-1] ^ 1])
            return resp_type, body

    session = KeySession(Tampering())
    fps = [os.urandom(32) for _ in range(3)]
    with pytest.raises(SignatureInvalid):
        session.keys_for_fingerprints(fps)
    assert session.request_count == 0
    tamper = False
    assert session.keys_for_fingerprints(fps) == [direct_key(pair, fp) for fp in fps]
    assert session.sent_count == 6  # the first two keys were checked, but not kept


def test_rate_limit_spends_tokens_only_on_keys_sent(pair):
    service = KeyManagerService(pair, rate_capacity=4, rate_refill=0.0, clock=FakeClock())
    session = KeySession(LocalBackend(service, client_id="c"))
    a, b, c, d, e = (os.urandom(32) for _ in range(5))
    session.keys_for_fingerprints([a, b, c])
    session.keys_for_fingerprints([c, a, b, a])  # all cached: no token spent
    assert service.limiter.tokens("c") == 1
    with pytest.raises(RateLimited):
        session.keys_for_fingerprints([d, a, e])  # two to send, one token left
    assert service.limiter.tokens("c") == 1
    assert session.keys_for_fingerprints([d, a]) == [direct_key(pair, d), direct_key(pair, a)]
    assert service.limiter.tokens("c") == 0
    assert (session.sent_count, session.request_count) == (4, 9)


def test_full_cache_is_bounded_in_entries_and_memory(pair, monkeypatch):
    # e = d = 1 makes signing the identity and r = 1 makes blinding free, so
    # filling the cache costs no modular exponentiation or inverse; the
    # session still runs its usual codecs and unblind check.
    identity = ManagerKeyPair(n=pair.n, e=1, d=1, p=pair.p, q=pair.q)
    monkeypatch.setattr(keygen, "blind", lambda fp, pub: blind(fp, pub, r=1))
    session = KeySession(LocalBackend(KeyManagerService(identity, rate_capacity=10 ** 6)))
    session.public_key  # fetched outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(0, KEY_CACHE_ENTRIES + 1024, 1024):
            fps = [os.urandom(32) for _ in range(1024)]
            session.keys_for_fingerprints(fps)
        del fps
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(session._cache) == KEY_CACHE_ENTRIES
    assert held < 4 << 20
    fp = next(reversed(session._cache))
    assert session.keys_for_fingerprints([fp])[0] == direct_key(identity, fp)


# -- segment keying -----------------------------------------------------------------


def seg_for(fps: list[bytes]) -> Segment:
    chunks = [(Chunk(b"x" * 64), fp) for fp in fps]
    return Segment(chunks=chunks, total_bytes=64 * len(fps),
                   representative=min(fps))


def test_single_chunk_segment_reduces_to_chunk_key(pair, session):
    fp = os.urandom(32)
    assert session.keys_for_fingerprints([seg_for([fp]).representative]) == \
        session.keys_for_fingerprints([fp])


def test_segment_count_drives_request_count(pair, session):
    segments = [seg_for([os.urandom(32) for _ in range(5)]) for _ in range(7)]
    before = session.request_count
    keys = session.keys_for_fingerprints([s.representative for s in segments])
    assert session.request_count - before == 7
    assert len(keys) == 7


def test_repeated_representative_gives_equal_segment_keys(pair, session):
    shared = b"\x00" + os.urandom(31)  # minimum of any segment it joins
    seg_a = seg_for([shared, b"\xff" + os.urandom(31)])
    seg_b = seg_for([shared, b"\xff" + os.urandom(31)])
    assert seg_a.representative == seg_b.representative == shared
    assert session.keys_for_fingerprints([seg_a.representative]) == \
        session.keys_for_fingerprints([seg_b.representative])


# -- wire details ----------------------------------------------------------------------


def test_public_key_fetch_over_frames(pair, service):
    session = KeySession(LocalBackend(service))
    pub = session.public_key
    assert pub.n == pair.n and pub.e == pair.e


def test_rate_limit_propagates_over_frames(pair):
    clock = FakeClock()
    service = KeyManagerService(pair, rate_capacity=1, rate_refill=0.0, clock=clock)
    session = KeySession(LocalBackend(service))
    session.keys_for_fingerprints([os.urandom(32)])
    with pytest.raises(RateLimited):
        session.keys_for_fingerprints([os.urandom(32)])


def test_keypair_pem_round_trip(pair, tmp_path):
    path = str(tmp_path / "manager.pem")
    pair.save_pem(path)
    loaded = ManagerKeyPair.load_pem(path)
    assert loaded == pair
    assert (loaded.p, loaded.q) == (pair.p, pair.q)
    assert ManagerKeyPair.load_or_create(path) == pair


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_keypair_pem_is_private(pair, tmp_path, umask_022, existing):
    path = tmp_path / "manager.pem"
    if existing:
        path.write_bytes(b"")
        os.chmod(path, 0o644)
    pair.save_pem(str(path))
    assert os.stat(path).st_mode & 0o077 == 0
    assert ManagerKeyPair.load_pem(str(path)) == pair


def test_keypair_created_on_first_boot(tmp_path):
    path = str(tmp_path / "fresh.pem")
    first = ManagerKeyPair.load_or_create(path)
    assert ManagerKeyPair.load_or_create(path) == first


# -- private exponent by CRT -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sign_batch_equals_full_exponent(pair, data):
    service = KeyManagerService(pair)
    values = data.draw(st.lists(private_operands(pair), min_size=1, max_size=4))
    assert service.sign_batch(values, "c") == [pow(v, pair.d, pair.n) for v in values]


def test_faulty_crt_exponent_never_signs(pair):
    faulty = dataclasses.replace(pair)
    object.__setattr__(faulty, "dq", faulty.dq ^ 2)
    service = KeyManagerService(faulty)
    out = None
    with pytest.raises(PrivateKeyFault):
        out = service.sign_batch([int.from_bytes(os.urandom(32), "big")], "c")
    assert out is None and service.signed_count == 0


def test_no_private_exponent_reaches_python_pow(pair, monkeypatch):
    # Python's pow takes longer or shorter with the bits of its exponent;
    # a module global named pow shadows the builtin inside reed.keygen.
    calls = []

    def recording_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(keygen, "pow", recording_pow, raising=False)
    owner = DerivationKeyPair(n=pair.n, e=pair.e, d=pair.d, p=pair.p, q=pair.q)
    values = [int.from_bytes(os.urandom(32), "big") for _ in range(3)]
    KeyManagerService(pair).sign_batch(values, "c")
    wind(new_state("alice", owner), owner)
    assert len(calls) >= 4  # the recorder sees the public-exponent checks
    secret = {pair.d, pair.dp, pair.dq}
    assert [args for args in calls if len(args) > 1 and args[1] in secret] == []


def test_primes_must_match_modulus(pair):
    with pytest.raises(ValueError):
        ManagerKeyPair(n=pair.n, e=pair.e, d=pair.d, p=pair.p, q=pair.q + 2)
