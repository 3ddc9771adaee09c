import dataclasses
import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import private_operands
from reed.chunking import Chunk, Segment
from reed.errors import (InvalidOperand, PrivateKeyFault, RateLimited,
                         SignatureInvalid, ZeroFingerprint)
from reed.keygen import (KeyManagerService, KeySession, ManagerKeyPair,
                         TokenBucket, blind, derive_chunk_key, unblind)
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
        assert session.key_for_fingerprint(fp) == direct_key(pair, fp)


def test_same_fingerprint_two_blindings_same_key(pair, session):
    fp = os.urandom(32)
    assert session.key_for_fingerprint(fp) == session.key_for_fingerprint(fp)


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
    assert service.sign(1, "c") == 1


def test_sign_rejects_out_of_range(pair, service):
    with pytest.raises(InvalidOperand):
        service.sign(0, "c")
    with pytest.raises(InvalidOperand):
        service.sign(pair.n, "c")


def test_unblind_detects_tampering(pair, service):
    fp = os.urandom(32)
    req = blind(fp, pair.public)
    signed = service.sign(req.value, "c")
    with pytest.raises(SignatureInvalid):
        unblind(signed ^ 1, req)


def test_unblind_accepts_only_valid_signature(pair, service):
    fp = os.urandom(32)
    req = blind(fp, pair.public)
    key = unblind(service.sign(req.value, "c"), req)
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
    service.sign(2, "c")
    with pytest.raises(RateLimited):
        service.sign(2, "c")
    clock.now += 1.0  # one token refilled
    service.sign(2, "c")


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
    service.sign(2, "a")
    service.sign(2, "b")
    with pytest.raises(RateLimited):
        service.sign(2, "a")


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
    sequential = [service.sign(v, "c") for v in values]
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


# -- segment keying -----------------------------------------------------------------


def seg_for(fps: list[bytes]) -> Segment:
    chunks = [(Chunk(b"x" * 64), fp) for fp in fps]
    return Segment(chunks=chunks, total_bytes=64 * len(fps),
                   representative=min(fps))


def test_single_chunk_segment_reduces_to_chunk_key(pair, session):
    fp = os.urandom(32)
    assert session.segment_key(seg_for([fp])) == session.key_for_fingerprint(fp)


def test_segment_count_drives_request_count(pair, session):
    segments = [seg_for([os.urandom(32) for _ in range(5)]) for _ in range(7)]
    before = session.request_count
    keys = session.segment_keys(segments)
    assert session.request_count - before == 7
    assert len(keys) == 7


def test_repeated_representative_gives_equal_segment_keys(pair, session):
    shared = b"\x00" + os.urandom(31)  # minimum of any segment it joins
    seg_a = seg_for([shared, b"\xff" + os.urandom(31)])
    seg_b = seg_for([shared, b"\xff" + os.urandom(31)])
    assert seg_a.representative == seg_b.representative == shared
    assert session.segment_key(seg_a) == session.segment_key(seg_b)


# -- wire details ----------------------------------------------------------------------


def test_public_key_fetch_over_frames(pair, service):
    session = KeySession(LocalBackend(service))
    pub = session.public_key
    assert pub.n == pair.n and pub.e == pair.e


def test_rate_limit_propagates_over_frames(pair):
    clock = FakeClock()
    service = KeyManagerService(pair, rate_capacity=1, rate_refill=0.0, clock=clock)
    session = KeySession(LocalBackend(service))
    session.key_for_fingerprint(os.urandom(32))
    with pytest.raises(RateLimited):
        session.key_for_fingerprint(os.urandom(32))


def test_keypair_pem_round_trip(pair, tmp_path):
    path = str(tmp_path / "manager.pem")
    pair.save_pem(path)
    loaded = ManagerKeyPair.load_pem(path)
    assert loaded == pair
    assert (loaded.p, loaded.q) == (pair.p, pair.q)
    assert ManagerKeyPair.load_or_create(path) == pair


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


def test_primes_must_match_modulus(pair):
    with pytest.raises(ValueError):
        ManagerKeyPair(n=pair.n, e=pair.e, d=pair.d, p=pair.p, q=pair.q + 2)
