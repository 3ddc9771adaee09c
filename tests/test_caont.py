import gc
import hashlib
import os
import random
import sys
import threading
import weakref

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from reed import caont
from reed.errors import (AuthenticationFailure, IntegrityViolation,
                         PackageTooSmall)


def xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# -- the keystream, against cryptography's own AES-256-CTR --------------------------------


def ctr_reference(key: bytes, data: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor().update(data)


def test_keystream_zero_key_reference_block():
    # reference AES-256-CTR oracle: first counter block under an all-zero key
    assert caont._keystream_xor(bytes(32), bytes(16)).hex() == \
        "dc95c078a2408989ad48a21492842087"


BUFFER_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "readonly-view": lambda data: memoryview(bytearray(data)).toreadonly(),
}


@given(st.binary(min_size=32, max_size=32), st.integers(1, 70_000),
       st.sampled_from(sorted(BUFFER_KINDS)), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_keystream_matches_cryptography(key, length, kind, rng):
    data = rng.randbytes(length)
    assert caont._keystream_xor(key, BUFFER_KINDS[kind](data)) == ctr_reference(key, data)


def test_keystream_threads_interleave_keys():
    # Each thread re-keys its own context between calls; a context shared
    # by both would mix the keys as the threads switch between calls.
    rng = random.Random(7)
    jobs = []
    for _ in range(2):
        key = rng.randbytes(32)
        items = [rng.randbytes(rng.randint(1, 2000)) for _ in range(3000)]
        jobs.append([(key, data, ctr_reference(key, data)) for data in items])
    mismatches: list = [None, None]  # stays None if a thread dies
    start = threading.Barrier(2, timeout=60)

    def work(i):
        start.wait()
        mismatches[i] = sum(caont._keystream_xor(key, data) != want
                            for key, data, want in jobs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [0, 0]


def test_a_threads_context_is_freed_when_it_ends():
    refs = []

    def work():
        caont._keystream_xor(bytes(32), b"x")
        refs.append(weakref.ref(caont._thread_context()))

    t = threading.Thread(target=work)
    t.start()
    t.join()
    gc.collect()
    assert refs and refs[0]() is None
    assert caont._thread_context() is caont._thread_context()


def test_keystream_refuses_more_than_one_call_takes(monkeypatch):
    # EVP_EncryptUpdate takes a C int length, which a large fixed chunk size
    # could reach; the cap is lowered here to test it.
    key = os.urandom(32)
    monkeypatch.setattr(caont, "_MAX_UPDATE", 64)
    assert caont._keystream_xor(key, bytes(64)) == ctr_reference(key, bytes(64))
    with pytest.raises(ValueError, match="at most 64 bytes"):
        caont._keystream_xor(key, bytes(65))


def test_keystream_of_nothing_is_empty():
    assert caont._keystream_xor(os.urandom(32), b"") == b""
    assert caont.mle_decrypt(b"", os.urandom(32)) == b""


@pytest.mark.parametrize("key", [b"", bytes(16), bytes(31), bytes(33)])
def test_keystream_rejects_a_key_of_the_wrong_size(key):
    with pytest.raises(ValueError, match="32 bytes"):
        caont._keystream_xor(key, b"data")


# -- basic scheme -------------------------------------------------------------------


def test_basic_sizes_8k_chunk():
    trimmed, stub = caont.basic_encrypt(os.urandom(8192), os.urandom(32))
    assert len(trimmed) == 8192
    assert len(stub) == 64
    assert len(stub) / len(trimmed) == 64 / 8192 == 0.0078125


def test_basic_one_byte_chunk():
    trimmed, stub = caont.basic_encrypt(b"\xaa", os.urandom(32))
    assert len(trimmed) == 1 and len(stub) == 64


def test_basic_deterministic():
    m, k = os.urandom(777), os.urandom(32)
    assert caont.basic_encrypt(m, k) == caont.basic_encrypt(m, k)


@pytest.mark.parametrize("length", [1, 31, 32, 33, 63, 64, 65, 8192, 16384])
def test_basic_round_trip(length):
    m, k = os.urandom(length), os.urandom(32)
    trimmed, stub = caont.basic_encrypt(m, k)
    assert caont.basic_decrypt(trimmed, stub) == m


def test_basic_every_bit_flip_detected():
    rng = random.Random(5)
    m, k = rng.randbytes(64), rng.randbytes(32)
    trimmed, stub = caont.basic_encrypt(m, k)
    package = trimmed + stub
    for bit in range(len(package) * 8):
        mod = bytearray(package)
        mod[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityViolation):
            caont.basic_decrypt(bytes(mod[:len(trimmed)]), bytes(mod[len(trimmed):]))


def test_basic_rejects_empty_chunk():
    with pytest.raises(ValueError):
        caont.basic_encrypt(b"", os.urandom(32))


# -- plain deterministic encryption ---------------------------------------------------


def test_mle_round_trip():
    m, k = os.urandom(300), os.urandom(32)
    assert caont.mle_decrypt(caont.mle_encrypt(m, k), k) == m


def test_mle_deterministic():
    m, k = os.urandom(300), os.urandom(32)
    assert caont.mle_encrypt(m, k) == caont.mle_encrypt(m, k)


def test_mle_of_zeros_equals_mask():
    k = os.urandom(32)
    assert caont.mle_encrypt(bytes(32), k) == ctr_reference(k, bytes(32))


# -- self-xor -----------------------------------------------------------------------


def test_self_xor_cancels_equal_halves():
    half = os.urandom(32)
    assert caont.self_xor(half + half) == bytes(32)


def test_self_xor_single_piece_identity():
    piece = os.urandom(32)
    assert caont.self_xor(piece) == piece


def test_self_xor_zero_extends_ragged_tail():
    data = os.urandom(40)
    expected = xor(data[:32], data[32:] + bytes(24))
    assert caont.self_xor(data) == expected


@pytest.mark.parametrize("length", [1, 8, 31, 32, 33, 64, 100, 9000, 9248])
def test_self_xor_matches_a_loop_over_pieces(length):
    data = random.Random(length).randbytes(length)
    expected = bytes(32)
    for at in range(0, length, 32):
        piece = data[at:at + 32]
        expected = xor(expected, piece + bytes(32 - len(piece)))
    assert caont.self_xor(data) == expected
    assert caont.self_xor(memoryview(bytearray(data))) == expected


def test_self_xor_rejects_empty():
    with pytest.raises(ValueError):
        caont.self_xor(b"")


# -- enhanced scheme -------------------------------------------------------------------


@pytest.mark.parametrize("length", [1, 31, 32, 33, 63, 64, 65, 8192, 16384])
def test_enhanced_round_trip(length):
    m, k = os.urandom(length), os.urandom(32)
    trimmed, stub = caont.enhanced_encrypt(m, k)
    assert len(trimmed) == length and len(stub) == 64
    assert caont.enhanced_decrypt(trimmed, stub) == m


def test_enhanced_deterministic():
    m, k = os.urandom(500), os.urandom(32)
    assert caont.enhanced_encrypt(m, k) == caont.enhanced_encrypt(m, k)


def test_enhanced_every_bit_flip_detected():
    rng = random.Random(6)
    m, k = rng.randbytes(64), rng.randbytes(32)
    trimmed, stub = caont.enhanced_encrypt(m, k)
    package = trimmed + stub
    for bit in range(len(package) * 8):
        mod = bytearray(package)
        mod[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityViolation):
            caont.enhanced_decrypt(bytes(mod[:len(trimmed)]),
                                   bytes(mod[len(trimmed):]))


def test_enhanced_even_piece_same_bit_flip_detected():
    # flipping one bit position in an even number of head pieces leaves the
    # xor-fold (and so the recovered hash key) intact; the hash check over
    # the unmasked content must still catch it
    m, k = os.urandom(128), os.urandom(32)
    trimmed, stub = caont.enhanced_encrypt(m, k)
    package = bytearray(trimmed + stub)
    head_len = len(package) - 32
    assert head_len % 32 == 0 and head_len // 32 >= 4
    for pieces in ([0, 1], [0, 3], [1, 2], [0, 1, 2, 3]):
        mod = bytearray(package)
        for p in pieces:
            mod[p * 32] ^= 0x40
        recovered_tail_key = caont.self_xor(bytes(mod[:head_len]))
        assert recovered_tail_key == caont.self_xor(package[:head_len])
        with pytest.raises(IntegrityViolation):
            caont.enhanced_decrypt(bytes(mod[:len(trimmed)]),
                                   bytes(mod[len(trimmed):]))


def test_shared_key_xor_leak_only_in_basic():
    # two chunks under one shared key: basic trimmed packages xor down to the
    # plaintext xor, the enhanced ones must not
    k = os.urandom(32)
    m1, m2 = os.urandom(256), os.urandom(256)
    plain_xor = xor(m1, m2)
    b1, _ = caont.basic_encrypt(m1, k)
    b2, _ = caont.basic_encrypt(m2, k)
    assert xor(b1, b2) == plain_xor
    e1, _ = caont.enhanced_encrypt(m1, k)
    e2, _ = caont.enhanced_encrypt(m2, k)
    assert xor(e1, e2) != plain_xor


@given(st.binary(min_size=1, max_size=2048), st.binary(min_size=32, max_size=32))
@settings(max_examples=40, deadline=None)
def test_round_trip_property_both_schemes(m, k):
    for enc, dec in ((caont.basic_encrypt, caont.basic_decrypt),
                     (caont.enhanced_encrypt, caont.enhanced_decrypt)):
        trimmed, stub = enc(m, k)
        assert len(trimmed) == len(m)
        assert len(stub) == 64
        assert dec(trimmed, stub) == m


# -- package shape ----------------------------------------------------------------------


def test_decrypt_rejects_short_package():
    with pytest.raises(PackageTooSmall):
        caont.basic_decrypt(b"", os.urandom(64))
    with pytest.raises(PackageTooSmall):
        caont.enhanced_decrypt(b"", os.urandom(64))


@pytest.mark.parametrize("scheme", [caont.SCHEME_BASIC, caont.SCHEME_ENHANCED])
@pytest.mark.parametrize("as_buffer", [
    bytearray,
    lambda data: memoryview(bytearray(b"frame" + data))[5:],  # a slice of a frame
    lambda data: memoryview(data).toreadonly(),
], ids=["bytearray", "frame-view", "readonly-view"])
def test_decrypt_accepts_any_buffer(scheme, as_buffer):
    m, k = os.urandom(9000), os.urandom(32)
    trimmed, stub = caont.encrypt_chunk(scheme, m, k)
    assert caont.decrypt_chunk(scheme, as_buffer(trimmed), as_buffer(stub)) == m
    tampered = bytearray(trimmed)
    tampered[100] ^= 1
    with pytest.raises(IntegrityViolation):
        caont.decrypt_chunk(scheme, as_buffer(bytes(tampered)), as_buffer(stub))


@pytest.mark.parametrize("scheme", [caont.SCHEME_BASIC, caont.SCHEME_ENHANCED])
def test_decrypt_rejects_a_stub_of_the_wrong_size(scheme):
    trimmed, stub = caont.encrypt_chunk(scheme, os.urandom(100), os.urandom(32))
    for bad in (stub[:-1], stub + b"\x00", b""):
        with pytest.raises(IntegrityViolation, match="64 bytes"):
            caont.decrypt_chunk(scheme, trimmed, bad)
    # the same package bytes split at another point are refused as well
    with pytest.raises(IntegrityViolation, match="64 bytes"):
        caont.decrypt_chunk(scheme, trimmed + stub[:1], stub[1:])


def test_scheme_dispatch():
    m, k = os.urandom(100), os.urandom(32)
    for scheme in (caont.SCHEME_BASIC, caont.SCHEME_ENHANCED):
        trimmed, stub = caont.encrypt_chunk(scheme, m, k)
        assert caont.decrypt_chunk(scheme, trimmed, stub) == m
    with pytest.raises(ValueError):
        caont.encrypt_chunk(9, m, k)


# -- known answers and the chunk-key keystream memo ---------------------------------------


@pytest.mark.parametrize("scheme, digest", [
    (caont.SCHEME_BASIC,
     "2a489bc3c30bc7dade52c615a86b332b8cfba98e2eed4461b5729eae25b0f6d4"),
    (caont.SCHEME_ENHANCED,
     "1ff2406b915672ababb282822b05ea7d1f6c39e9cba8c64cce7eccd918672289"),
])
def test_known_answer_packages(scheme, digest):
    # Digests recorded from the per-chunk-cipher implementation; key runs
    # and lengths exercise the memo's hit, miss and growth paths.
    rng = random.Random(0x5EED_CA0E)
    keys = [rng.randbytes(32) for _ in range(3)]
    h = hashlib.sha256()
    for size, k in [(1, 0), (31, 0), (33, 1), (8192, 1), (5000, 1), (16384, 2), (64, 0)]:
        trimmed, stub = caont.encrypt_chunk(scheme, rng.randbytes(size), keys[k])
        h.update(trimmed)
        h.update(stub)
    assert h.hexdigest() == digest


def basic_reference(chunk: bytes, key: bytes) -> tuple[bytes, bytes]:
    head = xor(chunk + caont.CANARY, ctr_reference(key, bytes(len(chunk) + 32)))
    tail = xor(key, hashlib.sha256(head).digest())
    return head[:-32], head[-32:] + tail


def enhanced_reference(chunk: bytes, key: bytes) -> tuple[bytes, bytes]:
    inner = ctr_reference(key, chunk) + key
    h = hashlib.sha256(inner).digest()
    head = ctr_reference(h, inner)
    tail = xor(caont.self_xor(head), h)
    return head[:-32], head[-32:] + tail


REFERENCE = {caont.SCHEME_BASIC: basic_reference,
             caont.SCHEME_ENHANCED: enhanced_reference}


@pytest.mark.parametrize("scheme", [caont.SCHEME_BASIC, caont.SCHEME_ENHANCED])
@pytest.mark.parametrize("runs", [
    [("A", 300), ("A", 300), ("B", 300), ("A", 300)],  # keys A, A, B, A
    [("A", 100), ("A", 4000), ("A", 4000), ("A", 50)],  # a short then longer chunk
])
def test_memo_matches_reference(scheme, runs):
    keys = {"A": os.urandom(32), "B": os.urandom(32)}
    for name, length in runs:
        chunk = os.urandom(length)
        package = caont.encrypt_chunk(scheme, chunk, keys[name])
        assert package == REFERENCE[scheme](chunk, keys[name])
        assert caont.decrypt_chunk(scheme, *package) == chunk
        assert caont.mle_encrypt(chunk, keys[name]) == ctr_reference(keys[name], chunk)


@pytest.mark.parametrize("scheme", [caont.SCHEME_BASIC, caont.SCHEME_ENHANCED])
def test_memo_threads_match_serial_run(scheme):
    rng = random.Random(scheme)
    jobs = []
    for _ in range(2):
        key = rng.randbytes(32)
        jobs.append([(rng.randbytes(rng.randint(1, 3000)), key) for _ in range(1000)])
    serial = [[caont.encrypt_chunk(scheme, c, k) for c, k in job] for job in jobs]
    results: list = [None, None]

    def work(i):
        results[i] = [caont.encrypt_chunk(scheme, c, k) for c, k in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


# -- stub files ---------------------------------------------------------------------------


def test_stub_file_round_trip():
    stubs = os.urandom(7 * caont.STUB_SIZE)
    fk = os.urandom(32)
    blob = caont.encrypt_stub_file(stubs, fk)
    assert len(blob) == 7 * 64 + caont.STUB_FILE_OVERHEAD
    assert caont.decrypt_stub_file(blob, fk) == stubs


def test_stub_file_of_6000_stubs_decrypts_to_one_bytes():
    stubs = [os.urandom(caont.STUB_SIZE) for _ in range(6000)]
    fk = os.urandom(32)
    plain = caont.decrypt_stub_file(caont.encrypt_stub_file(bytearray().join(stubs), fk),
                                    fk)
    assert type(plain) is bytes
    assert plain == b"".join(stubs)


def test_stub_file_wrong_key_fails():
    blob = caont.encrypt_stub_file(os.urandom(64), os.urandom(32))
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(blob, os.urandom(32))


def test_stub_file_tamper_fails():
    fk = os.urandom(32)
    blob = bytearray(caont.encrypt_stub_file(os.urandom(64), fk))
    blob[20] ^= 1
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(bytes(blob), fk)


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:5] + bytes([blob[5] ^ 1]) + blob[6:],  # nonce
    lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),  # tag
    lambda blob: blob[:-1],
    lambda blob: blob[:caont.STUB_FILE_OVERHEAD - 1],
], ids=["nonce", "tag", "one-byte-short", "shorter-than-overhead"])
def test_stub_file_damaged_anywhere_fails(damage):
    fk = os.urandom(32)
    blob = caont.encrypt_stub_file(os.urandom(3 * caont.STUB_SIZE), fk)
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(damage(blob), fk)


@pytest.mark.parametrize("size", [1, 63, 65, 6000 * 64 + 32])
def test_stub_file_refuses_a_plaintext_that_is_not_whole_stubs(size):
    with pytest.raises(ValueError, match="64-byte stubs"):
        caont.encrypt_stub_file(bytes(size), os.urandom(32))


def test_stub_file_whose_plaintext_is_not_whole_stubs_fails_authentication():
    """An authentic blob over a ragged plaintext cannot pair stubs with chunks."""
    fk, nonce = os.urandom(32), os.urandom(caont.GCM_NONCE_SIZE)
    blob = nonce + AESGCM(fk).encrypt(nonce, os.urandom(65), None)
    with pytest.raises(AuthenticationFailure, match="stub-aligned"):
        caont.decrypt_stub_file(blob, fk)


def test_stub_file_built_from_a_list_of_stubs_still_decrypts():
    """The layout is unchanged: nonce || AES-GCM of the joined stubs, tag last."""
    stubs = [os.urandom(caont.STUB_SIZE) for _ in range(5)]
    fk, nonce = os.urandom(32), os.urandom(caont.GCM_NONCE_SIZE)
    blob = nonce + AESGCM(fk).encrypt(nonce, b"".join(stubs), None)
    assert caont.decrypt_stub_file(blob, fk) == b"".join(stubs)
    assert caont.decrypt_stub_file(memoryview(blob), fk) == b"".join(stubs)


def test_stub_file_reencryption_changes_ciphertext_not_content():
    stubs = os.urandom(3 * caont.STUB_SIZE)
    old_key, new_key = os.urandom(32), os.urandom(32)
    old_blob = caont.encrypt_stub_file(stubs, old_key)
    new_blob = caont.encrypt_stub_file(caont.decrypt_stub_file(old_blob, old_key),
                                       new_key)
    assert new_blob != old_blob
    assert caont.decrypt_stub_file(new_blob, new_key) == stubs
    with pytest.raises(AuthenticationFailure):
        caont.decrypt_stub_file(new_blob, old_key)


def test_stub_file_empty_list():
    fk = os.urandom(32)
    blob = caont.encrypt_stub_file(b"", fk)
    assert len(blob) == caont.STUB_FILE_OVERHEAD
    assert caont.decrypt_stub_file(blob, fk) == b""
